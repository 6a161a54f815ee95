"""Smoke runs of the scripts in ``demos/``, each in its own interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    if demo.name == "05_packing_number.py":
        assert any(line.startswith("K6: packs 3 trees") for line in run.stdout.splitlines())
