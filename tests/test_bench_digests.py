"""The benchmark's tiny runs write the result documents they always wrote.

A speedup counts only if verdicts, trees, certificates and ``--trace``
documents stay byte-identical. Each workload in ``BENCHMARK.json`` is run
at its tiny size with seed 7, the way ``perfbench/tests`` runs it, and the
digest of its result documents must equal the pinned value. A change that
means to alter the output must re-pin these digests and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DIGESTS = {
    "union-pack": "40f0f402b6841e49f914bf2d2d61311353a559f8b9339d72d3ab4c4c6f2dc16d",
    "complete-stp": "95c9cec5b1e8f6049e0fe7728d2b56a41eaf35f294d0e806e8bfd3038bffeed4",
    "cli-roundtrip": "395c96ef8b6a4148aa1bcd592c3efb3f8af9e78258b3a3a530425011c00dd5b1",
}
# Workloads whose tiny run must exchange, so the digest covers the exchange loop.
EXCHANGING = ("union-pack", "complete-stp")


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "treepack" or n.startswith("treepack.")}


@pytest.fixture(autouse=True)
def keep_the_imported_package():
    """``run.main`` imports treepack afresh; put back the modules the suite imported."""
    saved = _package_modules()
    yield
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def test_every_workload_has_a_pinned_digest():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(DIGESTS)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_tiny_run_digest_is_pinned(capsys, workload):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", "0"],
        tiny=True,
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    info = {}
    for line in out:
        if line.startswith("info "):
            _, label, payload = line.split(" ", 2)
            info[label] = json.loads(payload)
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert info["digest"]["sha256"] == DIGESTS[workload]
    if workload in EXCHANGING:
        assert info["counts"]["exchanges"]["value"] >= 1
