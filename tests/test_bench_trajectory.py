"""The committed BENCH trajectory and the documents that cite it stay in step.

Every performance claim cites a ``BENCH_*.json`` file at the repository
root. A file that CHANGES.md does not name is orphaned, one that does not
load is truncated, and a name that no file answers is a dangling citation.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_NAME = re.compile(r"BENCH_\w+\.json")


def _cited(document: str) -> set[str]:
    return set(BENCH_NAME.findall((ROOT / document).read_text()))


def test_bench_files_load_and_every_citation_names_one():
    files = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert files
    for name in files:
        assert isinstance(json.loads((ROOT / name).read_text()), dict), name
    assert sorted(set(files) - _cited("CHANGES.md")) == []
    cited = _cited("CHANGES.md") | _cited("README.md") | _cited("ROADMAP.md")
    assert sorted(cited - set(files)) == []
