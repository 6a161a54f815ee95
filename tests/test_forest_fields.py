"""Only ``multigraph.py`` reads the fields of a ``RootedForest``.

The packer patches its stage forests through ``RootedForest.swap`` and
queries them through ``cycle_edges`` and ``fundamental_cycle``, so the
forest representation can change in one module.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from treepack.multigraph import RootedForest

PACKER = Path(__file__).resolve().parents[1] / "src" / "treepack" / "packer.py"


def test_packer_reads_no_rooted_forest_field():
    names = {f.name for f in fields(RootedForest)}
    assert names == {"above", "via", "cover"}
    tree = ast.parse(PACKER.read_text(), str(PACKER))
    reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    )
    assert reads == []
