"""Every scalar integer input goes through ``treepack.integers.exact_int``.

Only ``exact_int`` and the element-wise checks its docstring lists may
compare ``type(...)`` with ``int`` or map ``type`` over values:
``multigraph._check_edge_ids``, ``MultiGraph.__post_init__`` (endpoints),
``KPartition.__post_init__`` (colors), ``KPartition.edges_of_color`` (the
fast path's one test), ``kpartition._entry_error`` and ``_first_error``,
``oracle.verify_packing`` (ids), ``Partition.from_classes``, and the
result document's ``_document_trees`` and ``_document_classes``. No code
may take an ``int`` by ``isinstance``, which takes a bool.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "treepack"

ALLOWED = {
    "integers.exact_int",
    "multigraph._check_edge_ids",
    "multigraph.MultiGraph.__post_init__",
    "kpartition.KPartition.__post_init__",
    "kpartition.KPartition.edges_of_color",
    "kpartition._entry_error",
    "kpartition._first_error.rank",
    "oracle.verify_packing",
    "partition.Partition.from_classes",
    "document._document_trees",
    "document._document_classes",
}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_type_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _is_name(node.func, "type")


def _tests_int(node: ast.AST) -> bool:
    """``type(x) <op> int``, ``map(type, ...)`` or ``isinstance(x, int)``."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return any(map(_is_type_call, sides)) and any(_is_name(side, "int") for side in sides)
    if isinstance(node, ast.Call) and node.args:
        if _is_name(node.func, "map"):
            return _is_name(node.args[0], "type")
        if _is_name(node.func, "isinstance") and len(node.args) == 2:
            return any(_is_name(n, "int") for n in ast.walk(node.args[1]))
    return False


def _sites(tree: ast.AST, prefix: str) -> set[str]:
    """The qualified names of the functions (or the module) holding an int test."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= _sites(node, f"{prefix}.{node.name}")
        elif any(_tests_int(inner) for inner in ast.walk(node)):
            found.add(prefix)
    return found


def integer_tests() -> set[str]:
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found |= _sites(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_only_the_rule_and_the_element_wise_checks_test_for_an_int():
    found = integer_tests()
    assert "integers.exact_int" in found  # the search sees the rule itself
    assert sorted(found - ALLOWED) == []
