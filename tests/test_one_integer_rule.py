"""Every scalar integer input goes through ``treepack.integers.exact_int``.

Only ``exact_int`` and the element-wise checks its docstring lists may
compare ``type(...)`` with ``int`` or map ``type`` over values, and each
only on its own operands: ``multigraph._check_edge_ids`` (``ids``),
``MultiGraph.__post_init__`` (the endpoints ``u`` and ``v``, not ``n``),
``KPartition.__post_init__`` (``color_of``), ``KPartition.edges_of_color``
(the fast path's one test, of ``color``), ``kpartition._entry_error``
(``e`` and ``color``) and ``_first_error`` (``e``),
``oracle.verify_packing`` (ids), ``Partition.__post_init__`` (each
``label``), ``Partition.from_classes``, and the
result document's ``_document_trees`` and ``_document_classes``. No code
may take an ``int`` by ``isinstance``, which takes a bool.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "treepack"

# (function, operand): the operand is the source text of what is tested.
ALLOWED = {
    ("integers.exact_int", "value"),
    ("multigraph._check_edge_ids", "ids"),
    ("multigraph.MultiGraph.__post_init__", "u"),
    ("multigraph.MultiGraph.__post_init__", "v"),
    ("kpartition.KPartition.__post_init__", "color_of"),
    ("kpartition.KPartition.edges_of_color", "color"),
    ("kpartition._entry_error", "e"),
    ("kpartition._entry_error", "color"),
    ("kpartition._first_error.rank", "e"),
    ("oracle.verify_packing", "e"),
    ("partition.Partition.__post_init__", "label"),
    ("partition.Partition.from_classes", "v"),
    ("document._document_trees", "e"),
    ("document._document_classes", "v"),
}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_type_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _is_name(node.func, "type")


def _int_operand(node: ast.AST) -> str | None:
    """The source of ``x`` in ``type(x) <op> int`` or ``map(type, x)``;
    ``isinstance(x, int)`` for an ``isinstance`` test, which no entry allows."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        if any(_is_name(side, "int") for side in sides):
            for side in sides:
                if _is_type_call(side) and side.args:
                    return ast.unparse(side.args[0])
    if isinstance(node, ast.Call) and node.args:
        if _is_name(node.func, "map") and len(node.args) == 2 and _is_name(node.args[0], "type"):
            return ast.unparse(node.args[1])
        if _is_name(node.func, "isinstance") and len(node.args) == 2:
            if any(_is_name(n, "int") for n in ast.walk(node.args[1])):
                return ast.unparse(node)
    return None


def _sites(tree: ast.AST, prefix: str) -> set[tuple[str, str]]:
    """``(function, operand)`` for each int test, the function's qualified
    name being the module's for module-level code."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= _sites(node, f"{prefix}.{node.name}")
        else:
            for inner in ast.walk(node):
                operand = _int_operand(inner)
                if operand is not None:
                    found.add((prefix, operand))
    return found


def integer_tests() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found |= _sites(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_only_the_rule_and_the_element_wise_checks_test_for_an_int():
    found = integer_tests()
    assert ("integers.exact_int", "value") in found  # the search sees the rule itself
    assert sorted(found - ALLOWED) == []
    assert sorted(ALLOWED - found) == []  # no entry outlives its check
