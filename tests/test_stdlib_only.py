"""The runtime package imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "treepack"


def _absolute_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"treepack"}
    outside = [
        (source.name, name)
        for source in sources
        for name in _absolute_imports(ast.parse(source.read_text(), str(source)))
        if name.partition(".")[0] not in allowed
    ]
    assert outside == []
