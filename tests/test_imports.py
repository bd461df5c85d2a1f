"""Every module of the package reads each name it imports at top level, or
re-exports it through ``__all__``: an import left behind by a deleted check is
dead code that a reader has to trace.  Only the stdlib ``ast`` module is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wallcross"


def _unread_imports(tree):
    """The names imported by the module's top-level statements that no
    expression of the module reads and ``__all__`` does not list."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items()
            if name not in read and name not in exported}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_imports(tree) == {}


def test_an_unread_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert _unread_imports(tree) == {"math": 1, "path": 2}
