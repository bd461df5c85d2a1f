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


def _package_imports(tree):
    """(module, name) for every name the module imports from a package module,
    at any depth, with name None for a whole module: ``from .graded import frac``
    gives ("graded", "frac"), ``from . import chern`` and ``import wallcross.chern``
    give ("chern", None)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "wallcross":
                continue
            module = ".".join(parts[1:] if node.level == 0 else parts)
            for alias in node.names:
                found.add((module, alias.name) if module else (alias.name, None))
        elif isinstance(node, ast.Import):
            found.update((alias.name.split(".")[1], None) for alias in node.names
                         if alias.name.startswith("wallcross."))
    return found


# the routes' import rule: per module, the package modules it is restricted in and
# the names it may take from each.  The closed forms take from the ring kernel only
# its records and number rules, and from the Jacobian only records, vol and F, so
# no ring class such as e_zeta; neither route reads the other or the checks.  It is
# read off the source, since the package namespace imports every module.
ROUTE_RULE = {
    "closed": {"graded": {"ModelSpec", "frac", "_ZERO"},
               "jacobian": {"DeltaValue", "InsertionWord", "Pairings", "jacobian_odd_integral",
                            "volume"},
               "chern": set(), "oracle": set(), "verify": set(), "delta": set()},
    "oracle": {"closed": set()},
}


def _forbidden(tree, rule):
    return sorted(((module, name) for module, name in _package_imports(tree)
                   if module in rule and name not in rule[module]), key=str)


@pytest.mark.parametrize("module", sorted(ROUTE_RULE))
def test_the_routes_import_only_what_the_rule_allows(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _forbidden(tree, ROUTE_RULE[module]) == []


def test_a_forbidden_import_is_found():
    tree = ast.parse("from .graded import GradedElement, frac\nimport math\n"
                     "def f():\n    from .chern import segre_from_ch\n"
                     "from . import oracle\nimport wallcross.verify\n")
    assert _forbidden(tree, ROUTE_RULE["closed"]) == [
        ("chern", "segre_from_ch"), ("graded", "GradedElement"), ("oracle", None),
        ("verify", None)]


def _block_names(tree):
    """The lines where the module names a block J-side's data: the cache key
    ``("blocks",)``, a one-tuple of the string "blocks", or ``block_coefficients``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            if [getattr(elt, "value", None) for elt in node.elts] == ["blocks"]:
                lines.add(node.lineno)
        elif "block_coefficients" in (getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "name", None)):
            lines.add(getattr(node, "lineno", 0))
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_jacobian_names_the_block_data(path):
    # the blocks of an a_blocks input are kept in the J-side's cache, and only the
    # closed route's F reads them: the ring kernel and the oracle never do
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert bool(_block_names(tree)) == (path.stem == "jacobian"), _block_names(tree)


def test_a_block_name_is_found():
    tree = ast.parse('x = cache[("blocks",)]\ny = cache["blocks",]\nz = ("blocks", 1)\n'
                     "def block_coefficients(a):\n    pass\n"
                     "from .graded import block_coefficients\ngraded.block_coefficients(a)\n")
    assert _block_names(tree) == [1, 2, 4, 6, 7]
