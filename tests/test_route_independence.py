"""The closed forms and the ring oracle check each other only as far as they share
no code: a fault in a function both run moves both values alike, and their
agreement cannot show it.  ``evaluate`` is traced with ``sys.setprofile`` on the
``closed`` path and on the ``oracle`` path, each on a fresh model of its own, and
the package functions that both run must be exactly the allow-list below.

A function joins the list only with a kill-list mutant in ``test_verify.py`` that
some ``verify`` check catches (ROADMAP item 16).  A comprehension or a lambda
counts as the function whose source holds it, so the names read alike on every
Python version."""

import ast
import sys
from pathlib import Path

import pytest

import wallcross
from wallcross import InsertionWord, PairingInput, Pairings, WallGeometry, build_model
from wallcross.delta import evaluate

PACKAGE = Path(wallcross.__file__).resolve().parent

# the input and record code: the number rules, the generator index, the word,
# admission, the value record and the entry point
SHARED = {
    "graded.frac", "graded.exact_int", "graded.exact_count", "graded.exact_tuple",
    "graded.ModelSpec._index", "jacobian.InsertionWord.__post_init__",
    "jacobian.InsertionWord.plain", "jacobian.InsertionWord.degree",
    "walls.WallGeometry.admit", "jacobian.DeltaValue.__init__", "delta.evaluate",
}

# an a_matrix J-side's vol and F, a block-shaped one's too, are read off the int
# forms that the oracle's I_c and omega powers read; only an a_blocks J-side's are
# products of its blocks
DENSE_SHARED = SHARED | {
    "graded.ModelSpec.omega_form",  # until item 8(b)
    "graded.wedge",  # until item 8(b)
    "graded._above_parity",  # until item 8(b)
    "graded.ModelSpec.odd_form",  # until item 8(b)
    "graded.form_pairs",  # until item 8(b)
    "graded.integrate_forms",  # until item 8(b)
}

PAIRINGS = Pairings(zeta2=-3, zetaK=1, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1, sigmaK=1,
                    K2=8, Kalpha=1, alpha2=-1)
PFAFFIAN_6 = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
# the blocks (2, 3) as an a_matrix
BLOCK_SHAPED = ((0, 2, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0))


def _spans():
    """(file, first line, last line, qualified name) of every function of the package,
    the first line a decorator's when it has one."""
    spans = []
    for path in PACKAGE.glob("*.py"):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if isinstance(child, ast.FunctionDef):
                        spans.append((str(path), first, child.end_lineno, name))
                    visit(child, name)
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return spans


SPANS = _spans()


def _owner(code):
    """The innermost package function whose source holds ``code``."""
    inside = [(first, name) for path, first, last, name in SPANS
              if path == code.co_filename and first <= code.co_firstlineno <= last]
    return max(inside)[1]


def _traced(model, wall, word, path):
    """The package functions that ``evaluate(model, wall, word, path)`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).parent == PACKAGE:
            codes.add(frame.f_code)
    sys.setprofile(profile)
    try:
        evaluate(model, wall, word, path)
    finally:
        sys.setprofile(None)
    return {_owner(code) for code in codes}


def _cases(q):
    """Walls at l = 0 and l = 1 of the pairings' zeta^2 and zeta.K, each with a
    plain word, and at l = 0 a gamma word, an A word and a mixed one."""
    for l_zeta in (0, 1):
        wall = WallGeometry.build(p1=PAIRINGS.zeta2 - 4 * l_zeta, q=q, zeta2=PAIRINGS.zeta2,
                                  zetaK=PAIRINGS.zetaK)
        d = wall.d
        yield wall, InsertionWord.plain(1, d)
        if l_zeta == 0:
            yield wall, InsertionWord(s=d - 3, gammas=(0, 1))
            yield wall, InsertionWord(s=d - 1, threes=(0, 1))
            yield wall, InsertionWord(s=d - 2, gammas=(0,), threes=(1,))


@pytest.mark.parametrize("q, blocks, matrix, allowed", [
    (1, (2,), None, SHARED), (2, (2, 3), None, SHARED), (2, (1,), None, SHARED),
    (2, None, PFAFFIAN_6, DENSE_SHARED), (2, None, BLOCK_SHAPED, DENSE_SHARED)],
    ids=["blocks-2", "blocks-2-3", "zero-block", "dense", "block-shaped-matrix"])
def test_the_routes_share_only_the_allowed_functions(q, blocks, matrix, allowed):
    shared = set()
    for wall, word in _cases(q):
        closed, oracle = (_traced(build_model(PairingInput(
            q=q, pairings=PAIRINGS, a_blocks=blocks, a_matrix=matrix)), wall, word, path)
            for path in ("closed", "oracle"))
        assert "delta.evaluate" in closed & oracle
        shared |= closed & oracle
    assert shared == allowed
