"""The default grid's closed == oracle agreement, made a proof at each of its shapes.

For a fixed shape (q, the wall, the word x^r alpha^s and the J-side), both
routes are polynomials in the seven free pairings, of degree at most D_i in
pairing i: s in zeta.alpha; q in Sigma.zeta and Sigma.alpha; l_zeta in K^2
and alpha^2; 0 in Sigma.K and K.alpha.  zeta^2 and zeta.K are the wall's.  Two
such polynomials that agree on a product grid of D_i + 1 distinct values per
pairing are equal (the tensor form of Alon's Combinatorial Nullstellensatz),
so agreement there holds for every rational pairing at that shape.  The bound
is checked on each route apart: D_i + 2 points along each pairing's axis,
through a seeded base point, give a zero top Newton coefficient.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wallcross import Pairings, evaluate
from wallcross import verify
from wallcross.verify import poly_coeffs

FREE = ("zetaAlpha", "sigmaZeta", "sigmaAlpha", "K2", "alpha2", "sigmaK", "Kalpha")


def degree_bounds(q, l_zeta, s):
    """D_i for each free pairing at a shape of genus q, wall length l_zeta and alpha^s."""
    return {"zetaAlpha": s, "sigmaZeta": q, "sigmaAlpha": q, "K2": l_zeta, "alpha2": l_zeta,
            "sigmaK": 0, "Kalpha": 0}


def distinct(n):
    """n distinct non-zero rationals: 1/3, -1, 5/3, -7/3, ..."""
    return [Fraction((-1) ** k * (2 * k + 1), 3) for k in range(n)]


@pytest.fixture(scope="module")
def shapes():
    """{(q, J-side, wall, word): a model of that J-side} for every point that
    ``oracle-l0`` and ``oracle-l1`` price on the default grid, read by running
    both checks with the pricing call replaced by a recorder."""
    found, counts = {}, []

    def record(model, wall, word):
        found.setdefault((model.q, model.a_matrix, wall, word), model)
        return 0, 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_closed_and_oracle", record)
        for check in (verify.check_oracle_l0, verify.check_oracle_l1):
            result = check(verify.Grid())
            counts.append((result.passed, result.points))
    assert counts == [(True, 9870), (True, 200)]  # the grid the checks pin
    return found


def _both(model, wall, word, values):
    """(closed, oracle) for the pairings ``values`` on the wall's zeta^2 and zeta.K."""
    pr = Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK, **values)
    closed, oracle = evaluate(model.with_pairings(pr), wall, word)
    return closed.value, oracle.value


def test_the_default_grid_has_96_shapes_of_both_lengths(shapes):
    assert len(shapes) == 96
    assert {wall.l_zeta for _, _, wall, _ in shapes} == {0, 1}
    assert {q for q, _, _, _ in shapes} == {0, 1, 2}


def test_closed_equals_oracle_on_the_certifying_grid_of_every_shape(shapes):
    points = 0
    for (q, _, wall, word), model in shapes.items():
        bounds = degree_bounds(q, wall.l_zeta, word.s)
        axes = [distinct(bounds[key] + 1) for key in FREE]
        for values in itertools.product(*axes):
            closed, oracle = _both(model, wall, word, dict(zip(FREE, values)))
            assert closed == oracle, (q, wall, word.describe(), values)
            points += 1
    assert points == 2600


def test_each_route_keeps_the_degree_bounds_along_every_axis(shapes):
    rng = random.Random(20261020)
    for (q, _, wall, word), model in shapes.items():
        base = {key: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for key in FREE}
        for key, bound in degree_bounds(q, wall.l_zeta, word.s).items():
            xs = [base[key] + k for k in range(bound + 2)]
            routes = zip(*(_both(model, wall, word, dict(base, **{key: x})) for x in xs))
            for route, ys in zip(("closed", "oracle"), routes):
                top = poly_coeffs(xs, list(ys))[-1]
                assert top == 0, (route, key, bound, q, wall, word.describe())
