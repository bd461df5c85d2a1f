import itertools
import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

# Hypothesis writes the patch for a falsifying example through
# hypothesis.extra._patching, whose import (libcst, through mypy_extensions)
# raises a DeprecationWarning.  Under -W error that warning ends the report
# in an INTERNALERROR instead of the example, and pytest re-applies -W error
# around its hooks, so a module-level filter would not reach it: import the
# module once here with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, WallGeometry,
                       build_model, evaluate)
from wallcross.graded import GradedElement, ModelSpec, frac
from wallcross.jacobian import jacobian_odd_integral, volume
from wallcross.surfaces import SurfaceData
from wallcross.verify import valid_zeta_k


def make_model(q=1, blocks=None, matrix=None, **pairings) -> ModelSpec:
    base = dict(zeta2=-4, zetaK=0, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                sigmaK=0, K2=8, Kalpha=0, alpha2=-1)
    base.update(pairings)
    return build_model(PairingInput(q=q, pairings=Pairings(**base),
                                    a_blocks=blocks, a_matrix=matrix))


def omega_element(model) -> GradedElement:
    """omega = sum_{i<j} a_ij th_i th_j, multiplied out in the ring from the model's
    a_ij: the reference for the int forms that ``ModelSpec.omega_form`` reads."""
    return sum((model.theta(i) * model.theta(j) * c for i, row in enumerate(model.a_matrix)
                for j, c in enumerate(row) if j > i), model.zero())


def reversed_wall(wall: WallGeometry) -> WallGeometry:
    """The wall for -zeta (exchanges the (h, N) pairs; d and l fixed)."""
    return replace(wall, zetaK=-wall.zetaK, zetaW=-wall.zetaW)


def exp_truncated(a: GradedElement) -> GradedElement:
    """exp(a) = sum a^n / n!, truncated by the ring; requires no degree-0 part.

    The series itself, term by term: the reference that the l = 1 extension
    data, built as powers of each line class, is checked against."""
    if a.scalar_part() != 0:
        raise PreconditionError("exp_truncated requires a vanishing degree-0 component")
    out = a.model.one()
    term = a.model.one()
    n = 0
    while True:
        n += 1
        term = term * a / n
        if term.is_zero():
            return out
        out = out + term


def odd_zeta_k_values():
    """[(closed, oracle, where), ...]: both routes' values of x^r alpha^(d - 2r), r = 0
    and 1, on l = 1 walls of zeta^2 = -5 and -7, q <= 2, three zeta.K each and two
    sets of pairings.  N_+ - N_- = zeta.K is odd on these walls; verify's l = 1 grids
    and the benchmark take zeta^2 = -4 and -8, where it is even."""
    pairing_sets = (dict(zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1, sigmaK=1, K2=8, Kalpha=1,
                         alpha2=-1),
                    dict(zetaAlpha=Fraction(3, 2), sigmaZeta=Fraction(-1, 2), sigmaAlpha=2,
                         sigmaK=Fraction(1, 3), K2=Fraction(5, 2), Kalpha=-1,
                         alpha2=Fraction(2, 3)))
    out = []
    for q, zeta2 in itertools.product(range(3), (-5, -7)):
        for zeta_k, pairings in itertools.product(valid_zeta_k(q, zeta2, 1)[:3], pairing_sets):
            wall = WallGeometry(zeta2 - 4, q, zeta2, zeta_k)
            model = build_model(PairingInput(q=q, a_blocks=(2, 3)[:q], pairings=Pairings(
                zeta2=zeta2, zetaK=zeta_k, **pairings)))
            for r in (0, 1):
                closed, oracle = evaluate(model, wall, InsertionWord(r=r, s=wall.d - 2 * r))
                out.append((closed.value, oracle.value, (q, zeta2, zeta_k, pairings, r)))
    return out


def pfaffian(m) -> Fraction:
    """Pf(m) of an antisymmetric matrix, in Fractions, by skew elimination.

    With the pivot p = m_01, Pf(m) = p Pf(m'), where m'_ij = m_ij + (m_1i m_0j -
    m_0i m_1j)/p on the indices past 1.  A zero m_01 first swaps a nonzero m_0k into
    place (rows and columns 1 and k), which negates Pf; a zero row 0 gives 0."""
    m = [[Fraction(x) for x in row] for row in m]
    if len(m) % 2:
        return Fraction(0)
    out = Fraction(1)
    while m:
        k = next((k for k in range(1, len(m)) if m[0][k]), None)
        if k is None:
            return Fraction(0)
        if k != 1:
            m[1], m[k] = m[k], m[1]
            for row in m:
                row[1], row[k] = row[k], row[1]
            out = -out
        p, rest = m[0][1], range(2, len(m))
        out *= p
        m = [[m[i][j] + (m[1][i] * m[0][j] - m[0][i] * m[1][j]) / p for j in rest]
             for i in rest]
    return out


def pfaffian_f(a, gammas, threes) -> Fraction:
    """F(gammas, threes) = (-1)^((a+b)/2) p! Pf([[a, V^T], [-V, 0]]) for the a_ij
    matrix ``a``, with p = q - (a+b)/2 and V one row per odd factor in word order:
    th_i's unit vector for each of ``gammas``, row j of ``a`` for each i_{be_j} omega
    of ``threes``.  It is 0 for p < 0, and vol = F((), ())/q!."""
    n, k = len(a), len(gammas) + len(threes)
    p = n // 2 - k // 2
    if p < 0:
        return Fraction(0)
    rows = [[int(i == g) for i in range(n)] for g in gammas] + [list(a[j]) for j in threes]
    bordered = ([list(a[i]) + [v[i] for v in rows] for i in range(n)]
                + [[-x for x in v] + [0] * k for v in rows])
    return (-1) ** (k // 2) * math.factorial(p) * pfaffian(bordered)


def pfaffian_mismatches(sides=120, words=4, seed=8):
    """(mismatches, nonzero): ``volume`` and ``jacobian_odd_integral`` against the
    Pfaffian reference on ``sides`` seeded random J-sides, q <= 4, with ``words``
    odd words of a, b <= 3 factors each.  Each a_ij is drawn from -3..3 over 1..2,
    so zeros occur, and every fourth J-side is degenerate: its last row and column
    are 0.  A mismatch is (q, a, gammas, threes, ring value, reference)."""
    rng = random.Random(seed)
    mismatches, nonzero = [], 0
    for side in range(sides):
        q = rng.randint(0, 4)
        n = 2 * q
        a = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if not (side % 4 == 3 and j == n - 1):
                a[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                a[j][i] = -a[i][j]
        model = build_model(PairingInput(q=q, pairings=Pairings(),
                                         a_matrix=tuple(map(tuple, a))))
        checks = [((), (), volume(model), pfaffian(a))]
        for _ in range(words):
            gammas = tuple(rng.sample(range(n), min(n, rng.randint(0, 3))))
            threes = tuple(rng.sample(range(n), min(n, rng.randint(0, 3))))
            checks.append((gammas, threes, jacobian_odd_integral(model, gammas, threes),
                           pfaffian_f(a, gammas, threes)))
        for gammas, threes, value, reference in checks:
            nonzero += reference != 0
            if value != reference:
                mismatches.append((q, a, gammas, threes, value, reference))
    return mismatches, nonzero


def custom_surface(name, q, gram, K, Sigma, cone_slope=None) -> SurfaceData:
    """Arbitrary intersection data (blow-ups etc.) on the basis e0, e1, ...; no
    wall-cone filter by default."""
    basis = tuple(f"e{i}" for i in range(len(gram)))
    return SurfaceData(name=name, q=q, basis=basis, gram=gram, K=K, Sigma=Sigma,
                       cone_slope=None if cone_slope is None else frac(cone_slope))


def surface_document(surface: SurfaceData) -> dict:
    """The surface document that carries ``surface``'s data, as the CLI reads it."""
    return {
        "schema_version": 1,
        "surface": {
            "name": surface.name,
            "q": surface.q,
            "basis": list(surface.basis),
            "gram": [[str(x) for x in row] for row in surface.gram],
            "K": list(surface.K),
            "Sigma": list(surface.Sigma),
            "cone_slope": None if surface.cone_slope is None else str(surface.cone_slope),
        },
    }


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def model_q1():
    return make_model(q=1)


@pytest.fixture
def model_q2():
    return make_model(q=2, blocks=(1, 1))
