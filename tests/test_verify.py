"""Every verification check can fail: with one name that it looks up
replaced by a wrong version, it reports FAIL with a counterexample.  A check
that prices words through ``delta.evaluate`` is mutated where ``evaluate``
looks the route function up."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallcross import delta, verify, walls
from wallcross.graded import SIGMA, GradedElement, ModelSpec

SMALL = verify.Grid(q_max=1, d_max=5, r_max=1, pair_bound=1, sweep_bound=6)


def _shifted(by):
    """Mutant of a delta evaluation: ``by(*args)`` added to its value."""
    def mutate(fn):
        def mutant(*args, **kwargs):
            out = fn(*args, **kwargs)
            return replace(out, value=out.value + by(*args))
        return mutant
    return mutate


def _sigma_k(model, *rest):
    return model.pair(SIGMA, "K")


def _one(*args):
    return 1


def _negated(fn):
    return lambda *args: -fn(*args)


def _n_plus_off_by_one(fn):
    def mutant(*args):
        params = fn(*args)
        return params._replace(n_plus=params.n_plus + 1)
    return mutant


def _with_omega(fn):
    return lambda model: fn(model) + model.omega_class()


def _doubled(fn):
    return lambda *args: fn(*args) * 2


def _sigma_zeta_for_sigma_k(fn):
    def mutant(model, s1, s2):
        return fn(model, SIGMA, "zeta") if {s1, s2} == {SIGMA, "K"} else fn(model, s1, s2)
    return mutant


# (check, module or class the name is looked up in, that name, mutant of it); the
# last two fault a fact at its one source: the pairing field ``ModelSpec.pair``
# reads, and the complex-orientation sign that a wall keeps in its field
MUTANTS = [
    ("identities", verify, "wall_sign", _negated),
    ("identities", verify, "wall_params", _n_plus_off_by_one),
    ("axioms", verify, "e_alpha", _with_omega),
    ("oracle-l0", delta, "delta_oracle_l0", _shifted(_sigma_k)),
    ("oracle-l0", delta, "delta_l0_odd", _shifted(_one)),
    ("oracle-l1", delta, "delta_oracle_l1", _shifted(_sigma_k)),
    ("odd-words", verify, "delta_l0_odd", _shifted(_one)),
    ("segre", verify, "segre_det_recursive", _doubled),
    ("leading", delta, "delta_leading", _shifted(_one)),
    ("hidden-data", delta, "delta_oracle_l0", _shifted(_sigma_k)),
    ("scale", delta, "delta_oracle_l0", _shifted(_sigma_k)),
    ("simple-type", delta, "delta_l1", _shifted(_one)),
    ("component-branch", verify, "delta_oracle_l0", _shifted(_sigma_k)),
    ("component-branch", ModelSpec, "pair", _sigma_zeta_for_sigma_k),
    ("oracle-l0", walls, "complex_orientation_sign", _negated),
]


def _fails_under(check, module, name, mutate, grid, monkeypatch):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = verify.ALL_CHECKS[check](grid)
    assert not result.passed
    assert result.points >= 1 and result.detail
    assert result.line().startswith("FAIL ")


def test_every_check_has_a_mutant():
    assert {check for check, _, _, _ in MUTANTS} == set(verify.ALL_CHECKS)


@pytest.mark.parametrize("check, module, name, mutate", MUTANTS,
                         ids=[f"{check}-{name}" for check, _, name, _ in MUTANTS])
def test_check_fails_under_mutant(check, module, name, mutate, monkeypatch):
    _fails_under(check, module, name, mutate, SMALL, monkeypatch)


def test_oracle_l1_fails_on_a_grid_with_only_the_w_variant_slice(monkeypatch):
    # with d <= 3 no l = 1 wall of the main grid fits, so only the w-variant
    # slice runs; its Sigma.K must be nonzero for a Sigma.K error to show
    tiny = verify.Grid(q_max=1, d_max=3, r_max=1, pair_bound=1, sweep_bound=6)
    assert verify.check_oracle_l1(tiny).points == 4
    _fails_under("oracle-l1", delta, "delta_oracle_l1", _shifted(_sigma_k), tiny, monkeypatch)


def test_segre_machinery_makes_a_pinned_number_of_ring_products(monkeypatch):
    # each closed form takes one StratumClasses per model, so every power of 4 e_zeta
    # and base, every recursion step and every Newton step of the stratum data is
    # multiplied once, not once per n (2,648 products before); the l = 1 extension
    # data is the powers of each line class, with no factorial rescales of a split
    # exponential (1,470 before); counted by call
    calls = []
    real = GradedElement.__mul__

    def counted(self, other):
        calls.append(None)
        return real(self, other)
    monkeypatch.setattr(GradedElement, "__mul__", counted)
    result = verify.check_segre(verify.Grid())
    assert (result.passed, result.points, len(calls)) == (True, 105, 1420)


def _vandermonde_coeffs(xs, ys):
    """The coefficients of the polynomial through (xs, ys), lowest first, by
    Gauss-Jordan elimination on the Vandermonde system: the O(n^3) reference."""
    n = len(xs)
    rows = [[Fraction(x) ** j for j in range(n)] + [Fraction(y)] for x, y in zip(xs, ys)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(st.integers(-20, 20), RATIONAL), unique=True, max_size=12)
       .flatmap(lambda xs: st.tuples(st.just(xs), st.lists(RATIONAL, min_size=len(xs),
                                                            max_size=len(xs)))))
def test_poly_coeffs_is_the_vandermonde_solve(points):
    xs, ys = points
    coeffs = verify.poly_coeffs(xs, ys)
    assert coeffs == _vandermonde_coeffs(xs, ys)
    assert all(type(c) is Fraction for c in coeffs)
