"""Every verification check can fail: with one name that it looks up
replaced by a wrong version, it reports FAIL with a counterexample.  A check
that prices words through ``delta.evaluate`` is mutated where ``evaluate``
looks the route function up.  The kill list shows the converse: a fault in the
code both routes share, in the closed route's block product, or in the oracle's
I_c expansion and the omega rows it reads, makes a named check fail."""

import inspect
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallcross import chern, delta, graded, jacobian, oracle, verify, walls
from wallcross.jacobian import DeltaValue
from wallcross.graded import SIGMA, GradedElement, ModelSpec

from conftest import odd_zeta_k_values, omega_element, pfaffian_mismatches

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
    return lambda model: fn(model) + omega_element(model)


def _doubled(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * 2


def _zero_for_odd_parity(fn):
    """Mutant of the l = 0 oracle: 0 for a word of odd odd-count, at any degree."""
    def mutant(model, wall, word, *rest):
        if word.odd_count() % 2:
            return DeltaValue(0, "ring-oracle")
        return fn(model, wall, word, *rest)
    return mutant


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
    ("odd-words", delta, "delta_l0_odd", _shifted(_one)),
    ("odd-words", verify, "delta_oracle_l0", _zero_for_odd_parity),
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
    _fails(check, grid)


def _fails(check, grid):
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


# -- the kill list: a fault in the code both routes share, in the block product
# that the closed route reads in its place, or in the oracle's I_c expansion and
# omega's rows, fails some check ---------------------------------------------

def _edited(owner, name, old, new):
    """``owner.name`` compiled from its source with the one ``old`` in it replaced by
    ``new``, over its module's globals: a mutant made in process, no file touched."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         vars(inspect.getmodule(fn)), namespace)
    return namespace[fn.__name__]


def _install(monkeypatch, owner, name, old, new):
    """Put the mutant of ``owner.name`` in its place: on the class for a method, in
    every package module that imported it for a function."""
    original, mutant = getattr(owner, name), _edited(owner, name, old, new)
    holders = [owner] if isinstance(owner, type) else [
        module for key, module in sys.modules.items()
        if key.split(".")[0] == "wallcross" and vars(module).get(name) is original]
    for holder in holders:
        monkeypatch.setattr(holder, name, mutant)


# (mutant, the edit, the checks that catch it on SMALL)
KILL_LIST = [
    ("koszul-sign", (graded, "form_pairs",
                     "-num if (_above_parity(j) & (full ^ j)).bit_count() & 1 else num", "num"),
     ["hidden-data"]),
    ("wedge-sign", (graded, "wedge",
                    "-n1 * n2 if (koszul & j2).bit_count() & 1 else n1 * n2", "n1 * n2"),
     ["odd-words", "hidden-data"]),
    ("newton-divisor", (chern, "_newton", "seq.append(acc / m)", "seq.append(acc / (m + 1))"),
     ["oracle-l1", "segre", "simple-type"]),
    ("beta-beta-sign", (ModelSpec, "_s_product", "return (c, s_even(SIGMA))",
                        "return (-c, s_even(SIGMA))"),
     ["axioms", "oracle-l1", "segre"]),
    ("component-low", (oracle, "_l0_table", "low = wall.n_minus if component",
                       "low = wall.n_minus + 1 if component"),
     ["component-branch"]),
    # Sigma.zeta for Sigma.K would be equivalent: no value reads Sigma.K (hidden-data)
    ("sigma-k-for-sigma-zeta", (oracle, "ch_extension_bundles",
                                'sigma_z = model.pair(SIGMA, "zeta")',
                                'sigma_z = model.pair(SIGMA, "K")'),
     ["oracle-l1", "segre", "hidden-data"]),
    # mutant B: i_{be_j} omega read off column j of a_ij, so the oracle negates every
    # A-insertion, while the closed route takes F of a block J-side from its blocks
    ("transposed-interior-omega", (ModelSpec, "odd_form", "row = self.a_matrix[self._index(j)]",
                                   "row = [a[self._index(j)] for a in self.a_matrix]"),
     ["odd-words"]),
    # the block product's signs: i_{be_j} omega = -b th_(j-1) for odd j, and sorting
    ("block-partner-sign", (jacobian, "_block_odd_integral",
                            "num * (-b.numerator if j & 1 else b.numerator)",
                            "num * b.numerator"),
     ["odd-words"]),
    ("block-sort-sign", (jacobian, "_block_odd_integral",
                         "Fraction(-num if inversions & 1 else num, den)", "Fraction(num, den)"),
     ["odd-words"]),
    # the oracle's own I_c expansion: its sign only flips where omega has a term
    # th_i th_k with a generator of the word's complement between i and k, so on
    # block J-sides never, and the grid's one dense J-side is hidden-data's
    ("expansion-sign", (oracle, "_omega_top",
                        "-sub if (rest & ((1 << k) - 1)).bit_count() & 1 else sub", "sub"),
     ["hidden-data"]),
    ("expansion-factor", (oracle, "_omega_top", "t.bit_count() // 2 * top", "top"),
     ["oracle-l0", "component-branch"]),
    # omega's rows of a block input negated: every omega^j the oracles read, at l = 0
    # through I_c and at l = 1 through omega_form, moves by (-1)^j
    ("block-rows-sign", (jacobian, "build_model", "(2 * r + 1, b.numerator",
                         "(2 * r + 1, -b.numerator"),
     ["axioms", "oracle-l0", "oracle-l1", "odd-words", "segre", "hidden-data",
      "component-branch"]),
]


@pytest.mark.parametrize("edit, catchers", [entry[1:] for entry in KILL_LIST],
                         ids=[entry[0] for entry in KILL_LIST])
def test_a_fault_in_shared_code_fails_the_checks_named(edit, catchers, monkeypatch):
    _install(monkeypatch, *edit)
    for check in catchers:
        _fails(check, SMALL)


EDITS = {name: edit for name, edit, _ in KILL_LIST}


@pytest.mark.parametrize("name", ["transposed-interior-omega", "block-partner-sign"])
def test_the_default_verify_grid_catches_an_a_insertion_fault(name, monkeypatch):
    # users run verify, not tier-1: its default grid fails under each
    _install(monkeypatch, *EDITS[name])
    assert not verify.check_odd_words(verify.Grid()).passed


# the faults in vol and F that both routes share: each moves some value off the
# Pfaffian reference of tests/conftest.py, an elimination that uses no ring code
@pytest.mark.parametrize("name", ["koszul-sign", "wedge-sign", "transposed-interior-omega"])
def test_a_fault_in_vol_or_f_fails_the_pfaffian_reference(name, monkeypatch):
    _install(monkeypatch, *EDITS[name])
    mismatches, _ = pfaffian_mismatches()
    assert mismatches


def test_the_x_table_sign_read_off_n_plus_is_caught_on_odd_zeta_k_walls(monkeypatch):
    # on every verify grid zeta.K is even at l = 1, so N_+ and N_- share a parity
    # and this mutant passes all 11 checks; the odd-zeta.K walls negate each value
    _install(monkeypatch, oracle, "_x_table", "if (n - wall.n_minus) % 2:",
             "if (n - wall.n_plus) % 2:")
    values = odd_zeta_k_values()
    assert all(closed == -oracle_value != 0 for closed, oracle_value, _ in values)


def test_a_check_that_raises_is_a_fail_and_the_next_check_runs(monkeypatch):
    # a doubled literal determinant makes segre_det_determinant raise InvariantError
    # at the first stratum point, after the first model's 28 series points
    monkeypatch.setattr(verify, "hessenberg_det", _doubled(verify.hessenberg_det))
    segre, axioms = verify.run_checks(SMALL, ["segre", "axioms"])
    assert axioms.line() == "PASS model-axioms (8 points)"
    assert segre.line() == ("FAIL segre-machinery (28 points) -- raised InvariantError: literal "
                            "stratum determinant != n! s_n by recurrence at n=0")


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
