"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check is exact (Fraction equality, zero tolerance); the
grids match the stated verification ranges, and each stays well inside its
runtime budget.
"""

from wallcross.verify import (Grid, check_component_branch, check_hidden_data,
                              check_leading, check_model_axioms,
                              check_odd_words, check_oracle_l0,
                              check_oracle_l1, check_scale_invariance,
                              check_segre, check_simple_type,
                              check_structural_identities)

FULL = Grid(q_max=3, d_max=8, r_max=2, pair_bound=3, sweep_bound=20)


def _criterion(number, name, result, points):
    """Report one criterion; it passes on every point of its grid, whose size
    is pinned so that a shrinking grid fails here."""
    status = "PASS" if result.passed else f"FAIL -- {result.detail}"
    print(f"[acceptance] criterion {number:02d} {name}: {status} ({result.points} points)")
    assert result.passed, result.detail
    assert result.points == points, (name, result.points)


def test_criterion_01_oracle_equivalence_l0():
    """q in 0..3, r in 0..2, d <= 8, pairings in -3..3, several vol block forms; < 2 min."""
    _criterion(1, "oracle equivalence at l_zeta = 0", check_oracle_l0(FULL), 55686)


def test_criterion_02_oracle_equivalence_l1():
    """q in 0..2, r in 0..1, d <= 9 (plus a q = 2 slice beyond it), zeta^2 in {-4, -8}; < 5 min."""
    grid = Grid(q_max=2, d_max=9, r_max=1, pair_bound=3, sweep_bound=20)
    _criterion(2, "oracle equivalence at l_zeta = 1", check_oracle_l1(grid), 2540)


def test_criterion_03_odd_class_agreement():
    """q in {1, 2}, all insertion words of total odd count <= 4; < 2 min."""
    _criterion(3, "odd-insertion agreement", check_odd_words(FULL), 6728)


def test_criterion_04_segre_machinery():
    """Determinants vs series inversion, stratum sums, recursion identities; < 1 min."""
    _criterion(4, "Segre machinery", check_segre(FULL), 105)


def test_criterion_05_structural_identities():
    """Dimension and sign identities over the exhaustive sweep (|values| <= 20); < 10 s."""
    _criterion(5, "structural identities", check_structural_identities(FULL), 506330)


def test_criterion_06_leading_term_congruence():
    """delta minus leading terms divisible by a^(d-2r-2l-q+2), by interpolation; < 1 min."""
    _criterion(6, "leading-term congruence", check_leading(FULL), 46)


def test_criterion_07_hidden_data_independence():
    """a_ij at fixed vol, Sigma.K / K.alpha changes, K -> -K; < 2 min."""
    _criterion(7, "hidden-data independence", check_hidden_data(FULL), 9)


def test_criterion_08_scale_invariance():
    """Sigma -> r Sigma with vol -> r^-q vol for r in {1, 2, 3}; exact."""
    _criterion(8, "Sigma-rescaling invariance", check_scale_invariance(FULL), 12)


def test_criterion_09_model_axioms():
    """e_S = 0, E^3 = E^4 = 0, e_alpha = -2 (Sigma.alpha) omega in every model."""
    _criterion(9, "model axioms", check_model_axioms(FULL), 8)


def test_criterion_10_simple_type_failure():
    """One l = 1 instance with delta(x alpha^(d-2)) != 4 delta(alpha^d)."""
    _criterion(10, "simple-type failure witness", check_simple_type(FULL), 1)


def test_supplement_component_branch():
    """Extra-component substitution agrees with the unified table where both apply."""
    _criterion(11, "component-branch agreement (supplement)",
               check_component_branch(FULL), 252)
