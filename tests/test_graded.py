"""Ring kernel: canonical products, Koszul signs, truncation, series ops."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross import PairingInput, Pairings, PreconditionError, build_model
from wallcross.chern import ChernData
from wallcross.errors import ModelMismatchError
from wallcross.graded import (_ZERO, EVEN_SYMBOLS, PAIRING_FIELDS, S_ONE, SIGMA, GradedElement,
                              form_pairs, integrate, integrate_forms, integrate_jacobian,
                              integration_index)
from wallcross.jacobian import PAIRING_KEYS
from wallcross.verify import (StratumClasses, inverse_unit_series, monomial_basis,
                              random_even_element, segre_det_closed, segre_det_recursive,
                              segre_sum_closed)

from conftest import exp_truncated, make_model, omega_element


def test_odd_squares_vanish(model_q2):
    for i in range(4):
        assert (model_q2.beta(i) * model_q2.beta(i)).is_zero()
        assert (model_q2.theta(i) * model_q2.theta(i)).is_zero()


def test_koszul_transposition_sign():
    # (be1 th1) * (be2 th2) = -Sigma th1 th2 when a12 = 1
    m = make_model(q=1)
    lhs = (m.beta(0) * m.theta(0)) * (m.beta(1) * m.theta(1))
    assert lhs == -1 * (m.theta(0) * m.theta(1) * m.even(SIGMA))


def test_universal_class_square():
    m = make_model(q=1)
    e2 = m.universal_class() ** 2
    assert e2 == -2 * m.even(SIGMA) * omega_element(m)


def test_structure_constant_products():
    m = make_model(q=2, blocks=(2, 3))
    assert m.beta(0) * m.beta(1) == 2 * m.even(SIGMA)
    assert m.beta(1) * m.beta(0) == -2 * m.even(SIGMA)
    assert (m.beta(0) * m.beta(2)).is_zero()  # off-block
    assert m.beta(2) * m.beta(3) == 3 * m.even(SIGMA)
    # be_i Sigma = 0, Sigma^2 = 0
    assert (m.beta(0) * m.even(SIGMA)).is_zero()
    assert (m.even(SIGMA) * m.even(SIGMA)).is_zero()


def test_even_symbol_pairings():
    m = make_model(q=1, zetaK=2, K2=8)
    assert m.even("zeta") * m.even("K") == 2 * m.point()
    assert m.even("K") * m.even("K") == 8 * m.point()
    assert (m.point() * m.even("K")).is_zero()
    assert (m.point() * m.point()).is_zero()


def test_degree3_monomials():
    m = make_model(q=1, zetaK=2)
    mixed = m.beta(0) * m.even("zeta")
    assert mixed == m.even("zeta") * m.beta(0)
    # (be_0 zeta) * be_1 = a_01 (Sigma.zeta) [S]
    assert mixed * m.beta(1) == m.pair(SIGMA, "zeta") * m.point()
    assert m.beta(1) * mixed == -1 * (mixed * m.beta(1))
    # top truncation
    assert (mixed * m.even("zeta")).is_zero()


def test_truncation_beyond_top_degrees():
    m = make_model(q=1)
    jtop = m.theta(0) * m.theta(1)
    assert (jtop * m.theta(0)).is_zero()
    assert integrate(jtop * m.point()) == 1
    assert integrate_jacobian(jtop) == 1
    assert integrate_jacobian(m.one()) == 0  # wrong degree when q > 0


def test_model_mismatch_raises():
    m1, m2 = make_model(q=1), make_model(q=1)
    with pytest.raises(ModelMismatchError):
        m1.one() * m2.one()
    with pytest.raises(ModelMismatchError):
        m1.one() + m2.one()


# the guards on the ring and the closed forms that no other test reaches
@pytest.mark.parametrize("call, error, message", [
    (lambda m: segre_sum_closed(StratumClasses(m), -1), PreconditionError,
     "segre_sum_closed needs n >= 0"),
    (lambda m: segre_det_recursive(StratumClasses(m), -1), PreconditionError,
     "segre_det needs n >= 0"),
    (lambda m: segre_det_closed(StratumClasses(m), -1), PreconditionError,
     "segre_det needs n >= 0"),
    (lambda m: m.even("x"), PreconditionError, "unregistered even symbol 'x'"),
    (lambda m: m.omega_pow(-1), PreconditionError, "negative omega power"),
    (lambda m: m.omega_pow(1) ** -1, PreconditionError, "powers must be non-negative integers"),
    (lambda m: ChernData(m, 1, (make_model(q=2).even("zeta"),)), ModelMismatchError,
     "ChernData entry over a different model"),
    # an int is no element: + and - return NotImplemented, so Python raises
    (lambda m: m.one() + 1, TypeError, "unsupported operand type(s) for +"),
    (lambda m: m.one() - 1, TypeError, "unsupported operand type(s) for -"),
], ids=["segre-sum-closed", "segre-det-recursive", "segre-det-closed", "even-x",
        "omega-pow-negative", "pow-negative", "chern-data-other-model", "add-int", "sub-int"])
def test_a_guard_raises_its_error(model_q2, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(model_q2)


def test_an_element_never_equals_a_number(model_q2):
    one = model_q2.one()
    assert (one == 1) is False and (one != 1) is True


def test_exp_truncated_examples():
    m0 = make_model(q=0, zeta2=-4)
    z = m0.even("zeta")
    assert exp_truncated(m0.zero()) == m0.one()
    assert exp_truncated(z) == m0.one() + z + Fraction(1, 2) * (z * z)
    m1 = make_model(q=1)
    two_e = 2 * m1.universal_class()
    expected = m1.one() + two_e + 2 * m1.universal_class() ** 2
    assert exp_truncated(two_e) == expected
    with pytest.raises(PreconditionError):
        exp_truncated(m1.one())


def test_inverse_unit_series_examples():
    m0 = make_model(q=0)
    assert inverse_unit_series(m0.one()) == m0.one()
    c1 = m0.even("zeta")
    inv = inverse_unit_series(m0.one() + c1)
    assert inv == m0.one() - c1 + c1 * c1
    with pytest.raises(PreconditionError):
        inverse_unit_series(c1)


def test_integrate_omega_examples():
    m = make_model(q=1)
    assert integrate(m.one()) == 0  # wrong degree when q > 0
    assert integrate(omega_element(m) * m.point()) == 1
    m2 = make_model(q=2, blocks=(1, 1))
    assert integrate(m2.omega_pow(2) * m2.point()) == 2


def test_repr_orders_monomials_by_degree_then_generator_indices():
    m = make_model(q=1)
    elem = omega_element(m) * Fraction(3, 2) - m.even("K")
    assert repr(elem) == "(-1)*K + (3/2)*th1*th2"
    # monomials of one degree sort by their generator indices, not by bitmask
    m2 = make_model(q=2)
    elem = m2.theta(1) * m2.theta(2) + m2.theta(0) * m2.theta(3)
    assert repr(elem) == "(1)*th1*th4 + (1)*th2*th3"


# -- property tests ----------------------------------------------------

def _models():
    return [make_model(q=0), make_model(q=1), make_model(q=2, blocks=(2, 3))]


@st.composite
def homogeneous_pair(draw):
    model_idx = draw(st.integers(0, 2))
    model = _models()[model_idx]
    top = 2 * model.q + 4
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    d1 = draw(st.integers(0, top))
    d2 = draw(st.integers(0, top))
    a, b = random_even_element(model, d1, rng), random_even_element(model, d2, rng)
    return model, a, d1, b, d2


@settings(max_examples=120, deadline=None)
@given(homogeneous_pair())
def test_supercommutativity(data):
    model, a, d1, b, d2 = data
    sign = -1 if (d1 % 2) and (d2 % 2) else 1
    assert a * b == sign * (b * a)


@settings(max_examples=80, deadline=None)
@given(homogeneous_pair(), st.integers(0, 10**6))
def test_associativity(data, seed):
    model, a, _, b, _ = data
    c = random_even_element(model, random.Random(seed).randint(0, 2 * model.q + 4),
                            random.Random(seed + 1))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10**6))
def test_exp_of_negative_is_inverse(model_idx, seed):
    model = _models()[model_idx]
    rng = random.Random(seed)
    a = random_even_element(model, 2, rng) + random_even_element(model, 4, rng)
    assert exp_truncated(a) * exp_truncated(-a) == model.one()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_unit_inverse(seed):
    model = make_model(q=2, blocks=(1, 2))
    rng = random.Random(seed)
    u = model.one() + random_even_element(model, 2, rng) + random_even_element(model, 4, rng)
    assert u * inverse_unit_series(u) == model.one()


def test_monomial_basis_degrees():
    m = make_model(q=2, blocks=(1, 1))
    for deg in range(2 * m.q + 4 + 1):
        for elem in monomial_basis(m, deg):
            assert elem.total_degrees() == [deg]


# -- the bitmask kernel against the sorted-tuple kernel it replaced ------

def _merge_odd(t1, t2):
    """Exterior product of two sorted index tuples: (sign, merged) or (0, None)."""
    sign, out = 1, []
    i = j = 0
    while i < len(t1) and j < len(t2):
        if t1[i] == t2[j]:
            return 0, None
        if t1[i] < t2[j]:
            out.append(t1[i])
            i += 1
        else:
            out.append(t2[j])
            j += 1
            if (len(t1) - i) & 1:
                sign = -sign
    return sign, tuple(out) + t1[i:] + t2[j:]


def _reference_mul(a, b):
    """a * b with J-monomials as sorted index tuples and the sign from merging them."""
    model = a.model

    def tuple_terms(x):
        return {(tuple(i for i in range(2 * model.q) if j >> i & 1), s): c
                for (j, s), c in x.terms.items()}

    acc = {}
    for (j1, s1), c1 in tuple_terms(a).items():
        for (j2, s2), c2 in tuple_terms(b).items():
            sign, jm = _merge_odd(j1, j2)
            if jm is None:
                continue
            sp = model._s_product(s1, s2)
            if sp is None:
                continue
            if s1[0] % 2 and len(j2) % 2:
                sign = -sign
            key = (sum(1 << i for i in jm), sp[1])
            acc[key] = acc.get(key, 0) + sign * c1 * c2 * sp[0]
    return GradedElement(model, {k: v for k, v in acc.items() if v})


FULL_A = ((0, 1, -2, 0, 1, 3), (-1, 0, 1, 1, 0, -1), (2, -1, 0, 2, -3, 0),
          (0, -1, -2, 0, 1, 1), (-1, 0, 3, -1, 0, 2), (-3, 1, 0, -1, -2, 0))


def _kernel_models():
    # K pairs with zeta, K and alpha, so one even symbol meets several partners
    pairs = dict(zetaK=2, K2=8, Kalpha=-1, sigmaK=3, sigmaZeta=1, sigmaAlpha=2)
    return [make_model(q=0, **pairs), make_model(q=1, **pairs),
            make_model(q=2, blocks=(2, 3), **pairs),
            make_model(q=3, matrix=FULL_A, **pairs)]


def _random_mixed(model, rng, per_s_degree=3):
    """A sum of monomials of every S-degree (1, be, symbols, be.sym, [S]) and mixed parity."""
    out = model.zero()
    for s_degree in range(5):
        monos = [m for j_degree in range(2 * model.q + 1)
                 for m in model.monomials(j_degree, s_degree)]
        for mono in rng.sample(monos, min(per_s_degree, len(monos))):
            out = out + mono * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return out


def test_bitmask_kernel_matches_sorted_tuple_reference():
    rng = random.Random(20261018)
    for model in _kernel_models():
        nonzero = 0
        for _ in range(40):
            a, b = _random_mixed(model, rng), _random_mixed(model, rng)
            assert a * b == _reference_mul(a, b)
            assert b * a == _reference_mul(b, a)
            nonzero += not (a * b).is_zero()
        assert nonzero >= 30
        # dense products of odd classes, where the Koszul signs pile up
        u = model.universal_class() + omega_element(model)
        assert u * u * u == _reference_mul(_reference_mul(u, u), u)


def _complements(model, mono, s_degree):
    """The monomials of S-degree ``s_degree`` whose J-part completes that of ``mono``."""
    ((j, _),) = mono.terms
    return [m for m in model.monomials(2 * model.q - j.bit_count(), s_degree)
            if model.j_top ^ j in {k for k, _ in m.terms}]


def _integrable_pair(model, rng):
    """Two random mixed elements, padded so that their product reaches the top
    class: every complement of S-degree 4 - s, so an even symbol meets each
    of its partners."""
    a, b = _random_mixed(model, rng), _random_mixed(model, rng)
    for s_degree in range(5):
        monos = [m for j_degree in range(2 * model.q + 1)
                 for m in model.monomials(j_degree, s_degree)]
        if not monos:
            continue
        mono = rng.choice(monos)
        a = a + mono * rng.randint(1, 3)
        for other in (0, 4 - s_degree):
            for partner in _complements(model, mono, other):
                b = b + partner * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return a, b


def test_the_odd_form_integral_is_the_ring_integral():
    # the odd part th_g... i_{be_j} omega... as an int form, against omega^k's kept
    # int form, with no product built: the ring's product and integral are the
    # reference, on the kernel models, a J-side with rational blocks and a dense one
    # whose rows have different denominators, for every k <= q + 1
    rng = random.Random(77)
    rational = make_model(q=2, blocks=(Fraction(1, 2), 3))
    dense = make_model(q=2, matrix=_random_a_matrix(random.Random(3), 2, "rational"))
    for model in _kernel_models() + [rational, dense]:
        n, hits = 2 * model.q, 0
        for _ in range(30):
            gammas = rng.sample(range(n), rng.randint(0, min(n, 3)))
            threes = rng.sample(range(n), rng.randint(0, min(n, 3)))
            c = model.one()
            for i in gammas:
                c = c * model.theta(i)
            for j in threes:
                c = c * model.interior_omega(j)
            den, nums = model.odd_form(gammas, threes)
            assert {(j, S_ONE): Fraction(num, den) for j, num in nums.items()} == dict(c.terms)
            k = model.q - (len(gammas) + len(threes)) // 2
            for j in range(max(k, 0), k + 2):
                value = Fraction(*integrate_forms(form_pairs(model, (den, nums)),
                                                  model.omega_form(j)))
                assert value == integrate_jacobian(c * model.omega_pow(j)), (model, j)
                hits += value != 0
        assert hits >= 5, model


def test_the_integration_forms_are_reduced_and_integrate_the_product():
    # the one integration loop over int forms, on the kernel models and on one
    # whose a_ij and pairings are not integral
    rng = random.Random(78)
    rational = make_model(q=2, blocks=(Fraction(1, 2), 3), alpha2=Fraction(-1, 3),
                          zetaK=Fraction(2, 5), Kalpha=Fraction(-3, 2), K2=8, sigmaK=3,
                          sigmaZeta=1, sigmaAlpha=Fraction(2, 3))
    for model in _kernel_models() + [rational]:
        hits = 0
        for _ in range(20):
            a, b = _integrable_pair(model, rng)
            # a's J-part, its part over the S-word 1, is empty when its scalar terms
            # cancel, and then so are its pairs
            den, part = integration_index({k: c for k, c in a._terms.items() if k[1] == S_ONE})
            pairs = form_pairs(model, (den, part.get(S_ONE, {})))
            index = integration_index(b._terms)
            for den, nums in ((pairs[0], [n for _, n in pairs[1]]),
                              (index[0], [n for i in index[1].values() for n in i.values()])):
                assert type(den) is int and den > 0 and {type(n) for n in nums} <= {int}
                assert math.gcd(den, *nums) == 1
            value = Fraction(*integrate_forms(pairs, (index[0], index[1].get(S_ONE, {}))))
            assert value == integrate_jacobian(a * b)
            hits += value != 0
        assert hits >= 12, model
    assert rational.a_matrix[0][1] == Fraction(1, 2)


def test_with_pairings_matches_a_fresh_model():
    # a sweep shares one J-side and swaps only the pairings; every product and
    # omega power must be what a model built from scratch gives
    rng = random.Random(5)
    base = make_model(q=2, blocks=(2, 3), sigmaZeta=0, sigmaAlpha=0)
    base.omega_pow(2)
    nonzero = 0
    for pairs in (dict(sigmaZeta=3, alpha2=Fraction(-1, 2)), dict(K2=-4, sigmaK=5)):
        fresh = make_model(q=2, blocks=(2, 3), **pairs)
        swapped = base.with_pairings(fresh.pairings)
        assert swapped.pairings is fresh.pairings
        assert swapped.omega_pow(1).model is swapped
        assert swapped.a_matrix is base.a_matrix and swapped._s_table is not base._s_table
        for p in range(3):
            assert dict(swapped.omega_pow(p).terms) == dict(fresh.omega_pow(p).terms)
        for k in range(20):
            # the same draws on both models: the monomial bases list alike
            x, fx, y, fy = (random_even_element(m, deg, random.Random(seed))
                            for deg, seed in ((rng.choice((1, 2, 3)), k),
                                              (rng.choice((1, 2, 3, 4)), k + 100))
                            for m in (swapped, fresh))
            assert dict((x * y).terms) == dict((fx * fy).terms)
            nonzero += not (x * y).is_zero()
    assert nonzero >= 10
    # a model reads its pairings' own fields: both orders of each pair alike, each
    # of the nine fields once, and Sigma.Sigma = 0
    pairs = [(s1, s2) for s1 in EVEN_SYMBOLS for s2 in EVEN_SYMBOLS]
    assert set(PAIRING_FIELDS) == set(pairs) and PAIRING_FIELDS[SIGMA, SIGMA] is None
    assert {PAIRING_FIELDS[p] for p in pairs} - {None} == set(PAIRING_KEYS)
    for s1, s2 in pairs:
        assert swapped.pair(s1, s2) is swapped.pair(s2, s1)
    assert swapped.pair(SIGMA, SIGMA) == 0
    assert swapped.pair("K", SIGMA) == 5 and swapped.pair("K", "K") == -4


def _random_a_matrix(rng, q, kind):
    """A random antisymmetric 2q x 2q matrix: "blocks" (nonzero a_(2i, 2i+1)
    only), "full" int entries, "rational" entries, or "zero"."""
    n = 2 * q
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "zero" or (kind == "blocks" and (i % 2 or j != i + 1)):
                continue
            if kind == "blocks":
                v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
            else:
                den = rng.choice((1, 2, 3, 4, 6)) if kind == "rational" else 1
                v = Fraction(rng.randint(-3, 3), den)
            a[i][j], a[j][i] = v, -v
    return a


def test_omega_powers_are_the_sequential_kernel_products():
    # omega^k is raised in ints over the a_ij's common denominator; it must be
    # omega * ... * omega from the ring kernel, term for term and as Fractions
    rng = random.Random(2024)
    nonzero = 0
    for q in range(5):
        for kind in ("blocks", "full", "rational", "zero"):
            for _ in range(3 if q <= 3 else 1):
                model = make_model(q, matrix=_random_a_matrix(rng, q, kind))
                omega = omega_element(model)
                for k in range(q + 2):
                    power = model.omega_pow(k)
                    assert power == omega ** k, (q, kind, k)
                    assert {type(c) for c in power.terms.values()} <= {Fraction}
                    nonzero += k == q and not power.is_zero()
                assert model.omega_pow(q + 1).is_zero()
    assert nonzero >= 30


def test_with_pairings_models_share_one_omega_power_cache_filled_in_either_order():
    rng = random.Random(77)
    for q in (2, 3, 4):
        for kind in ("blocks", "rational"):
            for first in range(2):
                base = make_model(q, matrix=_random_a_matrix(rng, q, kind))
                sibling = base.with_pairings(Pairings(zeta2=-1, sigmaZeta=2))
                assert sibling.cache is base.cache
                early, late = (base, sibling) if first == 0 else (sibling, base)
                early.omega_pow(rng.randint(2, q))
                late.omega_pow(q + 1)
                # one list of int forms (den, {j: num}) for the J-side, omega^0..omega^(q+1),
                # raised from the sparse rows of omega that build_model keeps
                assert list(base.cache) == [("omega rows",), ("omega",)]
                powers = base.cache[("omega",)]
                assert len(powers) == q + 2
                assert {type(x) for den, nums in powers for x in (den, *nums, *nums.values())} \
                    == {int}
                for model in (base, sibling):
                    omega = omega_element(model)
                    for k in range(q + 2):
                        power = model.omega_pow(k)
                        assert power.model is model and power == omega ** k, (q, kind, first, k)


def test_a_matrix_antisymmetry_is_exact():
    # PairingInput checks the a_ij once, on reduced numerators and denominators;
    # a model takes its matrix as given
    def matrix_input(matrix):
        return PairingInput(q=len(matrix) // 2, pairings=Pairings(), a_matrix=matrix)

    half = Fraction(1, 2)
    for matrix in (((0, half), (Fraction(-1, 3), 0)),  # -a_10 differs from a_01
                   ((1, 0), (0, 0)),  # a nonzero diagonal
                   ((0, 1), (-1, -half)),
                   # one object at a_ij and a_ji, or on the diagonal, beside shared zeros
                   ((_ZERO, half), (half, _ZERO)), ((half, _ZERO), (_ZERO, -half)),
                   ((_ZERO, _ZERO, half, _ZERO), (_ZERO, _ZERO, _ZERO, _ZERO),
                    (-half, _ZERO, _ZERO, _ZERO), (_ZERO, _ZERO, _ZERO, half))):
        with pytest.raises(PreconditionError, match="antisymmetric"):
            matrix_input(matrix)
    inp = matrix_input(((0, Fraction(2, 4)), ("-1/2", 0)))
    assert inp.a_matrix == ((0, half), (-half, 0))
    assert {type(x) for row in inp.a_matrix for x in row} == {Fraction}
    model = build_model(inp)
    assert model.a_matrix is inp.a_matrix
    assert model.omega_pow(1) == model.theta(0) * model.theta(1) * half
    for matrix in (((0, 1),), ((0, 1), (-1,)), ((0, 1, 0), (-1, 0, 0))):
        with pytest.raises(PreconditionError, match="a_matrix must be 2x2 for q=1"):
            PairingInput(q=1, pairings=Pairings(), a_matrix=matrix)


# a non-integral generator index is a typed error; an integral one of another
# type names the same generator

def test_theta_reads_its_index_as_an_exact_int(model_q2):
    with pytest.raises(PreconditionError, match="generator index must be an integer"):
        model_q2.theta(0.5)
    assert model_q2.theta(1.0) == model_q2.theta(Fraction(1)) == model_q2.theta(1)


def test_beta_reads_its_index_as_an_exact_int(model_q2):
    with pytest.raises(PreconditionError, match="generator index must be an integer"):
        model_q2.beta(Fraction(3, 2))
    assert model_q2.beta(1.0) == model_q2.beta(1)
    assert repr(model_q2.beta(1.0)) == "(1)*be2"


def test_interior_omega_reads_its_index_as_an_exact_int(model_q2):
    with pytest.raises(PreconditionError, match="generator index must be an integer"):
        model_q2.interior_omega(0.5)
    assert model_q2.interior_omega(3.0) == model_q2.interior_omega(3)
    with pytest.raises(PreconditionError, match="out of range"):
        model_q2.interior_omega(4.0)
