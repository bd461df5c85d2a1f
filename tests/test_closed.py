"""Closed-form evaluators: pinned values, stratum Segre identities, leading terms."""

import itertools
import math
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wallcross import (InsertionWord, InvariantError, Pairings, PreconditionError, RegimeError,
                       WallGeometry, volume)
from wallcross.chern import ch_direct_sum, ch_dual, segre_from_ch
from wallcross.closed import _l0_sum, delta_l0, delta_l0_odd, delta_l1, delta_leading
from wallcross.jacobian import DeltaValue, e_alpha, e_zeta, jacobian_odd_integral
from wallcross.oracle import ch_extension_bundles
from wallcross.verify import (StratumClasses, segre_det_closed, segre_det_determinant,
                              segre_det_recursive, segre_sum_closed, valid_zeta_k)

from conftest import make_model, reversed_wall


def pow0(base, n):
    """base**n, zero for a negative exponent."""
    return Fraction(base) ** n if n >= 0 else Fraction(0)


def comb0(n, k):
    """Binomial coefficient, zero whenever the arguments fall out of range."""
    return math.comb(n, k) if 0 <= k <= n else 0


def test_binomial_and_power_conventions():
    # a sum over a negative number of alpha insertions is empty: delta_l1's
    # S(s - 1) and S(s - 2) read it at s = 0 and 1
    assert _l0_sum(-1, 2, 2, Fraction(3), Fraction(1), Fraction(1)) == (0, 1)
    assert _l0_sum(-2, 0, 0, Fraction(3), Fraction(1), Fraction(1)) == (0, 1)
    assert _l0_sum(0, 2, 2, Fraction(0), Fraction(1), Fraction(2)) == (4, 1)
    wall = WallGeometry.build(p1=-8, q=1, zeta2=-4, zetaK=2)
    pr = Pairings(zeta2=-4, zetaK=2, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2, alpha2=-1)
    assert delta_l1(wall, pr, wall.d // 2, 1).value != 0
    # x^r alpha^(d - 2r) with 2r > d is no word: it was priced 0
    with pytest.raises(PreconditionError, match="needs 2r <= d, got r = 5, d = 8"):
        delta_l1(wall, pr, wall.d // 2 + 1, 1)


def test_a_delta_value_holds_a_fraction_and_replace_keeps_it_one():
    value = DeltaValue(3, "closed-form")
    assert type(value.value) is Fraction and value.value == 3 and value.modulus_exponent is None
    half = Fraction(1, 2)
    assert DeltaValue(half, "ring-oracle").value is half
    assert (DeltaValue("-7/4", "leading-term", 5)
            == DeltaValue(Fraction(-7, 4), "leading-term", modulus_exponent=5))
    moved = replace(DeltaValue(half, "leading-term", 3), value=2)
    assert moved == DeltaValue(Fraction(2), "leading-term", 3) and type(moved.value) is Fraction
    with pytest.raises(FrozenInstanceError):
        value.value = Fraction(1)
    with pytest.raises(PreconditionError, match="not an exact rational"):
        DeltaValue(None, "closed-form")


def test_delta_l0_spec_values():
    wall = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1)
    pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1)
    assert delta_l0(wall, pr, 0, 1).value == -10
    wall0 = WallGeometry.build(p1=-4, q=0, zeta2=-4, zetaK=0)
    pr0 = Pairings(zeta2=-4, zetaK=0, zetaAlpha=2)
    assert delta_l0(wall0, pr0, 0, 1).value == -1
    with pytest.raises(RegimeError):
        delta_l0(WallGeometry.build(p1=-8, q=0, zeta2=-4, zetaK=0), pr0, 0, 1)


def test_delta_l0_q0_single_term_shape():
    # q = 0 collapses to eps (-1)^(r+d) 2^(-d) (zeta.alpha)^(d-2r)
    for d, r, za in ((3, 0, 3), (5, 1, -2), (6, 2, 5)):
        wall = WallGeometry.build(p1=-(d + 3), q=0, zeta2=-(d + 3),
                                  zetaK=(d + 3) % 2)
        pr = Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK, zetaAlpha=za)
        expected = (wall.sign_wall * (-1) ** ((r + d) % 2)
                    * Fraction(2) ** (-d) * Fraction(za) ** (d - 2 * r))
        assert delta_l0(wall, pr, r, 1).value == expected


def test_delta_l0_odd_reduces_to_plain_word():
    wall = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1)
    model = make_model(q=1, zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1)
    pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1)
    word = InsertionWord(r=0, s=wall.d)
    assert delta_l0_odd(wall, model, word).value == delta_l0(wall, pr, 0, 1).value


# small rationals, zero twice as likely as any other value
SMALL = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))


@st.composite
def l0_walls_and_models(draw):
    """An l = 0 wall of q <= 4 and a model over it: block or a_matrix J-side, either
    possibly degenerate (fewer blocks than q, zero matrix entries), rational pairings."""
    q, zeta2 = draw(st.integers(0, 4)), draw(st.integers(-10, -1))
    zeta_ks = valid_zeta_k(q, zeta2, 0)
    assume(zeta_ks)
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=draw(st.sampled_from(zeta_ks)))
    pairings = dict(zeta2=zeta2, zetaK=wall.zetaK, zetaAlpha=draw(SMALL), sigmaZeta=draw(SMALL),
                    sigmaAlpha=draw(SMALL), sigmaK=draw(SMALL))
    if draw(st.booleans()):
        blocks = tuple(draw(st.lists(SMALL.filter(bool), max_size=q)))
        return wall, make_model(q=q, blocks=blocks, **pairings)
    n = 2 * q
    upper = draw(st.lists(SMALL, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    entries = {(i, j): upper.pop() for i in range(n) for j in range(i + 1, n)}
    matrix = tuple(tuple(entries[i, j] if i < j else -entries[j, i] if i > j else 0
                         for j in range(n)) for i in range(n))
    return wall, make_model(q=q, matrix=matrix, **pairings)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(l0_walls_and_models())
def test_delta_l0_is_the_plain_word_case_of_delta_l0_odd(wall_and_model):
    # x^r alpha^s is the word whose odd part has F = q! vol
    wall, model = wall_and_model
    for r in range(wall.d // 2 + 1):
        word = InsertionWord(r=r, s=wall.d - 2 * r)
        assert (delta_l0(wall, model.pairings, r, volume(model))
                == delta_l0_odd(wall, model, word)), (wall, r)


def test_delta_l0_odd_parity_and_pin():
    wall = WallGeometry.build(p1=-3, q=1, zeta2=-3, zetaK=1)
    model = make_model(q=1, zeta2=-3, zetaK=1, zetaAlpha=3, sigmaZeta=1,
                       sigmaAlpha=2, sigmaK=1, K2=0, Kalpha=2, alpha2=1)
    # a word of odd odd-count has odd degree, so no wall admits it: it was priced 0
    odd_parity = InsertionWord(r=0, s=1, gammas=(0,))
    with pytest.raises(PreconditionError, match=r"alpha\^1 d1 has degree 5, not 2d = 6"):
        delta_l0_odd(wall, model, odd_parity)
    word = InsertionWord(r=0, s=1, gammas=(0,), threes=(0,))
    assert delta_l0_odd(wall, model, word).value == Fraction(3, 2)
    with pytest.raises(PreconditionError):
        delta_l0_odd(wall, model, InsertionWord(r=0, s=2, gammas=(0,), threes=(0,)))


def test_delta_l0_odd_word_order_sign():
    wall = WallGeometry.build(p1=-4, q=1, zeta2=-4, zetaK=0)  # d = 4, word degree 8
    model = make_model(q=1, zeta2=-4, zetaK=0, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=1)
    w12 = InsertionWord(r=0, s=1, gammas=(0, 1))
    w21 = InsertionWord(r=0, s=1, gammas=(1, 0))
    assert delta_l0_odd(wall, model, w12).value == -delta_l0_odd(wall, model, w21).value


def test_delta_l1_spec_values_and_flips_pins():
    wall = WallGeometry.build(p1=-8, q=0, zeta2=-4, zetaK=0)
    pr = Pairings(zeta2=-4, zetaK=0, zetaAlpha=2, K2=8, alpha2=-1)
    assert delta_l1(wall, pr, 0, 1).value == 12
    assert delta_l1(wall, pr, 1, 1).value == Fraction(-1, 2)
    # regression pins confirmed against the ring oracle (d = 9 wall)
    wall9 = WallGeometry.build(p1=-12, q=0, zeta2=-8, zetaK=0)
    pr9 = Pairings(zeta2=-8, zetaK=0, zetaAlpha=2, K2=8, alpha2=-1)
    assert [delta_l1(wall9, pr9, r, 1).value for r in (0, 1, 2)] == \
        [-32, Fraction(13, 2), Fraction(-7, 4)]
    wall18 = WallGeometry.build(p1=-8, q=1, zeta2=-4, zetaK=0)
    pr18 = Pairings(zeta2=-4, zetaK=0, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2,
                    sigmaK=1, K2=0, Kalpha=2, alpha2=1)
    assert [delta_l1(wall18, pr18, r, 1).value for r in (0, 1)] == \
        [Fraction(-45927, 2), Fraction(-405, 2)]
    with pytest.raises(RegimeError):
        delta_l1(WallGeometry.build(p1=-4, q=0, zeta2=-4, zetaK=0), pr, 0, 1)


def test_delta_sign_oddness_and_polynomial_degree():
    # value flips with eps, and is a polynomial of the displayed degree in zeta.alpha
    wall = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1)
    flipped = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1,
                                 zetaW=-1, w2=-5, wK=3)  # u2 = -1 -> eps flips
    pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1)
    assert wall.sign_wall == -flipped.sign_wall
    assert delta_l0(wall, pr, 0, 1).value == -delta_l0(flipped, pr, 0, 1).value
    # finite differences: degree in zeta.alpha is at most d - 2r
    wall5 = WallGeometry.build(p1=-8, q=0, zeta2=-8, zetaK=0)
    vals = []
    for za in range(0, 8):
        pr5 = Pairings(zeta2=-8, zetaK=0, zetaAlpha=za)
        vals.append(delta_l0(wall5, pr5, 0, 1).value)
    for _ in range(wall5.d + 1):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    assert all(v == 0 for v in vals)
    # same statements at l = 1
    wall_l1 = WallGeometry.build(p1=-8, q=0, zeta2=-4, zetaK=0)
    flip_l1 = WallGeometry.build(p1=-8, q=0, zeta2=-4, zetaK=0,
                                 zetaW=-4, w2=-8, wK=2)
    assert wall_l1.sign_wall == -flip_l1.sign_wall
    vals1 = []
    for za in range(0, wall_l1.d + 3):
        pr1 = Pairings(zeta2=-4, zetaK=0, zetaAlpha=za, K2=8, alpha2=-1)
        vals1.append(delta_l1(wall_l1, pr1, 1, 1).value)
        assert delta_l1(flip_l1, pr1, 1, 1).value == -vals1[-1]
    for _ in range(wall_l1.d - 1):
        vals1 = [b - a for a, b in zip(vals1, vals1[1:])]
    assert all(v == 0 for v in vals1)  # degree at most d - 2r = d - 2


def _l1_model(q=1):
    return make_model(q=q, zeta2=-4, zetaK=2, zetaAlpha=2, sigmaZeta=1,
                      sigmaAlpha=1, sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)


def test_segre_sum_closed_small_n():
    m = _l1_model()
    st = StratumClasses(m)
    assert segre_sum_closed(st, 0) == 2 * m.one()
    expected = 8 * e_zeta(m) - 4 * m.even("zeta") - 8 * m.universal_class()
    assert segre_sum_closed(st, 1) == expected


def test_segre_det_routes_agree():
    for q in (0, 1, 2):
        m = _l1_model(q=q)
        # a fresh StratumClasses for each n, and one shared by all n in both orders
        shared, backwards = StratumClasses(m), StratumClasses(m)
        for n in range(0, 7):
            closed = segre_det_closed(StratumClasses(m), n)
            for st in (StratumClasses(m), shared):
                assert closed == segre_det_recursive(st, n)
                assert closed == segre_det_determinant(st, n)
                assert closed == segre_det_closed(st, n)
        for n in range(6, -1, -1):
            assert segre_det_closed(backwards, n) == segre_det_recursive(backwards, n)
        assert segre_det_closed(shared, 1) == (4 * e_zeta(m) - 2 * m.even("zeta")
                                               - 4 * m.universal_class())


def test_literal_determinant_cross_checks_recurrence(monkeypatch):
    import wallcross.verify as verify
    m = _l1_model(q=1)
    with pytest.raises(PreconditionError):
        segre_det_determinant(StratumClasses(m), -1)
    real = verify.segre_from_ch
    monkeypatch.setattr(verify, "segre_from_ch", lambda data, n: -real(data, n))
    with pytest.raises(InvariantError):
        segre_det_determinant(StratumClasses(m), 3)


def test_factorial_segre_identity():
    # n! s_n = 2 I_n + 2 C(n,2) K^2 (4 e_zeta)^(n-2)
    for q in (0, 1, 2):
        m = _l1_model(q=q)
        ks = m.even("K")
        four_ez = 4 * e_zeta(m)
        st = StratumClasses(m)
        for n in range(0, 7):
            lhs = segre_sum_closed(st, n) * math.factorial(n)
            rhs = 2 * segre_det_closed(st, n)
            if n >= 2:
                rhs = rhs + 2 * comb0(n, 2) * (ks * ks) * four_ez ** (n - 2)
            assert lhs == rhs


def test_segre_sum_matches_extension_determinants():
    m = _l1_model(q=1)
    wall = WallGeometry.build(p1=-8, q=1, zeta2=-4, zetaK=2)
    datas = []
    for k in (0, 1):
        ch_p, ch_m = ch_extension_bundles(m, wall, k)
        datas.append(ch_direct_sum(ch_p, ch_dual(ch_m)))
    for n in range(6):
        det_sum = segre_from_ch(datas[0], n) + segre_from_ch(datas[1], n)
        assert det_sum == segre_sum_closed(StratumClasses(m), n)


def leading_insertion_class(model, l_zeta, which):
    """The paper's three explicitly known insertion moments for any l_zeta, as the
    literal right-hand side (numbers times e-class powers): the local reference
    for the two tests below.  ``which`` is one of "2l,q", "2l-1,q" and "2l,q-1"."""
    if l_zeta < 0:
        raise PreconditionError("l_zeta must be non-negative")
    q = model.q
    a2 = model.pair("alpha", "alpha")
    a = model.pair("zeta", "alpha") / 2
    lead = Fraction(math.factorial(2 * l_zeta), math.factorial(l_zeta))
    ea = e_alpha(model)
    if which == "2l,q":
        return lead * a2 ** l_zeta * ea ** q
    if which == "2l-1,q":
        if l_zeta == 0:  # there is no (2l - 1)-th insertion moment
            return model.zero()
        return -4 * lead * a2 ** (l_zeta - 1) * a * ea ** q
    if which == "2l,q-1":
        if q < 1:
            raise PreconditionError("index pair (2l, q-1) needs q >= 1")
        return 4 * lead * a2 ** l_zeta * ea ** (q - 1) * e_zeta(model)
    raise PreconditionError(f"unknown leading index pair {which!r}")


def test_leading_insertion_classes_l1_against_ring():
    # S_{2,1}, S_{1,1}, S_{2,0} for l = 1, q = 1 computed from the stratum data
    m = _l1_model(q=1)
    wall = WallGeometry.build(p1=-8, q=1, zeta2=-4, zetaK=2)
    alpha_s = m.even("alpha")
    ea = e_alpha(m)
    pt = m.point()

    def ring_sjb(j, b):
        total = m.zero()
        for k in (0, 1):
            ch_p, ch_m = ch_extension_bundles(m, wall, k)
            data = ch_direct_sum(ch_p, ch_dual(ch_m))
            total = total + alpha_s ** j * ea ** b * segre_from_ch(data, 2 - j + 1 - b)
        return total

    assert ring_sjb(2, 1) == leading_insertion_class(m, 1, "2l,q") * pt
    assert ring_sjb(1, 1) == leading_insertion_class(m, 1, "2l-1,q") * pt
    assert ring_sjb(2, 0) == leading_insertion_class(m, 1, "2l,q-1") * pt


def test_leading_insertion_class_small_l():
    m = _l1_model(q=2)
    assert leading_insertion_class(m, 0, "2l,q") == e_alpha(m) ** 2
    a2 = m.pair("alpha", "alpha")
    assert leading_insertion_class(m, 1, "2l,q") == 2 * a2 * e_alpha(m) ** 2
    with pytest.raises(PreconditionError):
        leading_insertion_class(m, 1, "bogus")


def test_delta_leading_matches_l0_tail_terms():
    # the two leading terms are exactly the b = q and b = q-1 terms of delta_l0
    for q in (1, 2):
        for d, r in ((6, 0), (7, 1)):
            zeta2 = -(d + 3 * (1 - q))
            if zeta2 >= 0:
                continue
            wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta2 % 2)
            for za in (1, 2, 3, -4):
                model = make_model(q=q, zeta2=zeta2, zetaK=wall.zetaK, zetaAlpha=za,
                                   sigmaZeta=2, sigmaAlpha=3, alpha2=-1)  # vol = 1
                s = d - 2 * r
                tail = Fraction(0)
                sign = -1 if (r + d) % 2 else 1
                for b in (q, q - 1):
                    tail += (sign * Fraction(2) ** (3 * q - b - d) * math.perm(q, b)
                             * comb0(s, b) * pow0(Fraction(za), s - b)
                             * pow0(Fraction(3), b) * pow0(Fraction(2), q - b))
                lead = delta_leading(model, wall, InsertionWord(r=r, s=s))
                assert lead.value == wall.sign_wall * tail
                assert lead.modulus_exponent == d - 2 * r - q + 2


def test_antisymmetry_under_zeta_reversal():
    # pricing the same wall from the other side flips the sign exactly
    from dataclasses import replace
    from wallcross import InsertionWord, PairingInput, build_model
    from wallcross.oracle import delta_oracle_l0, delta_oracle_l1

    def flip_zeta(pr):
        return replace(pr, zetaK=-pr.zetaK, zetaAlpha=-pr.zetaAlpha,
                       sigmaZeta=-pr.sigmaZeta)

    wall = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1)
    pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                  sigmaK=2, K2=8, Kalpha=1, alpha2=-1)
    rev = reversed_wall(wall)
    assert delta_l0(rev, flip_zeta(pr), 0, 1).value == -delta_l0(wall, pr, 0, 1).value
    model = build_model(PairingInput(q=1, pairings=pr))
    model_rev = build_model(PairingInput(q=1, pairings=flip_zeta(pr)))
    assert delta_oracle_l0(model_rev, rev, InsertionWord(s=1)).value == \
        -delta_oracle_l0(model, wall, InsertionWord(s=1)).value
    wall1 = WallGeometry.build(p1=-8, q=1, zeta2=-4, zetaK=0)
    pr1 = Pairings(zeta2=-4, zetaK=0, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2,
                   sigmaK=1, K2=0, Kalpha=2, alpha2=1)
    rev1 = reversed_wall(wall1)
    m1 = build_model(PairingInput(q=1, pairings=pr1))
    m1rev = build_model(PairingInput(q=1, pairings=flip_zeta(pr1)))
    for r in (0, 1):
        assert delta_l1(rev1, flip_zeta(pr1), r, 1).value == \
            -delta_l1(wall1, pr1, r, 1).value
        assert delta_oracle_l1(m1rev, rev1, r).value == \
            -delta_oracle_l1(m1, wall1, r).value


def test_delta_leading_preconditions_and_zero_at_origin():
    wall = WallGeometry.build(p1=-12, q=0, zeta2=-4, zetaK=0)  # l = 2, d = 9
    model = make_model(q=0, zeta2=-4, zetaK=0, zetaAlpha=0, alpha2=-1)
    assert delta_leading(model, wall, InsertionWord(s=9)).value == 0
    assert delta_leading(model, wall, InsertionWord(s=9)).modulus_exponent == 9 - 4 - 0 + 2
    with pytest.raises(PreconditionError, match="needs d - 2r >= 2 l_zeta"):
        delta_leading(model, wall, InsertionWord(r=3, s=3))  # d - 2r < 2l + q
    with pytest.raises(PreconditionError, match="x\\^r alpha\\^s only"):
        delta_leading(make_model(q=1, zeta2=-4, zetaK=0), WallGeometry(-8, 1, -4, 0),
                      InsertionWord(s=6, gammas=(0,), threes=(1,)))


# -- the integer sums of delta_l0 / delta_l0_odd against their Fraction forms --

def _fraction_delta_l0(wall, pairings, r, vol):
    """delta_l0 as it was written before it summed in ints: one Fraction per term."""
    d, q = wall.d, wall.q
    s = d - 2 * r
    za, sa, sz = pairings.zetaAlpha, pairings.sigmaAlpha, pairings.sigmaZeta
    sign = -1 if (r + d) % 2 else 1
    total = Fraction(0)
    for b in range(q + 1):
        c = comb0(s, b)
        if not c:
            continue
        total += (sign * Fraction(2) ** (3 * q - b - d) * math.perm(q, b) * c
                  * pow0(za, s - b) * pow0(sa, b) * pow0(sz, q - b))
    return wall.sign_wall * total * Fraction(vol)


def _fraction_delta_l0_odd(wall, model, word):
    """delta_l0_odd as it was written before it summed in ints."""
    a_cnt, b_cnt = len(word.gammas), len(word.threes)
    if (a_cnt + b_cnt) % 2:
        return Fraction(0)
    d, q = wall.d, wall.q
    r, s = word.r, word.s
    fz = jacobian_odd_integral(model, word.gammas, word.threes)
    za, sa, sz = (model.pair("zeta", "alpha"), model.pair("Sigma", "alpha"),
                  model.pair("Sigma", "zeta"))
    sign = -1 if (r + d + b_cnt) % 2 else 1
    total = Fraction(0)
    for j in range(s + 1):
        idx = q - (a_cnt + b_cnt) // 2 - j
        if idx < 0:
            continue
        total += (sign * Fraction(2) ** (3 * q - d - b_cnt - j) * comb0(s, j)
                  * fz / math.factorial(idx)
                  * pow0(za, s - j) * pow0(sa, j)
                  * pow0(sz, q + (b_cnt - a_cnt) // 2 - j))
    return wall.sign_wall * total


def _fraction_delta_l1(wall, pairings, r, vol):
    """delta_l1 as it was written before it summed three l = 0 sums: one Fraction
    per b."""
    d, q = wall.d, wall.q
    s = d - 2 * r
    za, sa, sz = pairings.zetaAlpha, pairings.sigmaAlpha, pairings.sigmaZeta
    bracket_const = 6 * pairings.zeta2 + 2 * pairings.K2 - 24 * q - 8 * r
    sign = -1 if (r + d + 1) % 2 else 1
    total = Fraction(0)
    for b in range(q + 1):
        group = (pow0(za, s - b)
                 * (comb0(s, b) * bracket_const + 8 * comb0(s, b + 1) * comb0(b + 1, 1))
                 + 8 * pow0(za, s - b - 2) * pairings.alpha2 * comb0(s, b + 2) * comb0(b + 2, 2))
        total += (sign * Fraction(2) ** (3 * q - b - d) * group
                  * pow0(sa, b) * pow0(sz, q - b) * math.perm(q, b))
    return wall.sign_wall * total * Fraction(vol)



def _fraction_delta_leading(wall, pairings, r, vol):
    """delta_leading as it was written before it summed in ints: one Fraction per factor."""
    d, q, l = wall.d, wall.q, wall.l_zeta
    m = d - 2 * r - 2 * l - q
    a = pairings.zetaAlpha / 2
    a2, sa, sz = pairings.alpha2, pairings.sigmaAlpha, pairings.sigmaZeta
    sign = -1 if (d + l + r) % 2 else 1
    fact = Fraction(math.factorial(d - 2 * r), math.factorial(l))
    first = pow0(a, m) * fact / math.factorial(m) * pow0(a2, l) * pow0(sa, q)
    second = (4 * pow0(a, m + 1) * fact * q / math.factorial(m + 1)
              * pow0(a2, l) * pow0(sa, q - 1) * sz) if q >= 1 else Fraction(0)
    return wall.sign_wall * sign * Fraction(2) ** (q - 2 * r) * (first + second) * Fraction(vol)

# non-integral pairings, zeros and both signs of each
ZA = (Fraction(3, 2), -2, 0)
SA = (Fraction(-1, 3), 2, 0)
SZ = (1, Fraction(-3, 4))


def _walls(q, d, l=0):
    """The wall of (q, d, l) with w = zeta and one with the opposite wall sign,
    w = zeta - 2u with u^2 = -1 and u.K = 1, as Wu's formula allows."""
    zeta2 = 4 * l - (d + 3 * (1 - q))
    if zeta2 >= 0:
        return []
    zetaK, p1 = zeta2 % 2, zeta2 - 4 * l
    walls = [WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK),
             WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK,
                                zetaW=zeta2, w2=zeta2 - 4, wK=zetaK - 2)]
    assert {w.sign_wall for w in walls} == {1, -1}
    return walls


def test_delta_l0_integer_sum_equals_fraction_form():
    compared = 0
    for q, d in itertools.product(range(4), range(1, 8)):
        for wall in _walls(q, d):
            with pytest.raises(PreconditionError, match="needs 2r <= d"):
                delta_l0(wall, Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK), d // 2 + 1, 1)
            for r in range(d // 2 + 1):
                for za, sa, sz, vol in itertools.product(ZA, SA, SZ, (1, Fraction(2, 3), 6)):
                    pr = Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK, zetaAlpha=za,
                                  sigmaAlpha=sa, sigmaZeta=sz)
                    value = delta_l0(wall, pr, r, vol).value
                    assert type(value) is Fraction
                    assert value == _fraction_delta_l0(wall, pr, r, vol), (q, d, r, za, sa, sz)
                    compared += value != 0
    assert compared > 1000


def test_delta_l1_three_sums_equal_fraction_form():
    compared = 0
    for q, d in itertools.product(range(4), range(1, 8)):
        for wall in _walls(q, d, l=1):
            with pytest.raises(PreconditionError, match="needs 2r <= d"):
                delta_l1(wall, Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK), d // 2 + 1, 1)
            for r in range(d // 2 + 1):
                for za, sa, sz, a2 in itertools.product(ZA, SA, SZ, (Fraction(-1, 3), 2)):
                    pr = Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK, zetaAlpha=za,
                                  sigmaAlpha=sa, sigmaZeta=sz, alpha2=a2, K2=Fraction(5, 2))
                    value = delta_l1(wall, pr, r, Fraction(2, 3)).value
                    assert type(value) is Fraction
                    assert value == _fraction_delta_l1(wall, pr, r, Fraction(2, 3)), (q, d, r)
                    compared += value != 0
    assert compared > 1000, compared


def test_delta_leading_integer_sum_equals_fraction_form():
    compared = 0
    for q, d, l in itertools.product(range(4), range(1, 9), range(3)):
        # vol = 2/3, or 1 at q = 0
        j_side = make_model(q=q, blocks=((Fraction(2, 3),) + (1,) * (q - 1))[:q])
        for wall in _walls(q, d, l):
            for r in range((d - 2 * l - q) // 2 + 1):
                for za, sa, sz, a2 in itertools.product(ZA, SA, SZ, (Fraction(-1, 3), 2, 0)):
                    pr = Pairings(zeta2=wall.zeta2, zetaK=wall.zetaK, zetaAlpha=za,
                                  sigmaAlpha=sa, sigmaZeta=sz, alpha2=a2)
                    model = j_side.with_pairings(pr)
                    lead = delta_leading(model, wall, InsertionWord(r=r, s=d - 2 * r))
                    assert type(lead.value) is Fraction and lead.path == "leading-term"
                    assert lead.modulus_exponent == d - 2 * r - 2 * l - q + 2
                    assert lead.value == _fraction_delta_leading(wall, pr, r, volume(model)), (
                        q, d, l, r, za, sa, sz, a2)
                    compared += lead.value != 0
    assert compared > 1000, compared


def test_delta_l0_odd_integer_sum_equals_fraction_form():
    triples = ((Fraction(3, 2), Fraction(-1, 3), 1), (-2, 2, Fraction(-3, 4)),
               (0, Fraction(-1, 3), Fraction(-3, 4)), (Fraction(3, 2), 0, 1),
               (-2, Fraction(-1, 3), Fraction(-3, 4)))
    compared = 0
    for q, blocks in ((1, (1,)), (1, (Fraction(3, 2),)), (2, (1, 1)), (2, (Fraction(1, 2), 3))):
        odd = [c for k in range(3) for c in itertools.combinations(range(2 * q), k)]
        for r, s, gammas, threes in itertools.product((0, 1), range(4), odd, odd):
            word = InsertionWord(r=r, s=s, gammas=gammas, threes=threes)
            if word.odd_count() % 2 or word.odd_count() > 2:
                continue
            for wall in _walls(q, word.degree() // 2):
                for za, sa, sz in triples:
                    model = make_model(q=q, blocks=blocks, zeta2=wall.zeta2, zetaK=wall.zetaK,
                                       zetaAlpha=za, sigmaAlpha=sa, sigmaZeta=sz)
                    value = delta_l0_odd(wall, model, word).value
                    assert type(value) is Fraction
                    assert value == _fraction_delta_l0_odd(wall, model, word), (q, blocks, word)
                    compared += value != 0
    assert compared > 300, compared
