"""Chern/Segre classes against the literal determinants, an independent
Newton oracle and series inversion."""

import math
from fractions import Fraction

import pytest

from wallcross import PreconditionError
from wallcross.chern import (ChernData, chern_from_ch, ch_direct_sum, ch_dual,
                             chern_data_from_element, hessenberg_det, segre_from_ch, total_chern)
from wallcross.graded import inverse_unit_series
from wallcross.jacobian import e_divisor, e_zeta
from wallcross.verify import random_even_element

from conftest import make_model


def newton_chern(data, n):
    """Independent oracle: n c_n = sum_i (-1)^(i-1) c_(n-i) a_i (Newton)."""
    model = data.model
    cs = [model.one()]
    for k in range(1, n + 1):
        acc = model.zero()
        for i in range(1, k + 1):
            t = cs[k - i] * data.a_i(i)
            acc = acc + t if i % 2 == 1 else acc - t
        cs.append(acc / k)
    return cs[n]


def _random_data(model, rng, top=None):
    top = top if top is not None else model.q + 2
    a = tuple(random_even_element(model, 2 * i, rng) for i in range(1, top + 1))
    return ChernData(model, rng.randint(1, 4), a)


def test_small_determinants_match_textbook(model_q1, rng):
    data = _random_data(model_q1, rng)
    a1, a2 = data.a_i(1), data.a_i(2)
    assert chern_from_ch(data, 0) == model_q1.one()
    assert chern_from_ch(data, 1) == a1
    assert chern_from_ch(data, 2) == (a1 * a1 - a2) / 2
    assert segre_from_ch(data, 1) == -a1
    assert segre_from_ch(data, 2) == (a1 * a1 + a2) / 2
    with pytest.raises(PreconditionError):
        chern_from_ch(data, -1)


def test_chern_matches_newton_oracle(rng):
    for q, blocks in ((0, None), (1, None), (2, (1, 2))):
        model = make_model(q=q, blocks=blocks)
        for _ in range(4):
            data = _random_data(model, rng)
            for n in range(0, 7):
                assert chern_from_ch(data, n) == newton_chern(data, n)


def test_recurrence_matches_literal_determinant(rng):
    for q, blocks in ((0, None), (1, None), (2, (1, 2))):
        model = make_model(q=q, blocks=blocks)
        for _ in range(3):
            data = _random_data(model, rng)
            for n in range(0, 7):
                scale = math.factorial(n)
                assert segre_from_ch(data, n) * scale == hessenberg_det(data, n, signed=True)
                assert chern_from_ch(data, n) * scale == hessenberg_det(data, n, signed=False)


def test_segre_cache_is_invisible(rng):
    model = make_model(q=2, blocks=(1, 1))
    data = _random_data(model, rng)

    def fresh():
        return ChernData(model, data.rank, data.a)

    before = (repr(data), hash(data))
    high = segre_from_ch(data, 5)
    assert segre_from_ch(data, 3) == segre_from_ch(fresh(), 3)
    assert high == segre_from_ch(fresh(), 5)
    assert (repr(data), hash(data)) == before == (repr(fresh()), hash(fresh()))
    assert data == fresh()
    with pytest.raises(PreconditionError):
        segre_from_ch(data, -1)


def test_chern_classes_are_kept_like_the_segre_classes(rng):
    # chern_from_ch restarted Newton's recurrence from c_0 on every call
    model = make_model(q=2, blocks=(1, 1))
    data = _random_data(model, rng)
    fresh = [chern_from_ch(ChernData(model, data.rank, data.a), n) for n in range(5)]
    assert chern_from_ch(data, 4) == fresh[4] and len(data._chern_memo) == 5
    kept = data._chern_memo[2]
    assert [chern_from_ch(data, n) for n in range(5)] == fresh
    assert chern_from_ch(data, 2) is kept and len(data._chern_memo) == 5
    assert total_chern(data) == sum(fresh, model.zero())  # c_0..c_(q+2), all kept


def test_segre_matches_series_inversion(rng):
    for q in (0, 1, 2):
        model = make_model(q=q)
        for _ in range(4):
            data = _random_data(model, rng)
            inv = inverse_unit_series(total_chern(data)).components()
            for n in range(0, 7):
                assert segre_from_ch(data, n) == inv.get(2 * n, model.zero())


def test_chern_segre_convolution_is_zero(rng):
    model = make_model(q=2, blocks=(3, 1))
    for _ in range(4):
        data = _random_data(model, rng)
        for n in range(1, 7):
            acc = model.zero()
            for i in range(n + 1):
                acc = acc + chern_from_ch(data, i) * segre_from_ch(data, n - i)
            assert acc.is_zero()


def test_dual_is_sign_flip_involution(rng):
    model = make_model(q=1)
    data = _random_data(model, rng)
    dual = ch_dual(data)
    assert dual.rank == data.rank
    assert dual.a_i(1) == -data.a_i(1)
    assert dual.a_i(2) == data.a_i(2)
    assert ch_dual(dual).a == data.a


def test_dual_of_rank_zero_side_extension():
    # ch E_{-zeta} = (h(-zeta)+q) + e_{K+2 zeta}; its dual negates the e-class
    model = make_model(q=1, zetaK=2, sigmaK=1, sigmaZeta=1)
    h_minus_q = Fraction(-(-4) - 2, 2) - 1 + 1  # -zetaK/2 - zeta2/2 - 1 + q
    ch = model.scalar(h_minus_q) + e_divisor(model, model.pair("Sigma", "K") + 2 * model.pair("Sigma", "zeta"))
    data = chern_data_from_element(ch)
    dual = ch_dual(data)
    assert dual.rank == h_minus_q == -(Fraction(-4, 2) + Fraction(2, 2) + 1 - 1)
    assert dual.a_i(1) == -e_divisor(model, 3)


def test_direct_sum_with_zero_is_identity(rng):
    model = make_model(q=1)
    data = _random_data(model, rng)
    zero = ChernData(model, 0, ())
    summed = ch_direct_sum(data, zero)
    assert summed.rank == data.rank and summed.a == data.a
    from wallcross.errors import ModelMismatchError
    with pytest.raises(ModelMismatchError):
        ch_direct_sum(data, ChernData(make_model(q=1), 0, ()))


def test_direct_sum_l0_extension_pair():
    # ch(E_zeta (+) E_{-zeta}^dual) = (-zeta^2 + 2q - 2) - 4 e_zeta, higher a_i = 0
    model = make_model(q=1, zetaK=2, sigmaK=3, sigmaZeta=1)
    q, z2, zk = 1, -4, 2
    sk, sz = model.pair("Sigma", "K"), model.pair("Sigma", "zeta")
    plus = chern_data_from_element(
        model.scalar(Fraction(zk - z2, 2) - 1 + q) + e_divisor(model, sk - 2 * sz))
    minus = chern_data_from_element(
        model.scalar(Fraction(-zk - z2, 2) - 1 + q) + e_divisor(model, sk + 2 * sz))
    pair = ch_direct_sum(plus, ch_dual(minus))
    assert pair.rank == -z2 + 2 * q - 2
    assert pair.a_i(1) == -4 * e_zeta(model)
    assert pair.a_i(2).is_zero() and pair.a_i(3).is_zero()
    # Segre classes: s_i = 4^i e_zeta^i / i!
    import math
    for i in range(0, 4):
        assert segre_from_ch(pair, i) == (4 * e_zeta(model)) ** i / math.factorial(i)


def test_chern_of_dual_sign_rule(rng):
    # c_n of the dual data equals (-1)^n c_n of the original
    model = make_model(q=2, blocks=(1, 1))
    for _ in range(3):
        data = _random_data(model, rng)
        dual = ch_dual(data)
        for n in range(0, 6):
            expected = chern_from_ch(data, n)
            if n % 2:
                expected = -expected
            assert chern_from_ch(dual, n) == expected


def test_chern_data_degree_validation(model_q1):
    with pytest.raises(PreconditionError):
        ChernData(model_q1, 1, (model_q1.even("zeta") + model_q1.point(),))
