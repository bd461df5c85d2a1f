"""Ring-oracle internals: extension Chern data, substitution table, regimes."""

import itertools
import math
import pytest

from fractions import Fraction

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError,
                       RegimeError, WallGeometry, build_model, ch_direct_sum,
                       ch_dual, ch_extension_bundles, delta_l0, delta_l0_odd, delta_oracle_l0,
                       delta_oracle_l1, e_alpha, e_zeta, e_zeta_beta, exp_truncated,
                       jacobian_odd_integral, segre_from_ch, volume)
from wallcross import jacobian, oracle
from wallcross.graded import integrate_product
from wallcross.oracle import PREFIX_READS_A, TABLE_READS, WORD_READS, WORD_READS_A, _expand

from conftest import make_model


def _wall_and_model(q=1, zeta2=-4, zetaK=2, l=1, **pairs):
    wall = WallGeometry.build(p1=zeta2 - 4 * l, q=q, zeta2=zeta2, zetaK=zetaK)
    kw = dict(zeta2=zeta2, zetaK=zetaK, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
              sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    kw.update(pairs)
    model = make_model(q=q, **kw)
    return wall, model


def _data_element(data):
    out = data.model.scalar(data.rank)
    for i in range(1, len(data.a) + 1):
        out = out + data.a_i(i) / math.factorial(i)
    return out


def test_extension_rank_bookkeeping():
    wall, model = _wall_and_model()
    for k in (0, 1):
        ch_p, ch_m = ch_extension_bundles(model, wall, 1, k)
        assert ch_p.rank == 1 + wall.h_plus + wall.q
        assert ch_m.rank == 1 + wall.h_minus + wall.q
    wall0, model0 = _wall_and_model(l=0)
    ch_p, ch_m = ch_extension_bundles(model0, wall0, 0, 0)
    assert ch_p.rank == wall0.h_plus + wall0.q
    assert ch_m.rank == wall0.h_minus + wall0.q
    with pytest.raises(RegimeError):
        ch_extension_bundles(model, wall, 2, 0)
    with pytest.raises(PreconditionError):
        ch_extension_bundles(model, wall, 1, 2)


def test_l0_pair_chern_character():
    wall, model = _wall_and_model(l=0)
    ch_p, ch_m = ch_extension_bundles(model, wall, 0, 0)
    pair = ch_direct_sum(ch_p, ch_dual(ch_m))
    assert pair.rank == -wall.zeta2 + 2 * wall.q - 2
    assert pair.a_i(1) == -4 * e_zeta(model)
    for i in range(0, 4):
        assert segre_from_ch(pair, i) == (4 * e_zeta(model)) ** i / math.factorial(i)


def test_l1_pair_matches_displayed_character():
    # ch(E^{1,0}_zeta (+) (E^{0,1}_{-zeta})^dual) =
    #   (-zeta^2 + 2q - 2) - 4 e_zeta + 2 ch(zeta) ch(2E) + K^2/2 + K zeta + K(1 + 2E + 2E^2)
    for q in (0, 1, 2):
        wall, model = _wall_and_model(q=q)
        zs, ks = model.even("zeta"), model.even("K")
        uni = model.universal_class()
        ch_p, ch_m = ch_extension_bundles(model, wall, 1, 0)
        lhs = _data_element(ch_direct_sum(ch_p, ch_dual(ch_m)))
        two_e = 2 * uni
        rhs = (model.scalar(-wall.zeta2 + 2 * q - 2) - 4 * e_zeta(model)
               + 2 * exp_truncated(zs) * exp_truncated(two_e)
               + (ks * ks) / 2 + ks * zs
               + ks * (model.one() + two_e + 2 * uni * uni))
        assert lhs == rhs
        # the k = 1 pair is the K -> -K mirror
        ch_p1, ch_m1 = ch_extension_bundles(model, wall, 1, 1)
        lhs1 = _data_element(ch_direct_sum(ch_p1, ch_dual(ch_m1)))
        rhs1 = (model.scalar(-wall.zeta2 + 2 * q - 2) - 4 * e_zeta(model)
                + 2 * exp_truncated(zs) * exp_truncated(two_e)
                + (ks * ks) / 2 - ks * zs
                - ks * (model.one() + two_e + 2 * uni * uni))
        assert lhs1 == rhs1


def test_stratum_segre_sum_is_even_in_k():
    wall, model = _wall_and_model(q=1)
    flipped = make_model(q=1, zeta2=-4, zetaK=-2, zetaAlpha=2, sigmaZeta=1,
                         sigmaAlpha=1, sigmaK=-2, K2=8, Kalpha=1, alpha2=-1)
    for n in range(0, 5):
        total, total_f = model.zero(), flipped.zero()
        for k in (0, 1):
            ch_p, ch_m = ch_extension_bundles(model, wall, 1, k)
            total = total + segre_from_ch(ch_direct_sum(ch_p, ch_dual(ch_m)), n)
            fh_p, fh_m = ch_extension_bundles(flipped, wall, 1, k)
            total_f = total_f + segre_from_ch(ch_direct_sum(fh_p, ch_dual(fh_m)), n)
        # compare coefficient dictionaries across the two models
        assert dict(total.terms) == dict(total_f.terms)


def test_oracle_word_and_regime_errors():
    wall, model = _wall_and_model(l=0)
    with pytest.raises(PreconditionError):
        delta_oracle_l0(model, wall, InsertionWord(s=wall.d + 1))
    wall1, model1 = _wall_and_model(l=1)
    with pytest.raises(RegimeError):
        delta_oracle_l0(model1, wall1, InsertionWord(s=wall1.d))
    with pytest.raises(RegimeError):
        delta_oracle_l1(model, wall, 0)
    with pytest.raises(PreconditionError):
        delta_oracle_l0(model, wall, InsertionWord(s=wall.d), branch="bogus")


def test_oracle_zero_cases():
    wall, model = _wall_and_model(q=1, l=0)
    odd_parity = InsertionWord(r=0, s=1, gammas=(0,))
    assert delta_oracle_l0(model, wall, odd_parity).value == 0
    wall1, model1 = _wall_and_model(q=0, zetaK=0, l=1)
    assert delta_oracle_l1(model1, wall1, (wall1.d + 2) // 2).value == 0  # 2r > d


def test_component_branch_agreement_when_rank_zero_consistent():
    # h(zeta) + q = 0 wall with Sigma.K = 2 Sigma.zeta (forced by rank 0)
    q, d = 1, 2
    zeta2 = -(d + 3 * (1 - q))
    zetaK = zeta2 + 2 - 2 * q
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
    assert wall.empty_side
    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=2,
                  sigmaAlpha=-1, sigmaK=4, K2=0, Kalpha=0, alpha2=1)
    model = build_model(PairingInput(q=q, pairings=pr))
    word = InsertionWord(s=d)
    uni = delta_oracle_l0(model, wall, word, branch="unified")
    comp = delta_oracle_l0(model, wall, word, branch="component")
    closed = delta_l0(wall, pr, 0, volume(model))
    assert uni.value == comp.value == closed.value
    # the component branch demands the empty-side regime
    wall_generic, model_generic = _wall_and_model(l=0)
    with pytest.raises(RegimeError):
        delta_oracle_l0(model_generic, wall_generic, InsertionWord(s=wall_generic.d),
                        branch="component")


def test_oracle_independent_of_k_couplings():
    # two runs differing only in Sigma.K and K.alpha agree (l = 1)
    wall, model = _wall_and_model(q=1)
    other = make_model(q=1, zeta2=-4, zetaK=2, zetaAlpha=2, sigmaZeta=1,
                       sigmaAlpha=1, sigmaK=-3, K2=8, Kalpha=5, alpha2=-1)
    for r in (0, 1):
        assert delta_oracle_l1(model, wall, r).value == delta_oracle_l1(other, wall, r).value


def test_odd_words_over_full_matrix_model():
    # closed form and oracle agree for odd insertions over a non-block a_ij
    pf6 = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
    from wallcross import delta_l0_odd
    from wallcross.verify import valid_zeta_k
    checked = 0
    for r, s, gam, thr in ((0, 3, (0,), (2,)), (0, 2, (1, 3), ()),
                           (1, 0, (0, 2), (1, 3)), (1, 2, (), (2, 3))):
        word = InsertionWord(r=r, s=s, gammas=gam, threes=thr)
        d = word.degree() // 2
        zeta2 = -(d + 3 * (1 - 2))
        if zeta2 >= 0:
            continue
        zetaK = valid_zeta_k(2, zeta2, 0)[0]
        wall = WallGeometry.build(p1=zeta2, q=2, zeta2=zeta2, zetaK=zetaK)
        pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=-2, sigmaZeta=2,
                      sigmaAlpha=3, sigmaK=1, K2=8, Kalpha=-1, alpha2=1)
        model = build_model(PairingInput(q=2, pairings=pr, a_matrix=pf6))
        assert delta_l0_odd(wall, model, word).value == \
            delta_oracle_l0(model, wall, word).value
        checked += 1
    assert checked >= 3


def test_oracle_agreement_with_negative_volume():
    # negative block coefficients give negative vol; both routes track it
    from wallcross import delta_l1
    from wallcross.verify import valid_zeta_k
    q, blocks, d = 2, (-1, 3), 6
    zeta2 = -(d + 3 * (1 - q))
    zetaK = valid_zeta_k(q, zeta2, 0)[0]
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=1,
                  sigmaAlpha=2, alpha2=-1)
    model = build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks))
    assert volume(model) == -3
    closed = delta_l0(wall, pr, 1, volume(model)).value
    assert closed == delta_oracle_l0(model, wall, InsertionWord(r=1, s=d - 2)).value
    wall1 = WallGeometry.build(p1=-8, q=q, zeta2=-4, zetaK=valid_zeta_k(q, -4, 1)[0])
    pr1 = Pairings(zeta2=-4, zetaK=wall1.zetaK, zetaAlpha=2, sigmaZeta=1,
                   sigmaAlpha=1, sigmaK=2, K2=8, Kalpha=1, alpha2=-1)
    model1 = build_model(PairingInput(q=q, pairings=pr1, a_blocks=blocks))
    assert delta_l1(wall1, pr1, 0, volume(model1)).value == \
        delta_oracle_l1(model1, wall1, 0).value


def _sequential_expand(model, factors):
    """The X-polynomial product with every factor repeated, one multiply at a time."""
    poly = {0: model.one()}
    for factor, m in factors:
        for _ in range(m):
            out = {}
            for n1, c1 in poly.items():
                for n2, c2 in factor.items():
                    out[n1 + n2] = out.get(n1 + n2, model.zero()) + c1 * c2
            poly = {n: c for n, c in out.items() if not c.is_zero()}
    return poly


def test_grouped_expansion_matches_the_sequential_one():
    _, model = _wall_and_model(q=2)
    quarter = model.scalar(Fraction(-1, 4))
    a = model.scalar(model.pair("zeta", "alpha") / 2)
    point = {0: model.point(), 2: quarter}  # nilpotent: [S]^2 = 0
    alpha_l1 = {0: model.even("alpha") - e_alpha(model), 1: a}
    alpha_l0 = {0: -e_alpha(model), 1: a}
    odd = [({1: model.theta(0)}, 1), ({0: -e_zeta_beta(model, 2)}, 1)]
    for r in range(7):
        for s in range(7):
            for factors in ([(point, r), (alpha_l1, s)],
                            [({2: quarter}, r), (alpha_l0, s)] + odd):
                assert _expand(model, factors) == _sequential_expand(model, factors)
    assert _expand(model, [(point, 0), (alpha_l1, 0)]) == {0: model.one()}
    assert _expand(model, [(point, 3)]) == _sequential_expand(model, [(point, 3)])


def test_an_odd_factor_may_not_repeat():
    _, model = _wall_and_model(q=2)
    for odd in ({1: model.theta(0)}, {0: -e_zeta_beta(model, 1), 1: model.one()}):
        assert _expand(model, [(odd, 1)]) == _sequential_expand(model, [(odd, 1)])
        with pytest.raises(PreconditionError, match="odd coefficient"):
            _expand(model, [(odd, 2)])


def test_direct_l0_extension_data_equals_the_split_character():
    # at l = 0 the Chern data is built as (h + q, (e,)) directly; it must equal
    # splitting the character h + q + e in rank and in every a_i, e = 0 and q = 0 included
    from wallcross import chern_data_from_element, e_divisor
    cases = 0
    for q, blocks in ((0, None), (1, (3,)), (2, (1, 2))):
        zeta2 = -4
        for zetaK, sigma_z, sigma_k in itertools.product((0, 2), (1, Fraction(-1, 2)), (2, 0, -1)):
            wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
            model = make_model(q=q, blocks=blocks, zeta2=zeta2, zetaK=zetaK,
                               sigmaZeta=sigma_z, sigmaK=sigma_k)
            direct = ch_extension_bundles(model, wall, 0, 0)
            for data, h, d_dot in ((direct[0], wall.h_plus, sigma_k - 2 * sigma_z),
                                   (direct[1], wall.h_minus, sigma_k + 2 * sigma_z)):
                split = chern_data_from_element(model.scalar(h + q) + e_divisor(model, d_dot))
                assert data.rank == split.rank
                assert [data.a_i(i) for i in range(q + 4)] == [split.a_i(i) for i in range(q + 4)]
                assert data == split
                cases += 1
    assert cases == 72


# -- the J-side memo ------------------------------------------------------------

def _priced(model, wall, word, branch="unified"):
    if wall.l_zeta == 1:
        return delta_oracle_l1(model, wall, word.r).value
    return delta_oracle_l0(model, wall, word, branch).value


def _fresh(q, blocks, pr, wall, word, branch="unified"):
    return _priced(build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks)),
                   wall, word, branch)


def _j_side(q, blocks):
    return build_model(PairingInput(q=q, pairings=Pairings(), a_blocks=blocks))


def _table(model, wall, branch="unified"):
    return model.memo(TABLE_READS).get((branch, wall))


def _counting(monkeypatch, name, module=oracle):
    """Count the calls of ``module.<name>`` from here on; returns the call list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _alpha_powers(model):
    """The alpha powers kept in the model's WORD_READS slot, by s."""
    return sorted(key for key in model.memo(WORD_READS) if type(key) is int)


def test_words_priced_on_one_model_equal_fresh_models(monkeypatch):
    # each list opens with a word that asks for few X-powers, so a later word
    # needs substitutes that no earlier one did
    cases = []
    q, blocks, zeta2 = 2, (1, 2), -1
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1)
    pr = Pairings(zeta2=zeta2, zetaK=1, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2,
                  sigmaK=-1, K2=8, Kalpha=1, alpha2=-1)
    cases.append((q, blocks, pr, wall, "unified",
                  [InsertionWord(r=2), InsertionWord(r=1, s=2), InsertionWord(s=4),
                   InsertionWord(s=1, gammas=(0, 1)), InsertionWord(s=3, threes=(1, 2)),
                   InsertionWord(gammas=(0, 2), threes=(1, 3))]))
    # an empty-side wall (h(zeta) + q = 0, Sigma.K = 2 Sigma.zeta) carries both
    # l = 0 branches on one model and wall; they must not share a table
    q, zeta2 = 1, -2
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta2)
    pr = Pairings(zeta2=zeta2, zetaK=zeta2, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1,
                  sigmaK=4, K2=0, Kalpha=0, alpha2=1)
    for branch in ("unified", "component", "unified"):
        cases.append((q, (3,), pr, wall, branch,
                      [InsertionWord(r=1), InsertionWord(s=2),
                       InsertionWord(gammas=(0,), threes=(1,))]))
    q, zeta2 = 0, -1
    wall = WallGeometry.build(p1=zeta2 - 4, q=q, zeta2=zeta2, zetaK=1)
    pr = Pairings(zeta2=zeta2, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                  sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
    cases.append((q, None, pr, wall, "unified", [InsertionWord(r=1), InsertionWord(s=2)]))
    # a word reads the substitutes its X-powers meet; the table holds them all
    # from its first word on and never changes
    reads = _counting(monkeypatch, "integrate_forms")
    models, tables, read = {}, {}, {}
    nonzero = extended = 0
    for q, blocks, pr, wall, branch, words in cases:
        model = models.setdefault((q, pr), build_model(
            PairingInput(q=q, pairings=pr, a_blocks=blocks)))
        for word in words:
            del reads[:]
            value = _priced(model, wall, word, branch)
            table = _table(model, wall, branch)
            by_index = {id(index): n for n, index in table.items()}
            before = read.setdefault(id(table), set())
            after = before | {by_index[id(args[2])] for args in reads}
            assert value == _fresh(q, blocks, pr, wall, word, branch), (word, branch)
            kept = tables.setdefault(id(table), (table, dict(table)))
            assert kept[0] is table and kept[1] == table
            nonzero += value != 0
            extended += bool(before) and after > before
            read[id(table)] = after
    assert (nonzero, extended) == (12, 4)


def test_a_priced_model_is_freed_without_the_cycle_collector():
    # the memo holds term dicts, never elements, so no reference cycle keeps a
    # model, or a J-side and the with_gram models sharing its memo, alive once
    # the last reference is dropped
    import gc
    import weakref
    wall0, model = _wall_and_model(q=2, zeta2=-4, zetaK=2, l=0)
    wall1 = WallGeometry.build(p1=-8, q=2, zeta2=-4, zetaK=2)

    def price(model):
        for r in (0, 1):
            delta_oracle_l0(model, wall0, InsertionWord(r=r, s=wall0.d - 2 * r))
            delta_oracle_l0(model, wall0, InsertionWord(r=r, s=wall0.d - 2 * r - 4,
                                                        gammas=(0, 1), threes=(2, 3)))
            delta_oracle_l1(model, wall1, r)
        volume(model)
        jacobian_odd_integral(model, (0, 1), (2, 3))

    gc.collect()
    gc.disable()
    try:
        price(model)
        d = wall0.d
        assert len(model.memo(TABLE_READS)) == 2
        # four alpha powers and no entry for the words x^r alpha^s; the words with
        # A-insertions read Sigma.zeta, and so do their prefixes, one per r
        assert len(model.memo(WORD_READS)) == 4 and len(model.memo(WORD_READS_A)) == 2
        assert _alpha_powers(model) == [d - 6, d - 4, d - 2, d]
        assert set(model.memo(PREFIX_READS_A)) == {((0, 1), (2, 3), 0), ((0, 1), (2, 3), 1)}
        assert set(model.memo(())) == {"volume", ((0, 1), (2, 3))}
        ref = weakref.ref(model)
        del model
        assert ref() is None
        j_side = _j_side(2, (1, 2))
        models = [j_side.with_gram(Pairings(zeta2=-4, zetaK=2, zetaAlpha=za, sigmaZeta=sz,
                                            sigmaAlpha=1, sigmaK=2, K2=8).gram())
                  for za, sz in ((3, 1), (3, -2), (-1, 1))]
        for model in models:
            price(model)
        assert len(j_side.memo(TABLE_READS)) == 0 and len(models[0].memo(TABLE_READS)) == 2
        # vol and F read no pairing: the J-side itself holds the models' entries
        assert len(j_side.memo(())) == 2
        refs = [weakref.ref(m) for m in (j_side, *models)]
        del j_side, models, model
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


# pairing -> (read by an X-table, by the prefix of an l = 0 word with A-insertions,
# by an odd word without them, by one with them, by an alpha power), written out
# here rather than taken from the oracle's read sets; vol and F read none, and
# neither does the prefix of a word without A-insertions
READS = {"sigmaZeta": (True, True, False, True, False),
         "sigmaK": (True, False, False, False, False),
         "zeta2": (True, False, False, False, False),
         "zetaK": (True, False, False, False, False),
         "K2": (True, False, False, False, False),
         "sigmaAlpha": (False, False, True, True, True),
         "zetaAlpha": (False, False, True, True, True),
         "Kalpha": (False, False, False, False, False),
         "alpha2": (False, False, False, False, False)}
BASE = dict(zeta2=-4, zetaK=2, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=1, sigmaK=2,
            K2=8, Kalpha=-1, alpha2=-1)
OTHER = dict(zeta2=-8, zetaK=0, zetaAlpha=-1, sigmaZeta=-2, sigmaAlpha=2, sigmaK=3,
             K2=-4, Kalpha=2, alpha2=3)


def test_models_differing_in_one_pairing_share_exactly_the_entries_that_do_not_read_it(
        monkeypatch):
    # two with_gram models over one J-side that differ in one pairing: each
    # entry that reads it is built again, every other one is shared, and both
    # models price as fresh models do
    builds = _counting(monkeypatch, "_table_datas")
    expands = _counting(monkeypatch, "_expand")
    alphas = _counting(monkeypatch, "e_alpha")
    # an odd word's entry is built on a miss only, and so is the prefix that
    # e_zeta_beta enters; the prefix of gamma_1 gamma_2 never reads a pairing
    words = _counting(monkeypatch, "_odd_prefix")
    prefixes = _counting(monkeypatch, "e_zeta_beta")
    vols = _counting(monkeypatch, "integrate_jacobian", jacobian)
    odds = _counting(monkeypatch, "integrate_product", jacobian)
    q, blocks = 1, (2,)
    wall0 = WallGeometry.build(p1=-4, q=q, zeta2=-4, zetaK=2)
    wall1 = WallGeometry.build(p1=-8, q=q, zeta2=-4, zetaK=2)
    words0 = [InsertionWord(r=1, s=wall0.d - 2),
              InsertionWord(s=wall0.d - 2, gammas=(1,), threes=(1,)),
              InsertionWord(s=wall0.d - 3, gammas=(0, 1))]
    words1 = [InsertionWord(r=r, s=wall1.d - 2 * r) for r in (0, 1)]
    changed = set()
    for key, (table, prefix_a, plain, with_a, alpha) in READS.items():
        j_side = _j_side(q, blocks)
        values = []
        for pairs in (BASE, dict(BASE, **{key: OTHER[key]})):
            pr = Pairings(**pairs)
            model = j_side.with_gram(pr.gram())
            del builds[:], expands[:], alphas[:], words[:], prefixes[:], vols[:], odds[:]
            priced = [_priced(model, wall0, word) for word in words0]
            # the l = 0 words raise two alpha powers, and only they call e_alpha here
            built = [len(alphas), len(words), len(prefixes)]
            priced += [_priced(model, wall1, word) for word in words1]
            priced += [volume(model), delta_l0_odd(wall0, model, words0[1]).value]
            # the first model builds both tables, both odd words and their two
            # prefixes, two alpha powers, vol and F; the l = 1 polynomials are
            # expanded on every model, and no l = 0 word is expanded
            built += [len(builds), len(expands), len(vols), len(odds)]
            expect = ([2, 2, 1, 2, 2, 1, 1] if pairs is BASE
                      else [2 * alpha, plain + with_a, prefix_a, 2 * table, 2, 0, 0])
            assert built == expect, key
            fresh = build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks))
            assert priced == [_priced(fresh, wall, word)
                              for wall, words in ((wall0, words0), (wall1, words1))
                              for word in words] + [
                volume(fresh), delta_l0_odd(wall0, fresh, words0[1]).value], key
            values.append(priced)
        if values[0] != values[1]:
            changed.add(key)
    # Sigma.K cancels from the unified l = 0 table and zeta.K from the l = 1
    # strata sum; K.alpha is paired by neither route here
    assert changed == {"sigmaZeta", "zeta2", "K2", "sigmaAlpha", "zetaAlpha", "alpha2"}


def test_walls_branches_and_words_keep_separate_entries(monkeypatch):
    builds = _counting(monkeypatch, "_table_datas")
    words = _counting(monkeypatch, "_odd_prefix")
    alphas = _counting(monkeypatch, "e_alpha")
    # four walls of one model: l = 0 and l = 1, two zeta.K each
    q, blocks, zeta2 = 1, (2,), -4
    pr = Pairings(zeta2=zeta2, zetaK=2, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=1, sigmaK=2,
                  K2=8, Kalpha=-1, alpha2=-1)
    model = _j_side(q, blocks).with_gram(pr.gram())
    for p1, zetaK in ((zeta2, 2), (zeta2, -4), (zeta2 - 4, 2), (zeta2 - 4, 0)):
        wall = WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK)
        word = InsertionWord(r=1, s=wall.d - 2)
        del builds[:]
        value = _priced(model, wall, word)
        assert len(builds) == 1, wall
        assert value == _fresh(q, blocks, pr, wall, word)
    # the two l = 0 branches of an empty-side wall on one model
    q, zeta2 = 1, -2
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta2)
    pr = Pairings(zeta2=zeta2, zetaK=zeta2, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1,
                  sigmaK=4, K2=0, Kalpha=0, alpha2=1)
    model = _j_side(q, (3,)).with_gram(pr.gram())
    word = InsertionWord(r=1)
    for branch in ("unified", "component"):
        del builds[:]
        value = _priced(model, wall, word, branch)
        assert len(builds) == 1, branch
        assert value == _fresh(q, (3,), pr, wall, word, branch)
    assert _table(model, wall, "unified") is not _table(model, wall, "component")
    # words of one degree on one model and wall: an entry per odd word, none
    # for a word x^r alpha^s, which is priced from its alpha power
    q, blocks, zeta2 = 2, (1, 2), -1
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1)
    pr = Pairings(zeta2=zeta2, zetaK=1, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2,
                  sigmaK=-1, K2=8, Kalpha=1, alpha2=-1)
    model = _j_side(q, blocks).with_gram(pr.gram())
    values = []
    # one alpha power per s: the last two words raise the ones of earlier words
    for word, entry, alpha in ((InsertionWord(r=2), 0, 1), (InsertionWord(r=1, s=2), 0, 1),
                               (InsertionWord(s=4), 0, 1),
                               (InsertionWord(s=1, gammas=(0, 1)), 1, 1),
                               (InsertionWord(s=3, threes=(1, 2)), 1, 1),
                               (InsertionWord(s=2, gammas=(0,), threes=(0,)), 1, 0),
                               (InsertionWord(s=3, threes=(2, 3)), 1, 0)):
        for _ in range(2):  # the second pricing builds nothing
            del words[:], alphas[:]
            values.append(_priced(model, wall, word))
            assert (len(words), len(alphas)) == (entry, alpha), word
            entry = alpha = 0
        assert values[-1] == values[-2] == _fresh(q, blocks, pr, wall, word)
    assert len(set(values)) == len(values) // 2
    assert _alpha_powers(model) == [0, 1, 2, 3, 4]
    assert [len(model.memo(slot)) for slot in (WORD_READS, WORD_READS_A)] == [6, 3]
    # th_1 . i_{be_2} omega vanishes, and a vanishing odd product raises no alpha power
    other = model.with_gram(Pairings(**dict(vars(pr), sigmaAlpha=5)).gram())
    del alphas[:]
    assert _priced(other, wall, InsertionWord(s=2, gammas=(0,), threes=(1,))) == 0
    assert not alphas and _alpha_powers(other) == []
    assert other.memo(PREFIX_READS_A)[((0,), (1,), 0)] == {}


def test_alpha_powers_are_kept_by_s_sigma_alpha_and_zeta_alpha(monkeypatch):
    # (-e_alpha + aX)^s reads s, Sigma.alpha and zeta.alpha only: a model that
    # differs in either pairing raises its own, one that differs in any other
    # pairing shares the first model's, and every model prices as a fresh one
    alphas = _counting(monkeypatch, "e_alpha")
    q, blocks, zeta2 = 2, (1, 2), -1
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1)
    words = [InsertionWord(s=4), InsertionWord(r=1, s=2), InsertionWord(s=1, gammas=(0, 1)),
             InsertionWord(s=2, gammas=(0,), threes=(0,)), InsertionWord(s=3, threes=(2, 3))]
    base = dict(BASE, zeta2=zeta2, zetaK=1)
    changed = set()
    for key in ("sigmaAlpha", "zetaAlpha", "sigmaZeta", "sigmaK", "zeta2", "zetaK", "K2",
                "Kalpha", "alpha2"):
        j_side = _j_side(q, blocks)
        values = []
        for pairs in (base, dict(base, **{key: OTHER[key]})):
            pr = Pairings(**pairs)
            model = j_side.with_gram(pr.gram())
            del alphas[:]
            values.append([delta_oracle_l0(model, wall, word).value for word in words])
            # four values of s among the five words
            assert len(alphas) == (4 if pairs is base or READS[key][4] else 0), key
            assert _alpha_powers(model) == [1, 2, 3, 4]
            assert values[-1] == [_fresh(q, blocks, pr, wall, word) for word in words], key
        if values[0] != values[1]:
            changed.add(key)
    assert {"sigmaAlpha", "zetaAlpha"} <= changed


def _expanded_value(model, wall, word):
    """The l = 0 oracle's value of ``word`` from its whole X-polynomial, expanded
    factor by factor, each X^N term integrated against its substitute
    (-1)^(N - N_-) s_(N - 1 - N_+ - N_-), summed over the wall's Chern data here
    rather than read from the X-table."""
    datas = oracle._table_datas(model, wall, "unified")
    low = wall.n_plus + wall.n_minus + 1
    factors = [({1: model.theta(i)}, 1) for i in word.gammas]
    factors += [({0: -e_zeta_beta(model, j)}, 1) for j in word.threes]
    factors += [({2: model.scalar(Fraction(-1, 4))}, word.r),
                ({0: -e_alpha(model), 1: model.scalar(model.pair("zeta", "alpha") / 2)}, word.s)]
    total = Fraction(0)
    for n, c in _expand(model, factors).items():
        if n >= low:
            substitute = sum((segre_from_ch(data, n - low) for data in datas), model.zero())
            total += (-1) ** (n - wall.n_minus) * integrate_product(c, substitute, jacobian=True)
    return wall.sign_complex() * total


def test_a_word_is_its_prefix_times_the_alpha_power():
    # x^r alpha^s is priced from the alpha power alone, scaled by (-1/4)^r and
    # shifted by X^(2r); an odd word from its prefix c X^(|gamma| + 2r) times each
    # alpha-power term.  Both equal the whole X-polynomial expanded, for every r
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    cases = nonzero = 0
    for zeta2, zetaK, sz, za in itertools.product((-3, -5), (1, -1), (1, -2), (3, Fraction(1, 2))):
        wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
        model = j_side.with_gram(Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                                          sigmaAlpha=2, sigmaK=-1, K2=8, Kalpha=1).gram())
        d = wall.d
        words = [InsertionWord(r=r, s=d - 2 * r) for r in range(d // 2 + 1)]
        words += [InsertionWord(r=r, s=d - 3 - 2 * r, gammas=(0, 1)) for r in range(2)]
        words += [InsertionWord(r=r, s=d - 1 - 2 * r, threes=(2, 3)) for r in range(2)]
        words += [InsertionWord(r=r, s=d - 2 - 2 * r, gammas=(3,), threes=(2,)) for r in range(2)]
        for word in words:
            value = delta_oracle_l0(model, wall, word).value
            assert value == _expanded_value(model, wall, word), (wall, word)
            cases += 1
            nonzero += value != 0
        # the words x^r alpha^s keep no entry of their own
        assert not [key for key in model.memo(WORD_READS) if type(key) is not int
                    and not key.odd_count()]
    assert (cases, nonzero) == (168, 130)


def test_an_odd_prefix_is_kept_by_its_indices_r_and_sigma_zeta():
    # words with one odd part and different r keep one prefix each: (-1/4)^r is
    # part of it.  A prefix with A-insertions reads Sigma.zeta, so a model that
    # differs there keeps its own; one without them is shared by every model
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    walls = [WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1) for zeta2 in (-1, -3)]
    words = [(walls[0], InsertionWord(s=1, gammas=(0, 1))),
             (walls[1], InsertionWord(r=1, s=1, gammas=(0, 1))),
             (walls[0], InsertionWord(s=3, threes=(2, 3))),
             (walls[0], InsertionWord(r=1, s=1, threes=(2, 3))),
             (walls[1], InsertionWord(r=2, s=1, threes=(2, 3)))]
    models, values = [], []
    for sz in (1, -2):
        pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=3, sigmaZeta=sz, sigmaAlpha=2, sigmaK=-1)
        model = j_side.with_gram(pr.gram())
        models.append(model)
        for wall, word in words:
            pairs = Pairings(**dict(vars(pr), zeta2=wall.zeta2))
            values.append(delta_oracle_l0(model, wall, word).value)
            assert values[-1] == _fresh(q, blocks, pairs, wall, word) != 0, word
    plain = {((0, 1), (), 0), ((0, 1), (), 1)}
    with_a = {((), (2, 3), r) for r in range(3)}
    assert plain <= set(j_side.memo(())) and not plain & set(j_side.memo(PREFIX_READS_A))
    assert [set(model.memo(PREFIX_READS_A)) for model in models] == [with_a, with_a]
    assert models[0].memo(PREFIX_READS_A) is not models[1].memo(PREFIX_READS_A)
    assert len(set(values)) == len(values)


def test_vol_and_f_are_kept_once_per_j_side(monkeypatch):
    # neither reads a pairing: a second with_gram model computes neither
    # again, a model over other blocks does; F is kept by both index lists
    vols = _counting(monkeypatch, "integrate_jacobian", jacobian)
    odds = _counting(monkeypatch, "integrate_product", jacobian)
    # consecutive lists share their gammas or their A indices; at blocks (2, 3)
    # no two share their F
    lists = [((0, 1), ()), ((0, 1), (2, 3)), ((), (2, 3)), ((2, 3), (0, 1)), ((), (0, 1))]
    seen = []
    for blocks in ((2, 3), (1, 5)):
        j_side = _j_side(2, blocks)
        for pairs in (BASE, OTHER):
            model = j_side.with_gram(Pairings(**pairs).gram())
            del vols[:], odds[:]
            got = [volume(model)] + [jacobian_odd_integral(model, *key) for key in lists]
            first = pairs is BASE
            assert (len(vols), len(odds)) == ((1, len(lists)) if first else (0, 0)), blocks
            fresh = build_model(PairingInput(q=2, pairings=Pairings(**pairs), a_blocks=blocks))
            assert got == [volume(fresh)] + [jacobian_odd_integral(fresh, *key) for key in lists]
            seen.append(got)
    assert seen[0] == seen[1] != seen[2] == seen[3] and len(set(seen[0][1:])) == len(lists)


def test_a_table_is_built_once_per_branch_wall_and_table_pairings(monkeypatch):
    # however many words and with_gram models over one J-side price a wall, the
    # extension data is built once per (branch, wall, TABLE_READS), and the table
    # holds at most q + 2l + 1 substitutes, all with N <= d
    builds = _counting(monkeypatch, "_table_datas")
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    l0 = WallGeometry.build(p1=-1, q=q, zeta2=-1, zetaK=1)
    l1 = WallGeometry.build(p1=-5, q=q, zeta2=-1, zetaK=1)
    words = {l0: [InsertionWord(s=3, threes=(0, 1)), InsertionWord(s=4), InsertionWord(r=2),
                  InsertionWord(s=1, gammas=(0, 1)), InsertionWord(gammas=(2, 3), threes=(0, 1))],
             l1: [InsertionWord(r=r, s=l1.d - 2 * r) for r in (0, 2, l1.d // 2)]}
    priced, tables = [], {}
    # the alpha pairings are read by no table; Sigma.zeta and K^2 are
    for sz, k2 in ((1, 8), (-2, 8), (1, -4)):
        for za, sa, a2 in ((3, 2, -1), (Fraction(1, 2), -1, 5)):
            pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=za, sigmaZeta=sz, sigmaAlpha=sa,
                          sigmaK=-1, K2=k2, Kalpha=1, alpha2=a2)
            model = j_side.with_gram(pr.gram())
            for wall, wall_words in words.items():
                priced += [(pr, wall, word, _priced(model, wall, word)) for word in wall_words]
                table = _table(model, wall)
                tables.setdefault((wall, sz, k2), set()).add(id(table))
                assert 0 < len(table) <= q + 2 * wall.l_zeta + 1
                assert set(table) <= set(range(wall.d + 1))
    assert len(builds) == len(tables) == 6
    assert all(len(ids) == 1 for ids in tables.values())
    assert all(value == _fresh(q, blocks, pr, wall, word) for pr, wall, word, value in priced)
    assert len(priced) == 48 and sum(value != 0 for *_, value in priced) == 45
    # a vanishing odd product builds no table
    model = j_side.with_gram(Pairings(zeta2=-1, zetaK=1, zetaAlpha=3, sigmaZeta=5).gram())
    del builds[:]
    assert _priced(model, l0, InsertionWord(s=2, gammas=(0,), threes=(1,))) == 0
    assert not builds and _table(model, l0) is None


def _memo_parts(j_side):
    """The J-side memo split by layout: (term dicts, integration forms, scalars)."""
    dicts, forms, scalars = [], [], []
    for (reads, *_), slot in j_side._memo.items():
        for key, entry in slot.items():
            if reads == TABLE_READS:  # an X-table: a form by N
                forms += entry.values()
            elif reads in (WORD_READS, WORD_READS_A):
                if type(key) is int:  # the alpha power: term dicts and forms by b
                    terms, pairs = entry
                    dicts += terms.values()
                    forms += pairs.values()
                else:  # an odd word's integration pairs by b
                    assert reads == WORD_READS_A or not key.threes, key
                    forms += entry.values()
            elif reads == PREFIX_READS_A or len(key) == 3:
                # an odd prefix, under its gamma and A indices and r
                assert bool(key[1]) == (reads == PREFIX_READS_A), key
                dicts.append(entry)
            else:
                assert reads == () and (key == "volume" or len(key) == 2), key
                scalars.append(entry)
    return dicts, forms, scalars


def _form_ints(form):
    """A form's numerators: an index {s: {j: num}} or pairs {s: ((j, num), ...)}."""
    for part in form[1].values():
        yield from (part.values() if isinstance(part, dict) else (num for _, num in part))


def test_the_memo_and_the_values_hold_fractions_only():
    # exactness guard: int / int is a float in Python, so every coefficient the
    # memo keeps and every value priced from it must be a Fraction, and every
    # integration form int numerators over a positive int denominator, reduced
    from wallcross.verify import _words_with_odd, valid_zeta_k
    values = []
    j_sides = []
    for q, blocks in ((1, (3,)), (2, (2, 3)), (3, (1, 2, 3))):
        j_side = _j_side(q, blocks)
        j_sides.append(j_side)
        by_degree = {}
        for word in _words_with_odd(q, r_max=1, s_max=4, odd_max=2):
            by_degree.setdefault(word.degree(), []).append(word)
        for degree, words in by_degree.items():
            d = degree // 2
            zeta2 = -(d + 3 * (1 - q))
            if degree % 2 or zeta2 >= 0:
                continue
            for zetaK in valid_zeta_k(q, zeta2, 0)[:2]:
                wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
                for sz, sa, za in itertools.product((1, -2), (Fraction(1, 2), 3), (2, -3)):
                    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                                  sigmaAlpha=sa, sigmaK=1, K2=-4, Kalpha=2, alpha2=-1)
                    model = j_side.with_gram(pr.gram())
                    values += [delta_oracle_l0(model, wall, word).value for word in words]
                    values += [delta_l0_odd(wall, model, word).value for word in words]
        # an l = 1 table indexes S-words other than 1, over non-integral pairings
        wall = WallGeometry.build(p1=-8, q=q, zeta2=-4, zetaK=2)
        model = j_side.with_gram(Pairings(zeta2=-4, zetaK=2, zetaAlpha=Fraction(3, 2),
                                          sigmaZeta=1, sigmaAlpha=Fraction(-1, 3), sigmaK=3,
                                          K2=8, Kalpha=2, alpha2=Fraction(-1, 3)).gram())
        values += [delta_oracle_l1(model, wall, r).value for r in (0, 1)]
        values.append(volume(model))
    dicts, forms, scalars = (sum(parts, []) for parts in zip(*map(_memo_parts, j_sides)))
    # a slot is keyed by its read pairings as (numerator, denominator) ints
    assert {type(x) for j_side in j_sides for key in j_side._memo for pair in key[1:]
            for x in pair} == {int}
    coeffs = [c for terms in dicts for c in terms.values()]
    assert {type(v) for v in values + coeffs + scalars} == {Fraction}
    dens = [den for den, _ in forms]
    nums = [num for form in forms for num in _form_ints(form)]
    assert {type(n) for n in dens + nums} == {int} and min(dens) > 0
    assert all(math.gcd(den, *_form_ints(form)) == 1 for den, form in zip(dens, forms))
    assert max(dens) > 1 and any(len(form[1]) > 1 for form in forms)
    assert len(values) > 4000 and len(coeffs) > 300 and len(nums) > 1000 and any(values)
