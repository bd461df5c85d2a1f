"""Ring-oracle internals: extension Chern data, substitution table, regimes."""

import itertools
import math
import random
import pytest

from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, RegimeError,
                       WallGeometry, build_model, volume)
from wallcross.chern import ch_direct_sum, ch_dual, segre_from_ch
from wallcross.closed import delta_l0, delta_l0_odd, delta_l1
from wallcross import jacobian, oracle
from wallcross.graded import S_ONE, SIGMA, integrate, integrate_jacobian
from wallcross.jacobian import e_alpha, e_zeta, e_zeta_beta, jacobian_odd_integral
from wallcross.oracle import ch_extension_bundles, delta_oracle_l0, delta_oracle_l1
from wallcross.verify import valid_zeta_k

from conftest import exp_truncated, make_model


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
        ch_p, ch_m = ch_extension_bundles(model, wall, k)
        assert ch_p.rank == 1 + wall.h_plus + wall.q
        assert ch_m.rank == 1 + wall.h_minus + wall.q
    wall0, model0 = _wall_and_model(l=0)
    ch_p, ch_m = ch_extension_bundles(model0, wall0, 0)
    assert ch_p.rank == wall0.h_plus + wall0.q
    assert ch_m.rank == wall0.h_minus + wall0.q
    # l is the wall's own: an l = 2 wall is refused, and k runs over 0..l
    wall2, model2 = _wall_and_model(l=2)
    assert wall2.l_zeta == 2
    with pytest.raises(RegimeError):
        ch_extension_bundles(model2, wall2, 0)
    with pytest.raises(PreconditionError):
        ch_extension_bundles(model, wall, 2)
    with pytest.raises(PreconditionError):
        ch_extension_bundles(model0, wall0, 1)


def test_l0_pair_chern_character():
    wall, model = _wall_and_model(l=0)
    ch_p, ch_m = ch_extension_bundles(model, wall, 0)
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
        ch_p, ch_m = ch_extension_bundles(model, wall, 0)
        lhs = _data_element(ch_direct_sum(ch_p, ch_dual(ch_m)))
        two_e = 2 * uni
        rhs = (model.scalar(-wall.zeta2 + 2 * q - 2) - 4 * e_zeta(model)
               + 2 * exp_truncated(zs) * exp_truncated(two_e)
               + (ks * ks) / 2 + ks * zs
               + ks * (model.one() + two_e + 2 * uni * uni))
        assert lhs == rhs
        # the k = 1 pair is the K -> -K mirror
        ch_p1, ch_m1 = ch_extension_bundles(model, wall, 1)
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
            ch_p, ch_m = ch_extension_bundles(model, wall, k)
            total = total + segre_from_ch(ch_direct_sum(ch_p, ch_dual(ch_m)), n)
            fh_p, fh_m = ch_extension_bundles(flipped, wall, k)
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
    # a word of odd odd-count has odd degree, so no wall admits it: it was priced 0
    odd_parity = InsertionWord(r=0, s=1, gammas=(0,))
    with pytest.raises(PreconditionError, match=r"alpha\^1 d1 has degree 5, not 2d = 8"):
        delta_oracle_l0(model, wall, odd_parity)
    # x^r alpha^(d - 2r) with 2r > d is no word: it was priced 0
    wall1, model1 = _wall_and_model(q=0, zetaK=0, l=1)
    with pytest.raises(PreconditionError, match="needs 2r <= d"):
        delta_oracle_l1(model1, wall1, (wall1.d + 2) // 2)


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
    from wallcross.closed import delta_l0_odd
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


def test_the_alpha_power_is_the_sequential_expansion():
    # A^s = (-e_alpha + aX)^s, which both oracles price as
    # sum_b C(s, b) a^b t^(s - b) omega^(s - b) X^b with t = 2 Sigma.alpha, equals s
    # multiplies of the binomial, with zeta.alpha and Sigma.alpha rational, zero or not
    for za, sa in ((Fraction(3, 2), Fraction(-1, 3)), (0, 2), (3, 0)):
        _, model = _wall_and_model(q=2, zetaAlpha=za, sigmaAlpha=sa)
        a, t = model.pair("zeta", "alpha") / 2, 2 * model.pair(SIGMA, "alpha")
        binomial = {0: -e_alpha(model), 1: model.scalar(a)}
        for s in range(7):
            expanded = _sequential_expand(model, [(binomial, s)])
            terms = {b: model.omega_pow(s - b) * (math.comb(s, b) * a ** b * t ** (s - b))
                     for b in range(s + 1)}
            assert expanded == {b: c for b, c in terms.items() if not c.is_zero()}, (za, sa, s)
            # omega^3 = 0 at q = 2: A^s has at most three terms, and a = 0 or t = 0 one
            assert len(expanded) == (min(s, 2) + 1 if za and sa else int(s <= 2 or not sa))


def test_direct_l0_extension_data_equals_the_split_character():
    # at l = 0 the Chern data is built as (h + q, (e,)) directly; it must equal
    # splitting the character h + q + e in rank and in every a_i, e = 0 and q = 0 included
    from wallcross.chern import chern_data_from_element
    from wallcross.jacobian import e_divisor
    cases = 0
    for q, blocks in ((0, None), (1, (3,)), (2, (1, 2))):
        zeta2 = -4
        for zetaK, sigma_z, sigma_k in itertools.product((0, 2), (1, Fraction(-1, 2)), (2, 0, -1)):
            wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
            model = make_model(q=q, blocks=blocks, zeta2=zeta2, zetaK=zetaK,
                               sigmaZeta=sigma_z, sigmaK=sigma_k)
            direct = ch_extension_bundles(model, wall, 0)
            for data, h, d_dot in ((direct[0], wall.h_plus, sigma_k - 2 * sigma_z),
                                   (direct[1], wall.h_minus, sigma_k + 2 * sigma_z)):
                split = chern_data_from_element(model.scalar(h + q) + e_divisor(model, d_dot))
                assert data.rank == split.rank
                assert [data.a_i(i) for i in range(q + 4)] == [split.a_i(i) for i in range(q + 4)]
                assert data == split
                cases += 1
    assert cases == 72


# small rationals, zero twice as likely as any other value
SMALL = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))


@st.composite
def l1_walls_and_models(draw):
    """An l = 1 wall of q <= 4 and a model whose nine pairings are any small rationals,
    zeros included, over nonzero rational blocks or a dense rational a_matrix."""
    q, zeta2 = draw(st.sampled_from((4, 3, 2, 1, 0))), draw(st.integers(-10, -1))
    zeta_ks = valid_zeta_k(q, zeta2, 1)
    assume(zeta_ks)
    wall = WallGeometry.build(p1=zeta2 - 4, q=q, zeta2=zeta2, zetaK=draw(st.sampled_from(zeta_ks)))
    pairings = {key: draw(SMALL) for key in ("zeta2", "zetaK", "zetaAlpha", "sigmaZeta",
                                             "sigmaAlpha", "sigmaK", "K2", "Kalpha", "alpha2")}
    if draw(st.booleans()):
        blocks = tuple(draw(st.lists(SMALL.filter(bool), min_size=q, max_size=q)))
        return wall, make_model(q=q, blocks=blocks, **pairings)
    n = 2 * q
    upper = draw(st.lists(SMALL.filter(bool), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    entries = {(i, j): upper.pop() for i in range(n) for j in range(i + 1, n)}
    matrix = tuple(tuple(entries[i, j] if i < j else -entries[j, i] if i > j else 0
                         for j in range(n)) for i in range(n))
    return wall, make_model(q=q, matrix=matrix, **pairings)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(l1_walls_and_models())
def test_l1_extension_data_equals_the_split_character(wall_and_model):
    # at l = 1 each bundle's data is built as (h + q + 1, e + x, x^2, x^3, ...) for
    # its line class x; it must equal splitting the character h + q + e + exp(x),
    # with the exponential summed as a series, in rank and in every a_i
    from wallcross.chern import chern_data_from_element
    from wallcross.jacobian import e_divisor
    wall, model = wall_and_model
    q, zs, ks = model.q, model.even("zeta"), model.even("K")
    two_e = 2 * model.universal_class()
    sigma_k, sigma_z = model.pair(SIGMA, "K"), model.pair(SIGMA, "zeta")
    sides = ((wall.h_plus, sigma_k - 2 * sigma_z), (wall.h_minus, sigma_k + 2 * sigma_z))
    lines = {0: (zs + two_e, -zs - ks - two_e), 1: (zs - ks + two_e, -zs - two_e)}
    for k, xs in lines.items():
        for data, (h, d_dot), x in zip(ch_extension_bundles(model, wall, k), sides, xs):
            split = chern_data_from_element(
                model.scalar(h + q) + e_divisor(model, d_dot) + exp_truncated(x))
            assert data.rank == split.rank == h + q + 1
            assert [data.a_i(i) for i in range(q + 4)] == [split.a_i(i) for i in range(q + 4)]
            assert data == split


def test_an_l1_table_takes_its_data_from_the_line_classes_not_a_split(monkeypatch):
    # one l = 1 X-table build makes the data of both strata, two bundles each, and
    # splits no Chern character; the other words on the wall build nothing
    from wallcross import chern
    strata = _counting(monkeypatch, "ch_extension_bundles")
    splits = _counting(monkeypatch, "chern_data_from_element", chern)
    monkeypatch.setattr(oracle, "chern_data_from_element", chern.chern_data_from_element,
                        raising=False)
    wall, model = _wall_and_model(q=2)
    assert wall.l_zeta == 1
    values = [delta_oracle_l1(model, wall, r).value for r in range(wall.d // 2 + 1)]
    assert (len(strata), len(splits)) == (2, 0)
    assert values == [delta_l1(wall, model.pairings, r, volume(model)).value
                      for r in range(wall.d // 2 + 1)]


# -- the J-side cache -----------------------------------------------------------

def _priced(model, wall, word, branch="unified"):
    if wall.l_zeta == 1:
        return delta_oracle_l1(model, wall, word.r).value
    return delta_oracle_l0(model, wall, word, branch).value


def _fresh(q, blocks, pr, wall, word, branch="unified"):
    return _priced(build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks)),
                   wall, word, branch)


def _j_side(q, blocks):
    return build_model(PairingInput(q=q, pairings=Pairings(), a_blocks=blocks))


# the pairings an l = 1 and an l = 0 X-table read, written out here rather than
# taken from the oracle; Sigma.K cancels from the unified l = 0 table's alpha_1
L1_TABLE_PAIRS = ((SIGMA, "zeta"), (SIGMA, "K"), ("zeta", "zeta"), ("zeta", "K"), ("K", "K"))
L0_TABLE_PAIRS = {"unified": ((SIGMA, "zeta"),), "component": ((SIGMA, "zeta"), (SIGMA, "K"))}


def _ints(model, pairs):
    """The model's pairings of ``pairs`` as the numerator and denominator ints of a key."""
    return tuple(x for pair in pairs for x in model.pair(*pair).as_integer_ratio())


def _table(model, wall, branch="unified"):
    """A wall's kept X-table, under its kind, N_+, N_-, d and the pairings it reads,
    and at l = 0 its branch."""
    if wall.l_zeta == 1:
        return model.cache.get(("l1 table", wall.n_plus, wall.n_minus, wall.d)
                               + _ints(model, L1_TABLE_PAIRS))
    return model.cache.get(("l0 table", branch, wall.n_plus, wall.n_minus, wall.d)
                           + _ints(model, L0_TABLE_PAIRS[branch]))


def _kept(model, kind):
    """The keys of one kind of value in the model's cache."""
    return {key for key in model.cache if key[0] == kind}


def _counting(monkeypatch, name, module=oracle):
    """Count the calls of ``module.<name>`` from here on; returns the call list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _recording_reads(monkeypatch):
    """The set of X-powers that the oracles read from their tables from here on."""
    reads = set()

    class Recorded(dict):
        def get(self, n, default=None):
            if n in self:
                reads.add(n)
            return dict.get(self, n, default)

        def __getitem__(self, n):
            reads.add(n)
            return dict.__getitem__(self, n)

    for name in ("_x_table", "_l0_table"):
        monkeypatch.setattr(oracle, name,
                            lambda *args, real=getattr(oracle, name): Recorded(real(*args)))
    return reads


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
    reads = _recording_reads(monkeypatch)
    models, tables, read = {}, {}, {}
    nonzero = extended = 0
    for q, blocks, pr, wall, branch, words in cases:
        model = models.setdefault((q, pr), build_model(
            PairingInput(q=q, pairings=pr, a_blocks=blocks)))
        for word in words:
            reads.clear()
            value = _priced(model, wall, word, branch)
            table = _table(model, wall, branch)
            before = read.setdefault(id(table), set())
            after = before | reads
            assert value == _fresh(q, blocks, pr, wall, word, branch), (word, branch)
            kept = tables.setdefault(id(table), (table, dict(table)))
            assert kept[0] is table and kept[1] == table
            nonzero += value != 0
            extended += bool(before) and after > before
            read[id(table)] = after
    assert (nonzero, extended) == (12, 4)


def test_a_priced_model_is_freed_without_the_cycle_collector():
    # the cache holds term dicts and ints, never elements, so no reference cycle
    # keeps a model, or a J-side and the with_pairings models sharing its cache,
    # alive once the last reference is dropped
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
        # an l = 1 X-table under (N_+, N_-, d), an l = 0 one under (branch, N_+, N_-, d),
        # each with the pairings it reads: Sigma.zeta = 1, Sigma.K = 2, zeta^2 = -4,
        # zeta.K = 2 and K^2 = 8, the unified l = 0 one Sigma.zeta alone.  One I_c per odd part, at the j = q - (|gamma| + |A|)/2
        # that the word's degree leaves, shared by both r; only those with
        # A-insertions read Sigma.zeta.  vol and F read no pairing
        assert (wall1.n_plus, wall1.n_minus, wall1.d) == (4, 2, 11)
        assert (wall0.n_plus, wall0.n_minus, wall0.d) == (3, 1, 7)
        assert set(model.cache) == {("l1 table", 4, 2, 11, 1, 1, 2, 1, -4, 1, 2, 1, 8, 1),
                                    ("l0 table", "unified", 3, 1, 7, 1, 1),
                                    ("I_c", (0, 1), (2, 3), 0, 1, 1), ("I_c", (), (), 2),
                                    ("volume",), ("F", (0, 1), (2, 3))}
        ref = weakref.ref(model)
        del model
        assert ref() is None
        j_side = _j_side(2, (1, 2))
        models = [j_side.with_pairings(Pairings(zeta2=-4, zetaK=2, zetaAlpha=za, sigmaZeta=sz,
                                                sigmaAlpha=1, sigmaK=2, K2=8))
                  for za, sz in ((3, 1), (3, -2), (-1, 1))]
        for model in models:
            price(model)
        # the models differ in Sigma.zeta, 1 or -2, so they keep two of each table
        # and two I_c with A-insertions; vol, F and I_c of c = 1 read no pairing, and
        # one entry each serves all three models
        assert len(_kept(j_side, "l1 table")) == len(_kept(j_side, "l0 table")) == 2
        assert _kept(j_side, "I_c") == {("I_c", (0, 1), (2, 3), 0, 1, 1),
                                        ("I_c", (0, 1), (2, 3), 0, -2, 1), ("I_c", (), (), 2)}
        assert _kept(j_side, "volume") | _kept(j_side, "F") == {("volume",),
                                                                ("F", (0, 1), (2, 3))}
        refs = [weakref.ref(m) for m in (j_side, *models)]
        del j_side, models, model
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


# pairing -> (read by an l = 1 X-table, by an l = 0 X-table, by I_c of an odd
# part with A-insertions), written out here rather than taken from the oracle's
# read sets; vol, F and I_c of an odd part without A-insertions read none, and
# no kept entry reads an alpha pairing
READS = {"sigmaZeta": (True, True, True),
         "sigmaK": (True, False, False),  # read by the component l = 0 table only
         "zeta2": (True, False, False),
         "zetaK": (True, False, False),
         "K2": (True, False, False),
         "sigmaAlpha": (False, False, False),
         "zetaAlpha": (False, False, False),
         "Kalpha": (False, False, False),
         "alpha2": (False, False, False)}
BASE = dict(zeta2=-4, zetaK=2, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=1, sigmaK=2,
            K2=8, Kalpha=-1, alpha2=-1)
OTHER = dict(zeta2=-8, zetaK=0, zetaAlpha=-1, sigmaZeta=-2, sigmaAlpha=2, sigmaK=3,
             K2=-4, Kalpha=2, alpha2=3)


def test_models_differing_in_one_pairing_share_exactly_the_entries_that_do_not_read_it(
        monkeypatch):
    # two with_pairings models over one J-side that differ in one pairing: each
    # entry that reads it is built again, every other one is shared, and both
    # models price as fresh models do.  A model is priced on the walls of its own
    # zeta^2 and zeta.K, so those two pairings move the walls, and the X-tables
    # with them, while I_c, F and vol stay shared
    strata = _counting(monkeypatch, "ch_extension_bundles")  # two per l = 1 table
    # an I_c is integrated on a miss only, and e_zeta_beta enters it for an odd
    # part with A-insertions; that of gamma_1 gamma_2 reads no pairing
    moments = _counting(monkeypatch, "integrate_product")
    prefixes = _counting(monkeypatch, "e_zeta_beta")
    vols = _counting(monkeypatch, "integrate_jacobian", jacobian)
    odds = _counting(monkeypatch, "integrate_product", jacobian)
    q, blocks = 1, (2,)
    changed = set()
    for key, (l1_table, l0_table, with_a) in READS.items():
        moves_wall = key in ("zeta2", "zetaK")
        j_side = _j_side(q, blocks)
        values, models, walls = [], [], []
        for pairs in (BASE, dict(BASE, **{key: OTHER[key]})):
            pr = Pairings(**pairs)
            model = j_side.with_pairings(pr)
            models.append(model)
            wall0, wall1 = (WallGeometry.build(p1=pairs["zeta2"] - 4 * l, q=q,
                                               zeta2=pairs["zeta2"], zetaK=pairs["zetaK"])
                            for l in (0, 1))
            walls.append(wall0)
            words0 = [InsertionWord(r=1, s=wall0.d - 2),
                      InsertionWord(s=wall0.d - 2, gammas=(1,), threes=(1,)),
                      InsertionWord(s=wall0.d - 3, gammas=(0, 1))]
            words1 = [InsertionWord(r=r, s=wall1.d - 2 * r) for r in (0, 1)]
            del strata[:], moments[:], prefixes[:], vols[:], odds[:]
            priced = [_priced(model, wall0, word) for word in words0]
            # the l = 0 words have the odd parts 1, gamma_2 A_2 and gamma_1 gamma_2,
            # one I_c each, and the one A-insertion enters once
            built = [len(moments), len(prefixes)]
            priced += [_priced(model, wall1, word) for word in words1]
            priced += [volume(model), delta_l0_odd(wall0, model, words0[1]).value]
            # the first model builds the l = 1 table (both strata), vol and F
            built += [len(strata), len(vols), len(odds)]
            expect = ([3, 1, 2, 1, 1] if pairs is BASE
                      else [with_a, with_a, 2 * l1_table, 0, 0])
            assert built == expect, key
            fresh = build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks))
            assert priced == [_priced(fresh, wall, word)
                              for wall, words in ((wall0, words0), (wall1, words1))
                              for word in words] + [
                volume(fresh), delta_l0_odd(wall0, fresh, words0[1]).value], key
            values.append(priced)
        # the l = 0 table is kept once for both models unless it reads the pairing
        # or the wall moved
        tables = [_table(model, wall) for model, wall in zip(models, walls)]
        assert None not in tables and (tables[0] is tables[1]) != (l0_table or moves_wall), key
        if values[0] != values[1]:
            changed.add(key)
    # Sigma.K cancels from the unified l = 0 table, the walls of zeta.K = 0 price
    # these words as those of zeta.K = 2 do, and K.alpha is paired by neither route
    assert changed == {"sigmaZeta", "zeta2", "K2", "sigmaAlpha", "zetaAlpha", "alpha2"}


def test_walls_branches_and_words_keep_separate_entries(monkeypatch):
    moments = _counting(monkeypatch, "integrate_product")
    # four walls over one J-side: l = 0 and l = 1, two zeta.K each, each priced on
    # the model of its own zeta.K
    q, blocks, zeta2 = 1, (2,), -4
    j_side = _j_side(q, blocks)
    tables = []
    for p1, zetaK in ((zeta2, 2), (zeta2, -4), (zeta2 - 4, 2), (zeta2 - 4, 0)):
        pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=1,
                      sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
        model = j_side.with_pairings(pr)
        wall = WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK)
        word = InsertionWord(r=1, s=wall.d - 2)
        assert _priced(model, wall, word) == _fresh(q, blocks, pr, wall, word)
        tables.append(_table(model, wall))
    assert len({id(table) for table in tables}) == 4
    assert len(_kept(j_side, "l0 table")) == len(_kept(j_side, "l1 table")) == 2
    # the two l = 0 branches of an empty-side wall on one model
    q, zeta2 = 1, -2
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta2)
    pr = Pairings(zeta2=zeta2, zetaK=zeta2, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1,
                  sigmaK=4, K2=0, Kalpha=0, alpha2=1)
    model = _j_side(q, (3,)).with_pairings(pr)
    word = InsertionWord(r=1)
    for branch in ("unified", "component"):
        assert _priced(model, wall, word, branch) == _fresh(q, (3,), pr, wall, word, branch)
    assert _table(model, wall, "unified") is not _table(model, wall, "component")
    assert len(_kept(model, "l0 table")) == 2
    # words of one degree on one model and wall: one I_c per odd part, which the
    # words x^r alpha^s share as the odd part 1; a word misses it only when no
    # earlier word with its odd part read it
    q, blocks, zeta2 = 2, (1, 2), -1
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1)
    pr = Pairings(zeta2=zeta2, zetaK=1, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2,
                  sigmaK=-1, K2=8, Kalpha=1, alpha2=-1)
    model = _j_side(q, blocks).with_pairings(pr)
    values = []
    for word, missed in ((InsertionWord(r=2), 1), (InsertionWord(r=1, s=2), 0),
                         (InsertionWord(s=4), 0), (InsertionWord(s=1, gammas=(0, 1)), 1),
                         (InsertionWord(s=3, threes=(1, 2)), 1),
                         (InsertionWord(s=2, gammas=(0,), threes=(0,)), 1),
                         (InsertionWord(s=3, threes=(2, 3)), 1)):
        for _ in range(2):  # the second pricing builds nothing
            del moments[:]
            values.append(_priced(model, wall, word))
            assert len(moments) == missed, word
            missed = 0
        assert values[-1] == values[-2] == _fresh(q, blocks, pr, wall, word)
    assert len(set(values)) == len(values) // 2
    # each at the j = q - (|gamma| + |A|)/2 that its degree leaves, those with
    # A-insertions under Sigma.zeta = 1 too
    assert _kept(model, "I_c") == {("I_c", (), (), 2), ("I_c", (0, 1), (), 1),
                                   ("I_c", (), (1, 2), 1, 1, 1), ("I_c", (0,), (0,), 1, 1, 1),
                                   ("I_c", (), (2, 3), 1, 1, 1)}
    # th_1 . i_{be_2} omega vanishes, and so does its I_c
    other = model.with_pairings(Pairings(**dict(vars(pr), sigmaAlpha=5)))
    assert _priced(other, wall, InsertionWord(s=2, gammas=(0,), threes=(1,))) == 0
    assert other.cache[("I_c", (0,), (1,), 1, 1, 1)] == (0, 1)


def test_w_variants_of_an_l1_wall_share_one_table(monkeypatch):
    # an l = 1 table reads N_+, N_-, d and five pairings, never w: walls that differ
    # in their w-variant alone build one table, whose sign they apply outside it,
    # and each prices as on a fresh model
    from wallcross.verify import W_VARIANTS, wall_with_variant
    strata = _counting(monkeypatch, "ch_extension_bundles")  # two per l = 1 table
    q, blocks, zeta2, zetaK = 2, (1, 2), -4, 2
    pr = Pairings(**dict(BASE, zeta2=zeta2, zetaK=zetaK))
    model = _j_side(q, blocks).with_pairings(pr)
    walls = [wall_with_variant(q, zeta2, 1, zetaK, variant) for variant in W_VARIANTS]
    assert len(set(walls)) == 3 and len({(w.n_plus, w.n_minus, w.d) for w in walls}) == 1
    values = [delta_oracle_l1(model, wall, r).value for wall in walls for r in (0, 1)]
    assert len(strata) == 2 and len(_kept(model, "l1 table")) == 1
    assert all(_table(model, wall) is _table(model, walls[0]) for wall in walls)
    assert values == [_fresh(q, blocks, pr, wall, InsertionWord(r=r, s=wall.d - 2 * r))
                      for wall in walls for r in (0, 1)]
    assert all(values) and len({wall.sign_complex for wall in walls}) == 2
    assert len(set(values)) == 4


def test_an_alpha_sweep_integrates_only_the_first_models_misses(monkeypatch):
    # neither I_c nor the l = 0 table reads an alpha pairing: over one J-side and
    # fixed table pairings, a sweep of Sigma.alpha x zeta.alpha integrates on the
    # first model's misses only, one integral per odd part, on one table, and
    # every model prices as a fresh one
    moments = _counting(monkeypatch, "integrate_product")
    q, blocks, zeta2 = 2, (1, 2), -1
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=1)
    words = [InsertionWord(s=4), InsertionWord(r=1, s=2), InsertionWord(s=1, gammas=(0, 1)),
             InsertionWord(s=2, gammas=(0,), threes=(0,)), InsertionWord(s=3, threes=(2, 3))]
    j_side = _j_side(q, blocks)
    values, tables = [], set()
    for sa, za in itertools.product((1, Fraction(-1, 3), 0), (3, Fraction(1, 2), 0)):
        pr = Pairings(**dict(BASE, zeta2=zeta2, zetaK=1, sigmaAlpha=sa, zetaAlpha=za))
        model = j_side.with_pairings(pr)
        del moments[:]
        values.append([delta_oracle_l0(model, wall, word).value for word in words])
        tables.add(id(_table(model, wall)))
        # the words x^r alpha^s share the odd part 1, and gamma_1 gamma_2,
        # gamma_1 A_1 and A_3 A_4 are one odd part each
        first = not values[1:]
        assert len(moments) == (4 if first else 0), (sa, za)
        assert values[-1] == [_fresh(q, blocks, pr, wall, word) for word in words], (sa, za)
    assert len(tables) == 1
    assert len({tuple(v) for v in values}) == len(values) == 9


def _expanded_value(model, wall, word):
    """The oracle's value of ``word`` from its whole X-polynomial, expanded one
    multiply at a time, each X^N term integrated against its substitute
    (-1)^(N - N_-) s_(N - 1 - N_+ - N_-), summed over the wall's Chern data here
    rather than read from the X-table, as the ring product c * substitute.  At
    l = 1 the point insertion is [S] - X^2/4 and the alpha insertion
    alpha_S - e_alpha + aX."""
    l1 = wall.l_zeta == 1
    datas = [ch_direct_sum(ch_plus, ch_dual(ch_minus))
             for ch_plus, ch_minus in (ch_extension_bundles(model, wall, k)
                                       for k in range(wall.l_zeta + 1))]
    low = wall.n_plus + wall.n_minus + 1
    surface_point, surface_alpha = ((model.point(), model.even("alpha")) if l1
                                    else (model.zero(), model.zero()))
    factors = [({1: model.theta(i)}, 1) for i in word.gammas]
    factors += [({0: -e_zeta_beta(model, j)}, 1) for j in word.threes]
    factors += [({0: surface_point, 2: model.scalar(Fraction(-1, 4))}, word.r),
                ({0: surface_alpha - e_alpha(model),
                  1: model.scalar(model.pair("zeta", "alpha") / 2)}, word.s)]
    total = Fraction(0)
    for n, c in _sequential_expand(model, factors).items():
        if n >= low:
            substitute = sum((segre_from_ch(data, n - low) for data in datas), model.zero())
            total += (-1) ** (n - wall.n_minus) * (integrate if l1 else integrate_jacobian)(
                c * substitute)
    return wall.sign_complex * total


def test_a_word_is_its_prefix_times_the_alpha_power():
    # a word is (-1/4)^r c X^(|gamma| + 2r) times the alpha power, priced from the
    # scalar X-table and I_c of its odd part c (c = 1 for x^r alpha^s) times the
    # scalars of the alpha power's terms; it equals the whole X-polynomial
    # expanded in the full kernel, for every r
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    cases = nonzero = 0
    for zeta2, zetaK, sz, za in itertools.product((-3, -5), (1, -1), (1, -2), (3, Fraction(1, 2))):
        wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zetaK)
        model = j_side.with_pairings(Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                                              sigmaAlpha=2, sigmaK=-1, K2=8, Kalpha=1))
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
    # every word x^r alpha^s, on every wall, reads the one I_c(q) of c = 1
    assert {key for key in j_side.cache if key[:3] == ("I_c", (), ())} == {("I_c", (), (), q)}
    assert (cases, nonzero) == (168, 130)


def test_an_l1_word_is_surface_classes_times_alpha_powers():
    # the l = 1 oracle sums C(r, i) C(s, j) (-1/4)^(r - i) [S]^i alpha_S^j
    # X^(2r - 2i) A^(s - j); it equals the whole word expanded one multiply at
    # a time, with alpha^2 zero or not
    cases = nonzero = 0
    for q, blocks in ((0, None), (1, (3,)), (2, (1, 2))):
        j_side = _j_side(q, blocks)
        for zeta2, zetaK in ((-4, 2), (-4, 0), (-8, 2)):
            wall = WallGeometry.build(p1=zeta2 - 4, q=q, zeta2=zeta2, zetaK=zetaK)
            for za, a2 in ((Fraction(3, 2), -1), (-2, 0)):
                model = j_side.with_pairings(Pairings(
                    zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=1,
                    sigmaAlpha=Fraction(-1, 3), sigmaK=2, K2=8, Kalpha=1, alpha2=a2))
                for r in range(min(3, wall.d // 2) + 1):
                    value = delta_oracle_l1(model, wall, r).value
                    assert value == _expanded_value(
                        model, wall, InsertionWord(r=r, s=wall.d - 2 * r)), (wall, za, a2, r)
                    cases += 1
                    nonzero += value != 0
    assert cases == nonzero == 68


def test_an_l1_word_in_ints_is_the_ring_expansion_and_the_closed_form():
    # the l = 1 word loop sums int numerators over one denominator; on random walls
    # whose zeta.alpha, Sigma.alpha, alpha^2 and K^2 have denominators 2, 3, 4 or 6
    # (with rational blocks, Sigma.zeta and Sigma.K) it must equal the whole word
    # expanded one ring multiply at a time, and the closed form
    rng = random.Random(1717)

    def rational():
        return Fraction(rng.choice((-5, -3, -1, 1, 2, 5)), rng.choice((2, 3, 4, 6)))
    cases = nonzero = 0
    for _ in range(14):
        q = rng.randint(0, 2)
        zeta2 = rng.choice((-4, -8))
        wall = WallGeometry.build(p1=zeta2 - 4, q=q, zeta2=zeta2, zetaK=rng.choice((0, 2)))
        pr = Pairings(zeta2=zeta2, zetaK=wall.zetaK, zetaAlpha=rational(),
                      sigmaZeta=rational(), sigmaAlpha=rational(), sigmaK=rational(),
                      K2=rational(), Kalpha=rational(), alpha2=rational())
        model = build_model(PairingInput(q=q, pairings=pr,
                                         a_blocks=tuple(rational() for _ in range(q))))
        for r in range(min(2, wall.d // 2) + 1):
            value = delta_oracle_l1(model, wall, r).value
            assert type(value) is Fraction
            assert value == _expanded_value(model, wall, InsertionWord(r=r, s=wall.d - 2 * r))
            assert value == delta_l1(wall, pr, r, volume(model)).value, (wall, pr, r)
            cases += 1
            nonzero += value != 0
    assert cases >= 35 and nonzero >= 30, (cases, nonzero)


def test_an_l1_word_on_a_built_table_takes_no_ring_product(monkeypatch):
    # each surface class meets the X-table through the S-product and one Jacobian
    # dot product per S-word, so once a wall's table is built, pricing the words
    # x^r alpha^(d - 2r) multiplies no ring elements
    from wallcross.graded import GradedElement
    wall, model = _wall_and_model(q=2, zeta2=-8, zetaAlpha=Fraction(3, 2),
                                  sigmaAlpha=Fraction(-1, 3), alpha2=Fraction(-1, 3))
    oracle._x_table(model, wall)
    products = _counting(monkeypatch, "__mul__", GradedElement)
    values = [delta_oracle_l1(model, wall, r).value for r in range(4)]
    assert products == [] and wall.d >= 6 and all(values)


def test_an_l0_table_entry_is_its_full_kernel_segre_class():
    # the l = 0 X-table lives in the omega-subring: on both branches, at q <= 4,
    # on random walls with their w-variants and rational Sigma.zeta and Sigma.K,
    # each entry (num, den, m) times omega^m equals the full-kernel substitute
    # (-1)^(N - N_-) s_(N - 1 - N_+ - N_-)(E_zeta (+) E_{-zeta}^dual), or
    # s_(N - N_-)(E_{-zeta}) on the component branch, and the table keeps exactly
    # the nonzero ones; w changes no substitute, so the w-variants share the table
    import random
    from wallcross.errors import InvalidWallError
    from wallcross.verify import W_VARIANTS, valid_zeta_k, wall_with_variant
    rng = random.Random(141)
    entries = shared = 0
    for q in range(5):
        j_side = _j_side(q, tuple(rng.choice((1, 2, -3, Fraction(1, 2))) for _ in range(q)))
        for _ in range(6):
            zeta2 = -rng.randint(1, 9)
            if not valid_zeta_k(q, zeta2, 0):
                continue
            zeta_k = rng.choice(valid_zeta_k(q, zeta2, 0))
            sz, sk = (Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(2))
            model = j_side.with_pairings(Pairings(zeta2=zeta2, zetaK=zeta_k, sigmaZeta=sz,
                                                  sigmaK=sk))
            walls = []
            for variant in W_VARIANTS:
                try:
                    walls.append(wall_with_variant(q, zeta2, 0, zeta_k, variant))
                except InvalidWallError:
                    pass
            wall = walls[0]
            ch_plus, ch_minus = ch_extension_bundles(model, wall, 0)
            for branch, data, low in (
                    ("unified", ch_direct_sum(ch_plus, ch_dual(ch_minus)),
                     wall.n_plus + wall.n_minus + 1),
                    ("component", ch_minus, wall.n_minus)):
                expect = {}
                for n in range(max(low, 0), wall.d + 1):
                    segre = segre_from_ch(data, n - low)
                    if branch == "unified" and (n - wall.n_minus) % 2:
                        segre = -segre
                    if not segre.is_zero():
                        expect[n] = segre
                tables = [oracle._l0_table(model, w, branch) for w in walls]
                assert {n: model.omega_pow(m) * Fraction(num, den)
                        for n, (num, den, m) in tables[0].items()} == expect, (q, wall, branch)
                assert all(table is tables[0] for table in tables)
                entries += len(expect)
                shared += len(tables) - 1
    assert entries > 150 and shared > 20


def test_each_jacobian_moment_is_the_integral_of_c_omega_j():
    # I_c(j) == integrate_jacobian(c omega^j), c the word's odd factors in their
    # order (th_i for gamma_i, -e_{zeta,beta_j} for A_j), for every j <= q + 1
    import random
    rng = random.Random(1962)
    pf6 = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
    cases = nonzero = 0
    for q, shape in ((1, dict(blocks=(3,))), (2, dict(blocks=(Fraction(1, 2), 3))),
                     (2, dict(matrix=pf6)), (3, dict(blocks=(1, -2, 3)))):
        model = make_model(q=q, sigmaZeta=Fraction(-3, 2), **shape)
        for _ in range(25):
            gammas, threes = (tuple(rng.sample(range(2 * q), rng.randint(0, 2)))
                              for _ in range(2))
            c = model.one()
            for i in gammas:
                c = c * model.theta(i)
            for i in threes:
                c = c * -e_zeta_beta(model, i)
            word = InsertionWord(gammas=gammas, threes=threes)
            for j in range(q + 2):
                want = integrate_jacobian(c * model.omega_pow(j))
                assert oracle._jacobian_moment(model, word, j) == (
                    want.numerator, want.denominator), (q, word, j)
                # only c omega^j of the top degree 2q can integrate to nonzero
                assert not want or 2 * j + len(gammas) + len(threes) == 2 * q
                cases += 1
                nonzero += want != 0
    assert cases == 25 * 16 and nonzero > 15


def _l0_per_term(model, wall, word, branch):
    """The l = 0 oracle's sum with I_c read at every term: the reference for
    ``delta_oracle_l0``, which reads it once per word."""
    a_cnt = len(word.gammas)
    za, sa = model.pair("zeta", "alpha"), model.pair(SIGMA, "alpha")
    x, y = za.numerator * sa.denominator, 4 * sa.numerator * za.denominator
    table = oracle._l0_table(model, wall, branch)
    s, top = word.s, word.s + a_cnt + 2 * word.r
    num, den = 0, 1
    for b in range(max(s - model.q, 0), s + 1):
        k = s - b
        entry = table.get(top - k)
        if entry:
            t_num, t_den, m = entry
            i_num, i_den = oracle._jacobian_moment(model, word, k + m)
            term = math.comb(s, b) * x ** b * y ** k * t_num * i_num
            if term:
                num, den = num * t_den * i_den + term * den, den * t_den * i_den
    scale = (-4) ** word.r * (2 * za.denominator * sa.denominator) ** s
    return Fraction(wall.sign_complex * num, den * scale)


@st.composite
def l0_points(draw):
    """(q, blocks, pairings, wall, word): an l = 0 wall of q <= 4, its empty-side wall
    drawn often enough for the component branch, rational pairings and blocks, and
    a word of degree 2d with gamma- and A-insertions."""
    q, zeta2 = draw(st.integers(0, 4)), draw(st.integers(-10, -1))
    zeta_ks = valid_zeta_k(q, zeta2, 0)
    empty_side = zeta2 + 2 - 2 * q  # h(zeta) + q = 0
    assume(zeta_ks)
    zeta_k = draw(st.sampled_from(zeta_ks + [empty_side] * (empty_side in zeta_ks)))
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta_k)
    indices = st.lists(st.integers(0, 2 * q - 1), unique=True, max_size=min(2 * q, 3))
    gammas, threes = (tuple(draw(indices)) if q else () for _ in range(2))
    assume((len(gammas) + len(threes)) % 2 == 0)  # an odd count has odd degree
    r = draw(st.integers(0, max(wall.d, 0) // 2))  # s < q too, where the first entry has m > 0
    s = wall.d - 2 * r - (3 * len(gammas) + len(threes)) // 2
    assume(s >= 0)
    pairings = Pairings(zeta2=zeta2, zetaK=zeta_k, zetaAlpha=draw(SMALL), sigmaZeta=draw(SMALL),
                        sigmaAlpha=draw(SMALL), sigmaK=draw(SMALL))
    blocks = tuple(draw(st.lists(SMALL.filter(bool), max_size=q)))
    return q, blocks, pairings, wall, InsertionWord(r=r, s=s, gammas=gammas, threes=threes)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(l0_points())
# Sigma.zeta = 0 leaves one entry, X^(d - q), and x^2 on d = 4 reads X^4 alone: no I_c
@example((2, (1, 2), Pairings(zeta2=-1, zetaK=1, zetaAlpha=1, sigmaAlpha=1, sigmaK=1),
          WallGeometry(-1, 2, -1, 1), InsertionWord(r=2, s=0)))
def test_the_l0_terms_share_one_moment(point):
    # k + m = top - low for every table entry, so the terms read one I_c: the sum
    # with I_c factored out is the per-term sum, one call reads at most one I_c,
    # and the cache gains the same keys, none for a word that no entry meets
    q, blocks, pairings, wall, word = point
    for branch in ("unified", "component") if wall.empty_side else ("unified",):
        reference, model = (build_model(PairingInput(q=q, pairings=pairings, a_blocks=blocks))
                            for _ in range(2))
        want = _l0_per_term(reference, wall, word, branch)
        with pytest.MonkeyPatch.context() as patch:
            moments = _counting(patch, "_jacobian_moment")
            assert delta_oracle_l0(model, wall, word, branch).value == want, (word, branch)
        assert len(moments) <= 1
        assert set(model.cache) == set(reference.cache), (word, branch)


def test_odd_word_moments_are_shared_across_r(monkeypatch):
    # a word's degree leaves j = q - (|gamma| + |A|)/2, so words with one odd part
    # read one I_c whatever their r and wall: it is kept by the odd indices and j.
    # I_c with A-insertions reads Sigma.zeta, so a model that differs there keeps
    # its own; those without are shared by every model
    moments = _counting(monkeypatch, "integrate_product")
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    wall = WallGeometry.build(p1=-3, q=q, zeta2=-3, zetaK=1)  # d = 6
    other = WallGeometry.build(p1=-5, q=q, zeta2=-5, zetaK=1)  # d = 8
    parts = [[InsertionWord(r=r, s=3 - 2 * r, gammas=(0, 1)) for r in range(2)],
             [InsertionWord(r=r, s=5 - 2 * r, threes=(2, 3)) for r in range(3)]]
    models, values = [], []
    for sz in (1, -2):
        pr = Pairings(zeta2=-3, zetaK=1, zetaAlpha=3, sigmaZeta=sz, sigmaAlpha=2, sigmaK=-1)
        model = j_side.with_pairings(pr)
        models.append(model)
        for words in parts:
            missed = []
            for word in words:
                del moments[:]
                values.append(delta_oracle_l0(model, wall, word).value)
                missed.append(len(moments))
                assert values[-1] == _fresh(q, blocks, pr, wall, word) != 0, word
            # r = 0 misses I_c unless an earlier model kept it; every later r, and
            # the same odd part on another wall, reads it
            del moments[:]
            longer = InsertionWord(r=1, s=words[0].s, gammas=words[0].gammas,
                                   threes=words[0].threes)
            pr_other = Pairings(**dict(vars(pr), zeta2=-5))
            value = delta_oracle_l0(j_side.with_pairings(pr_other), other, longer).value
            missed.append(len(moments))
            assert value == _fresh(q, blocks, pr_other, other, longer) != 0, longer
            first = model is models[0] or bool(words[0].threes)
            assert missed == [int(first)] + [0] * len(words), words
    # one I_c of gamma_1 gamma_2 for both models, one of A_3 A_4 per Sigma.zeta
    assert _kept(j_side, "I_c") == {("I_c", (0, 1), (), 1), ("I_c", (), (2, 3), 1, 1, 1),
                                    ("I_c", (), (2, 3), 1, -2, 1)}
    # Sigma.zeta enters every value through the table, and the A-insertions too
    assert all(v != w for v, w in zip(values[:5], values[5:]))


def test_a_fresh_model_prices_an_l0_word_without_ring_work(monkeypatch):
    # once a J-side has priced a word, both routes price an l = 0 word on a fresh
    # with_pairings model of it with no ring product and no integral: vol, F and the
    # I_c of an odd part read no pairing (with A-insertions, Sigma.zeta alone) and
    # the X-table is built in ints; counted by call, not by time
    from wallcross.delta import evaluate
    from wallcross.graded import GradedElement
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    wall = WallGeometry.build(p1=-3, q=q, zeta2=-3, zetaK=1)  # d = 6
    words = [InsertionWord(r=1, s=4), InsertionWord(s=3, gammas=(0, 1)),
             InsertionWord(s=5, threes=(2, 3)), InsertionWord(s=4, gammas=(0,), threes=(0,))]
    base = dict(zeta2=-3, zetaK=1, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=2, sigmaK=-1)
    for word in words:
        evaluate(j_side.with_pairings(Pairings(**base)), wall, word)
    # every pairing moves; Sigma.zeta too for the words without A-insertions
    others = [dict(base, zetaAlpha=-1, sigmaAlpha=5, sigmaK=3, K2=8, Kalpha=2, alpha2=-1),
              dict(base, sigmaZeta=-2, zetaAlpha=Fraction(1, 2), sigmaK=7)]
    expect = [[evaluate(build_model(PairingInput(q=q, pairings=Pairings(**pairs),
                                                  a_blocks=blocks)), wall, word)
               for word in words] for pairs in others]
    products = _counting(monkeypatch, "__mul__", GradedElement)
    integrals = (_counting(monkeypatch, "integrate_product"),
                 _counting(monkeypatch, "integrate_product", jacobian))
    for pairs, want in zip(others, expect):
        for word, values in zip(words, want):
            if pairs["sigmaZeta"] != base["sigmaZeta"] and word.threes:
                continue
            assert evaluate(j_side.with_pairings(Pairings(**pairs)), wall, word) == values
            assert values[0].value == values[1].value != 0, word
    assert products == [] and integrals == ([], [])


def test_vol_and_f_are_kept_once_per_j_side(monkeypatch):
    # neither reads a pairing: a second with_pairings model computes neither
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
            model = j_side.with_pairings(Pairings(**pairs))
            del vols[:], odds[:]
            got = [volume(model)] + [jacobian_odd_integral(model, *key) for key in lists]
            first = pairs is BASE
            assert (len(vols), len(odds)) == ((1, len(lists)) if first else (0, 0)), blocks
            fresh = build_model(PairingInput(q=2, pairings=Pairings(**pairs), a_blocks=blocks))
            assert got == [volume(fresh)] + [jacobian_odd_integral(fresh, *key) for key in lists]
            seen.append(got)
    assert seen[0] == seen[1] != seen[2] == seen[3] and len(set(seen[0][1:])) == len(lists)


def test_a_table_is_built_once_per_branch_wall_and_table_pairings(monkeypatch):
    # however many words and with_pairings models over one J-side price a wall, its
    # table is built once per wall and the pairings it reads: Sigma.zeta, Sigma.K,
    # zeta^2, zeta.K and K^2 at l = 1 (from both strata), Sigma.zeta at l = 0 (and
    # Sigma.K on the component branch).  An l = 1 table holds at most q + 3 substitutes and an l = 0 table at
    # most q + 1, all with N <= d
    strata = _counting(monkeypatch, "ch_extension_bundles")
    q, blocks = 2, (1, 2)
    j_side = _j_side(q, blocks)
    l0 = WallGeometry.build(p1=-1, q=q, zeta2=-1, zetaK=1)
    l1 = WallGeometry.build(p1=-5, q=q, zeta2=-1, zetaK=1)
    words = {l0: [InsertionWord(s=3, threes=(0, 1)), InsertionWord(s=4), InsertionWord(r=2),
                  InsertionWord(s=1, gammas=(0, 1)), InsertionWord(gammas=(2, 3), threes=(0, 1))],
             l1: [InsertionWord(r=r, s=l1.d - 2 * r) for r in (0, 2, l1.d // 2)]}
    priced, tables = [], {}
    # the alpha pairings are read by no table; Sigma.zeta by both and K^2 at l = 1
    for sz, k2 in ((1, 8), (-2, 8), (1, -4)):
        for za, sa, a2 in ((3, 2, -1), (Fraction(1, 2), -1, 5)):
            pr = Pairings(zeta2=-1, zetaK=1, zetaAlpha=za, sigmaZeta=sz, sigmaAlpha=sa,
                          sigmaK=-1, K2=k2, Kalpha=1, alpha2=a2)
            model = j_side.with_pairings(pr)
            for wall, wall_words in words.items():
                priced += [(pr, wall, word, _priced(model, wall, word)) for word in wall_words]
                table = _table(model, wall)
                reads = (sz, k2) if wall.l_zeta else (sz,)
                tables.setdefault((wall, reads), set()).add(id(table))
                assert 0 < len(table) <= q + 2 * wall.l_zeta + 1
                assert set(table) <= set(range(wall.d + 1))
    assert len(strata) == 2 * 3 and len(tables) == 3 + 2
    assert all(len(ids) == 1 for ids in tables.values())
    assert len(set().union(*tables.values())) == 5
    assert all(value == _fresh(q, blocks, pr, wall, word) for pr, wall, word, value in priced)
    assert len(priced) == 48 and sum(value != 0 for *_, value in priced) == 45


def _memo_parts(j_side):
    """The J-side cache split by kind: (integration forms, l = 0 table scalars,
    I_c pairs, Fraction scalars, the ints of the keys).  Each key is its kind's
    tag, then ints, a branch or index tuples, then the pairings its value reads."""
    forms, scalars, moments, fractions, ints = [], [], [], [], []
    for key, entry in j_side.cache.items():
        kind = key[0]
        if kind == "l1 table":  # (N_+, N_-, d) and five pairings: a form by N
            assert len(key) == 4 + 2 * len(L1_TABLE_PAIRS), key
            ints += key[1:]
            forms += entry.values()
        elif kind == "l0 table":  # (branch, N_+, N_-, d) and its pairings: (num, den, m) by N
            assert len(key) == 5 + 2 * len(L0_TABLE_PAIRS[key[1]]), key
            ints += key[2:]
            assert all(0 <= m <= j_side.q for *_, m in entry.values())
            scalars += [(num, den) for num, den, _ in entry.values()]
        elif kind == "I_c":  # the gamma and A indices, j, and Sigma.zeta with A-insertions
            assert len(key) == (6 if key[2] else 4), key
            ints += [*key[1], *key[2], *key[3:]]
            moments.append(entry)
        elif kind == "F":  # the gamma and A indices
            assert len(key) == 3, key
            ints += [*key[1], *key[2]]
            fractions.append(entry)
        else:
            assert key == ("volume",), key
            fractions.append(entry)
    return forms, scalars, moments, fractions, ints


def _form_ints(form):
    """A form's numerators: an index {s: {j: num}}."""
    for part in form[1].values():
        yield from part.values()


def test_the_memo_and_the_values_hold_fractions_only(monkeypatch):
    # exactness guard: int / int is a float in Python, so every scalar the memo
    # keeps and every value priced from it must be a Fraction, every integration
    # form int numerators over a positive int denominator, reduced, every l = 0
    # table scalar and every I_c a reduced int pair, and every integral the
    # l = 1 oracle sums an int numerator over an int denominator
    from wallcross.verify import _words_with_odd, valid_zeta_k
    integrals = []
    real = oracle.integrate_forms

    def recorded(pairs, index, s=S_ONE):  # q is the loop's, read at the call
        integrals.append((q, s, real(pairs, index, s)))
        return integrals[-1][2]
    monkeypatch.setattr(oracle, "integrate_forms", recorded)
    values = []
    j_sides = []
    # rational blocks (Sigma rescaled) put denominators into omega, so into the
    # forms and I_c; rational Sigma.zeta puts them into the l = 0 tables
    for q, blocks in ((1, (3,)), (2, (2, 3)), (2, (Fraction(1, 2), 3)), (3, (1, 2, 3))):
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
                for sz, sa, za in itertools.product((1, Fraction(-2, 3)), (Fraction(1, 2), 3),
                                                    (2, -3)):
                    pr = Pairings(zeta2=zeta2, zetaK=zetaK, zetaAlpha=za, sigmaZeta=sz,
                                  sigmaAlpha=sa, sigmaK=1, K2=-4, Kalpha=2, alpha2=-1)
                    model = j_side.with_pairings(pr)
                    values += [delta_oracle_l0(model, wall, word).value for word in words]
                    values += [delta_l0_odd(wall, model, word).value for word in words]
        # an l = 1 table indexes S-words other than 1, and over non-integral
        # pairings a word reads their parts through S-products with Fraction
        # coefficients; rational Sigma.zeta and Sigma.K put denominators into its forms
        wall = WallGeometry.build(p1=-8, q=q, zeta2=-4, zetaK=2)
        model = j_side.with_pairings(Pairings(zeta2=-4, zetaK=2, zetaAlpha=Fraction(3, 2),
                                              sigmaZeta=Fraction(1, 3), sigmaAlpha=Fraction(-1, 3),
                                              sigmaK=Fraction(1, 2),
                                              K2=8, Kalpha=2, alpha2=Fraction(-1, 3)))
        values += [delta_oracle_l1(model, wall, r).value for r in (0, 1)]
        values.append(volume(model))
    forms, scalars, moments, fractions, key_ints = (
        sum(parts, []) for parts in zip(*map(_memo_parts, j_sides)))
    # a key names the pairings its value reads by (numerator, denominator) ints,
    # never a Fraction or a wall
    assert {type(x) for x in key_ints} == {int}
    assert {type(v) for v in values + fractions} == {Fraction}
    for pairs in (scalars, moments):
        assert {type(x) for pair in pairs for x in pair} == {int}
        assert all(den > 0 and math.gcd(num, den) == 1 for num, den in pairs)
        assert sum(den > 1 for _, den in pairs) > 10
    dens = [den for den, _ in forms]
    nums = [num for form in forms for num in _form_ints(form)]
    assert {type(n) for n in dens + nums} == {int} and min(dens) > 0
    assert all(math.gcd(den, *_form_ints(form)) == 1 for den, form in zip(dens, forms))
    assert max(dens) > 1 and any(len(form[1]) > 1 for form in forms)
    assert len(values) > 4000 and any(values)
    assert len(nums) > 100 and len(scalars) > 200 and len(moments) > 200
    # the q = 2, l = 1 integrals over Sigma.alpha = alpha^2 = -1/3 included
    assert {type(x) for *_, integral in integrals for x in integral} == {int}
    assert sum(q == 2 and s != S_ONE for q, s, _ in integrals) >= 5
