"""delta.evaluate: the one entry point that picks the route pricing a word."""

from fractions import Fraction

import pytest

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, RegimeError,
                       WallGeometry, build_model, delta, evaluate, volume)
from wallcross.closed import delta_l0, delta_l0_odd, delta_l1, delta_leading
from wallcross.oracle import delta_oracle_l0, delta_oracle_l1
from wallcross.verify import valid_zeta_k

PAIRINGS = dict(zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1, K2=8, alpha2=-1)


def _case(p1, q, zeta2, zetaK):
    pr = Pairings(zeta2=zeta2, zetaK=zetaK, **PAIRINGS)
    wall = WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK)
    return build_model(PairingInput(q=q, pairings=pr)), wall


L0 = _case(p1=-2, q=1, zeta2=-2, zetaK=0)    # d = 2
L1 = _case(p1=-8, q=1, zeta2=-4, zetaK=0)    # d = 8
L2 = _case(p1=-12, q=0, zeta2=-4, zetaK=0)   # d = 9


def test_each_path_prices_the_word_closed_form_first():
    for (model, wall), word in ((L0, InsertionWord(r=1)), (L0, InsertionWord(s=2)),
                                (L0, InsertionWord(gammas=(0,), threes=(1,))),
                                (L1, InsertionWord(r=1, s=6))):
        closed, oracle = evaluate(model, wall, word)
        assert (closed.path, oracle.path) == ("closed-form", "ring-oracle")
        assert closed.value == oracle.value
        assert evaluate(model, wall, word, "closed") == (closed,)
        assert evaluate(model, wall, word, "oracle") == (oracle,)
    (lead,) = evaluate(*L2, InsertionWord(s=9), "leading")
    assert (lead.path, lead.modulus_exponent) == ("leading-term", 7)  # d - 2r - 2l - q + 2


def test_guards():
    model, wall = L0
    with pytest.raises(PreconditionError, match="unknown evaluation path"):
        evaluate(model, wall, InsertionWord(s=2), "fast")
    for path in delta.PATHS:
        # alpha^4 used to be answered with the value of alpha^2
        with pytest.raises(PreconditionError, match="not 2d = 4"):
            evaluate(model, wall, InsertionWord(s=4), path)
    odd = InsertionWord(gammas=(0,), threes=(1,))
    with pytest.raises(PreconditionError, match="leading terms"):
        evaluate(model, wall, odd, "leading")
    for path in ("auto", "closed", "oracle"):
        with pytest.raises(RegimeError, match="odd insertions"):
            evaluate(*L1, InsertionWord(s=6, gammas=(0,), threes=(1,)), path)
        with pytest.raises(RegimeError, match='l_zeta = 2 .* the "leading" path gives'):
            evaluate(*L2, InsertionWord(s=9), path)
    # a q = 1 wall on a q = 2 model: at l = 0 and l = 1 the closed form gave a
    # nonzero value and the oracle 0, with no error
    q2 = build_model(PairingInput(q=2, pairings=Pairings(zeta2=-4, zetaK=2, **PAIRINGS)))
    for p1 in (-4, -8):
        wall = WallGeometry.build(p1=p1, q=1, zeta2=-4, zetaK=2)
        for path in delta.PATHS:
            with pytest.raises(PreconditionError, match="a wall of q = 1 on a model of q = 2"):
                evaluate(q2, wall, InsertionWord(s=wall.d), path)


def test_how_many_times_each_path_admits_a_point(monkeypatch):
    # the l = 0 routes take the model and the word and admit them, so evaluate
    # leaves an l = 0 point to them; on the leading path and at l = 1 the routes
    # take r and pairings, so evaluate admits the point too (an auto l = 0 point
    # was admitted three times, evaluate's and one per route)
    calls = []
    real = WallGeometry.admit
    monkeypatch.setattr(WallGeometry, "admit",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))

    def admits(case, word, path):
        calls.clear()
        evaluate(*case, word, path)
        return len(calls)
    odd = InsertionWord(gammas=(0,), threes=(1,))
    assert [admits(L0, word, path) for word in (InsertionWord(r=1), odd)
            for path in ("auto", "closed", "oracle")] == [2, 1, 1] * 2
    assert [admits(L1, InsertionWord(r=1, s=6), path)
            for path in ("auto", "closed", "oracle")] == [3, 2, 2]
    assert [admits(case, InsertionWord(s=case[1].d), "leading") for case in (L0, L1, L2)] == [2] * 3


def test_the_routes_taking_a_model_refuse_a_wall_of_another_q():
    # on a q = 2 model the q = 1, l = 1 wall p1 = -8 was priced 0 by the oracle
    # (delta_l1 gives -640), and the l = 0 wall p1 = -4 was priced 0 too
    q2 = build_model(PairingInput(q=2, pairings=Pairings(zeta2=-4, zetaK=2, **PAIRINGS)))
    l0, l1 = (WallGeometry(p1=p1, q=1, zeta2=-4, zetaK=2) for p1 in (-4, -8))
    calls = [lambda: delta_oracle_l1(q2, l1, 0),
             lambda: delta_oracle_l0(q2, l0, InsertionWord(s=l0.d)),
             lambda: delta_l0_odd(l0, q2, InsertionWord(s=l0.d - 2, gammas=(0,), threes=(1,)))]
    for call in calls:
        with pytest.raises(PreconditionError, match="a wall of q = 1 on a model of q = 2"):
            call()


def test_every_path_prices_the_pairings_of_its_model():
    # evaluate reads the pairings off the model, so a J-side built from one set of
    # pairings and moved to another prices the second on every path, as a model
    # built fresh from it does; on the README's wall a second, disagreeing
    # pairings argument once gave closed -14 against oracle -10
    cases = [(WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1), InsertionWord(s=1), 1,
              dict(zeta2=-1, zetaK=1, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1),
              dict(zeta2=-1, zetaK=1, zetaAlpha=3, sigmaZeta=1, sigmaAlpha=1))]
    for q, p1, zeta2, l in ((1, -4, -4, 0), (2, -8, -4, 1), (2, -12, -4, 2)):
        wall = WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=valid_zeta_k(q, zeta2, l)[0])
        pairs = dict(zeta2=zeta2, zetaK=wall.zetaK, zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1,
                     sigmaK=2, K2=8, Kalpha=-1, alpha2=-1)
        cases.append((wall, InsertionWord(r=1, s=wall.d - 2), q, pairs,
                      dict(pairs, zetaAlpha=Fraction(-3, 2), sigmaZeta=2, alpha2=3, K2=0)))
    for wall, word, q, first, second in cases:
        j_side = build_model(PairingInput(q=q, pairings=Pairings(**first), a_blocks=(2,) * q))
        moved = j_side.with_pairings(Pairings(**second))
        fresh = build_model(PairingInput(q=q, pairings=Pairings(**second), a_blocks=(2,) * q))
        assert moved.pairings == fresh.pairings == Pairings(**second)
        for path in delta.PATHS if wall.l_zeta <= 1 else ("leading",):
            values = evaluate(moved, wall, word, path)
            assert values == evaluate(fresh, wall, word, path), (wall, path)
            assert values != evaluate(j_side, wall, word, path), (wall, path)
    wall, word, q, first, second = cases[0]
    moved = build_model(PairingInput(q=1, pairings=Pairings(**first))).with_pairings(
        Pairings(**second))
    assert [v.value for v in evaluate(moved, wall, word)] == [-14, -14]


def test_volume_only_on_the_leading_and_l1_closed_paths(monkeypatch):
    # every l = 0 word goes through delta_l0_odd, whose F reads no volume, and
    # evaluate has no delta_l0 to call
    assert not hasattr(delta, "delta_l0")
    calls = []
    volume = delta.volume
    monkeypatch.setattr(delta, "volume", lambda model: calls.append(1) or volume(model))
    for word in (InsertionWord(s=2), InsertionWord(r=1),
                 InsertionWord(gammas=(0,), threes=(1,))):
        for path in ("auto", "closed", "oracle"):
            evaluate(*L0, word, path)
    assert calls == []
    evaluate(*L0, InsertionWord(s=2), "leading")
    assert len(calls) == 1
    evaluate(*L1, InsertionWord(r=1, s=6), "closed")
    assert len(calls) == 2


def test_the_routes_taking_r_refuse_a_bad_r():
    # on q = 1, zeta^2 = -4 walls r = -1 used to be priced as a word that does not
    # exist (delta_l1 gave -3008, delta_l0 and delta_leading -80), and "1" or 1.5
    # raised a bare TypeError; an integral r given as text is that r
    l0, l1 = (_case(p1=p1, q=1, zeta2=-4, zetaK=2) for p1 in (-4, -8))
    routes = [lambda r: delta_l0(l0[1], l0[0].pairings, r, volume(l0[0])),
              lambda r: delta_leading(l0[1], l0[0].pairings, r, volume(l0[0])),
              lambda r: delta_l1(l1[1], l1[0].pairings, r, volume(l1[0])),
              lambda r: delta_oracle_l1(l1[0], l1[1], r)]
    for route in routes:
        for bad, message in ((-1, "must be non-negative, got -1"),
                             (1.5, "must be an integer, got 3/2"),
                             ("x", "must be an integer, got 'x'")):
            with pytest.raises(PreconditionError, match=f"the multiplicity r {message}"):
                route(bad)
        assert route("1") == route(Fraction(1)) == route(1)


def test_closed_and_oracle_agree_at_large_q(monkeypatch):
    # every other tier-1 test prices at q <= 3: l = 0 at q = 8 and 12 on words
    # x^r alpha^s and gamma_1 A_1 (F != 0), and l = 1 at q = 6.  An l = 0 word is
    # priced in the omega-subring, so it takes no Segre class of the full kernel;
    # at q = 12 one such class is a sum over up to 2^24 theta-monomials
    from wallcross import chern, closed, oracle
    segre_calls = []
    real = chern.segre_from_ch
    for module in (chern, closed, oracle):
        monkeypatch.setattr(module, "segre_from_ch",
                            lambda *args: segre_calls.append(args) or real(*args))
    cases = 0
    for q, zeta2, l in ((8, -1, 0), (12, -1, 0), (6, -4, 1)):
        zeta_k = valid_zeta_k(q, zeta2, l)[0]
        pr = Pairings(zeta2=zeta2, zetaK=zeta_k, zetaAlpha=Fraction(3, 2), sigmaZeta=2,
                      sigmaAlpha=-1, sigmaK=1, K2=8, Kalpha=1, alpha2=-1)
        wall = WallGeometry.build(p1=zeta2 - 4 * l, q=q, zeta2=zeta2, zetaK=zeta_k)
        blocks = tuple(1 + i % 3 for i in range(q))
        model = build_model(PairingInput(q=q, pairings=pr, a_blocks=blocks))
        words = [InsertionWord(r=r, s=wall.d - 2 * r) for r in range(3)]
        if l == 0:
            words.append(InsertionWord(s=wall.d - 2, gammas=(0,), threes=(0,)))
        for word in words:
            closed_value, oracle_value = evaluate(model, wall, word)
            assert closed_value.value == oracle_value.value != 0, (q, word)
            cases += 1
        # q = 12 includes x^1 alpha^32 and alpha^32 gamma_1 A_1 (d = 34)
        assert (len(segre_calls) == 0) == (l == 0), (q, len(segre_calls))
    assert cases == 11


def test_a_fresh_large_q_model_prices_l0_without_ring_products(monkeypatch):
    # omega^q is raised in ints, so neither vol nor an l = 0 word at q = 12
    # multiplies ring elements, whether vol is asked first or by evaluate
    from wallcross.graded import GradedElement
    calls = []
    real = GradedElement.__mul__
    monkeypatch.setattr(GradedElement, "__mul__",
                        lambda self, other: calls.append(1) or real(self, other))
    q, zeta2 = 12, -1
    zeta_k = valid_zeta_k(q, zeta2, 0)[0]
    pr = Pairings(zeta2=zeta2, zetaK=zeta_k, zetaAlpha=Fraction(3, 2), sigmaZeta=2,
                  sigmaAlpha=-1, sigmaK=1, K2=8, Kalpha=1, alpha2=-1)
    wall = WallGeometry.build(p1=zeta2, q=q, zeta2=zeta2, zetaK=zeta_k)
    inp = PairingInput(q=q, pairings=pr, a_blocks=tuple(1 + i % 3 for i in range(q)))
    word = InsertionWord(r=1, s=wall.d - 2)  # x^1 alpha^32
    model = build_model(inp)
    assert volume(model) == 6 ** 4 and calls == []
    closed_value, oracle_value = evaluate(model, wall, word)
    assert closed_value.value == oracle_value.value != 0 and calls == []
    assert evaluate(build_model(inp), wall, word) == (closed_value, oracle_value)
    assert calls == []
