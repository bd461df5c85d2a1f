"""delta.evaluate: the one entry point that picks the route pricing a word."""

import pytest

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, RegimeError,
                       WallGeometry, build_model, delta, evaluate)

PAIRINGS = dict(zetaAlpha=2, sigmaZeta=1, sigmaAlpha=1, K2=8, alpha2=-1)


def _case(p1, q, zeta2, zetaK):
    pr = Pairings(zeta2=zeta2, zetaK=zetaK, **PAIRINGS)
    wall = WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=zetaK)
    return build_model(PairingInput(q=q, pairings=pr)), wall, pr


L0 = _case(p1=-2, q=1, zeta2=-2, zetaK=0)    # d = 2
L1 = _case(p1=-8, q=1, zeta2=-4, zetaK=0)    # d = 8
L2 = _case(p1=-12, q=0, zeta2=-4, zetaK=0)   # d = 9


def test_each_path_prices_the_word_closed_form_first():
    for (model, wall, pr), word in ((L0, InsertionWord(r=1)), (L0, InsertionWord(s=2)),
                                    (L0, InsertionWord(gammas=(0,), threes=(1,))),
                                    (L1, InsertionWord(r=1, s=6))):
        closed, oracle = evaluate(model, wall, pr, word)
        assert (closed.path, oracle.path) == ("closed-form", "ring-oracle")
        assert closed.value == oracle.value
        assert evaluate(model, wall, pr, word, "closed") == (closed,)
        assert evaluate(model, wall, pr, word, "oracle") == (oracle,)
    (lead,) = evaluate(*L2, InsertionWord(s=9), "leading")
    assert (lead.path, lead.modulus_exponent) == ("leading-term", 7)  # d - 2r - 2l - q + 2


def test_guards():
    model, wall, pr = L0
    with pytest.raises(PreconditionError, match="unknown evaluation path"):
        evaluate(model, wall, pr, InsertionWord(s=2), "fast")
    for path in delta.PATHS:
        # alpha^4 used to be answered with the value of alpha^2
        with pytest.raises(PreconditionError, match="not 2d = 4"):
            evaluate(model, wall, pr, InsertionWord(s=4), path)
    odd = InsertionWord(gammas=(0,), threes=(1,))
    with pytest.raises(PreconditionError, match="leading terms"):
        evaluate(model, wall, pr, odd, "leading")
    for path in ("auto", "closed", "oracle"):
        with pytest.raises(RegimeError, match="odd insertions"):
            evaluate(*L1, InsertionWord(s=6, gammas=(0,), threes=(1,)), path)
        with pytest.raises(RegimeError, match='l_zeta = 2 .* the "leading" path gives'):
            evaluate(*L2, InsertionWord(s=9), path)


def test_volume_only_on_closed_and_leading_paths(monkeypatch):
    calls = []
    volume = delta.volume
    monkeypatch.setattr(delta, "volume", lambda model: calls.append(1) or volume(model))
    word = InsertionWord(s=2)
    evaluate(*L0, word, "oracle")
    evaluate(*L0, InsertionWord(gammas=(0,), threes=(1,)), "closed")
    assert calls == []
    evaluate(*L0, word, "closed")
    evaluate(*L0, word, "leading")
    assert len(calls) == 2
