"""Model construction, distinguished classes, the odd functional, volumes."""

import itertools
import json
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, SchemaError,
                       build_model, volume)
from wallcross.jacobian import (e_alpha, e_gamma, e_zeta_beta, jacobian_odd_integral,
                                pairing_input_from_json)

from conftest import make_model


def test_q0_model_collapses():
    m = make_model(q=0)
    assert m.omega_class().is_zero()
    assert m.universal_class().is_zero()
    assert volume(m) == 1
    assert e_alpha(m).is_zero()


def test_volume_examples():
    assert volume(make_model(q=1, blocks=(1,))) == 1
    assert volume(make_model(q=1, blocks=(5,))) == 5
    assert volume(make_model(q=2, blocks=(1, 1))) == 1
    assert volume(make_model(q=2, blocks=(2, 3))) == 6
    assert volume(make_model(q=3, blocks=(1, 2, 3))) == 6
    # full-matrix form: Pfaffian 6
    matrix = ((0, 1, 1, 0), (-1, 0, 0, -5), (-1, 0, 0, 1), (0, 5, -1, 0))
    assert volume(make_model(q=2, matrix=matrix)) == 6


def test_default_blocks_are_principal():
    m = build_model(PairingInput(q=2, pairings=Pairings()))
    assert volume(m) == 1


def test_e_classes():
    m = make_model(q=1, sigmaAlpha=3)
    assert e_alpha(m) == -6 * m.omega_class()
    m0 = make_model(q=1, sigmaAlpha=0)
    assert e_alpha(m0).is_zero()
    assert e_gamma(m, 1) == m.theta(1)
    # e_{zeta be_i} = (Sigma.zeta) i_{be_i} omega
    m2 = make_model(q=2, blocks=(2, 3), sigmaZeta=5)
    assert e_zeta_beta(m2, 0) == 10 * m2.theta(1)
    assert e_zeta_beta(m2, 1) == -10 * m2.theta(0)
    assert e_zeta_beta(m2, 3) == -15 * m2.theta(2)
    with pytest.raises(PreconditionError):
        e_gamma(m, 5)


def test_e_alpha_agrees_with_slant_of_universal_square():
    # E^2 = -2 Sigma omega, so pairing the surface part against alpha
    # multiplies by (Sigma.alpha): compare against the closed form
    for q, blocks, sa in ((1, (1,), 3), (2, (2, 1), -2)):
        m = make_model(q=q, blocks=blocks, sigmaAlpha=sa)
        e2 = m.universal_class() ** 2
        # extract the omega coefficient of E^2 = -2 omega Sigma
        assert e2 == -2 * m.omega_class() * m.even("Sigma")
        assert e_alpha(m) == -2 * sa * m.omega_class()


def test_odd_functional_basics():
    m = make_model(q=1, blocks=(1,))
    assert jacobian_odd_integral(m, (), ()) == 1  # F(1) = integral of omega = 1
    degenerate = make_model(q=1, blocks=())
    assert jacobian_odd_integral(degenerate, (), ()) == 0
    assert jacobian_odd_integral(m, (0, 1), ()) == 1  # F(d1 d2) = int th1 th2
    assert jacobian_odd_integral(m, (0,), ()) == 0  # odd count
    # q - (a+b)/2 < 0: too many insertions
    assert jacobian_odd_integral(m, (0, 1), (0, 1)) == 0


def test_odd_functional_scales_with_blocks():
    m = make_model(q=1, blocks=(7,))
    assert jacobian_odd_integral(m, (), ()) == 7
    assert jacobian_odd_integral(m, (0, 1), ()) == 1
    assert jacobian_odd_integral(m, (), (0, 1)) == 49  # two interior products
    assert jacobian_odd_integral(m, (0,), (0,)) == 7
    assert jacobian_odd_integral(m, (1,), (1,)) == 7
    assert jacobian_odd_integral(m, (0,), (1,)) == 0  # mismatched pair content


def _rule_allows(q, r_blk, gammas, threes):
    """Combinatorial basis-selection rule for F over a block form with r_blk blocks."""
    gs, ts = set(gammas), set(threes)
    if not set(range(2 * r_blk, 2 * q)) <= gs:
        return False
    if ts & set(range(2 * r_blk, 2 * q)):
        return False
    for i in range(r_blk):
        lo, hi = 2 * i, 2 * i + 1
        content = (lo in gs, hi in gs, lo in ts, hi in ts)
        if content not in {(True, True, False, False), (False, False, True, True),
                           (True, False, True, False), (False, True, False, True),
                           (False, False, False, False)}:
            return False
    return True


@pytest.mark.parametrize("q,blocks", [(1, (1,)), (1, ()), (2, (2, 3)), (2, (3,))])
def test_odd_functional_vanishing_rule(q, blocks):
    m = make_model(q=q, blocks=blocks)
    r_blk = len(blocks)
    indices = range(2 * q)
    subsets = [c for k in range(2 * q + 1) for c in itertools.combinations(indices, k)]
    for gammas in subsets:
        for threes in subsets:
            if (len(gammas) + len(threes)) % 2:
                continue
            if not _rule_allows(q, r_blk, gammas, threes):
                assert jacobian_odd_integral(m, gammas, threes) == 0, (gammas, threes)


def test_insertion_word_validation():
    w = InsertionWord(r=1, s=2, gammas=(0,), threes=(1,))
    assert w.degree() == 4 + 4 + 3 + 1
    assert w.describe() == "x^1 alpha^2 d1 B2"
    with pytest.raises(PreconditionError):
        InsertionWord(gammas=(0, 0))
    with pytest.raises(PreconditionError):
        InsertionWord(r=-1)


def test_insertion_word_refuses_a_non_integral_multiplicity():
    # r = 1/2 used to be priced and end in a TypeError inside the closed form
    with pytest.raises(PreconditionError, match="r must be an integer, got 1/2"):
        InsertionWord(r=0.5, s=1)
    with pytest.raises(PreconditionError, match="s must be an integer, got 3/2"):
        InsertionWord(s=Fraction(3, 2))
    word = InsertionWord(r=Fraction(1), s=2.0)
    assert (word.r, word.s) == (1, 2) and type(word.r) is int and type(word.s) is int


def test_insertion_word_refuses_a_non_integral_odd_index():
    with pytest.raises(PreconditionError, match="gamma index must be an integer, got 1/2"):
        InsertionWord(s=1, gammas=(0.5,))
    with pytest.raises(PreconditionError, match="A index must be an integer, got 3/2"):
        InsertionWord(s=1, threes=(0, Fraction(3, 2)))
    word = InsertionWord(gammas=(Fraction(1),), threes=(2.0,))
    assert word.gammas == (1,) and word.threes == (2,)
    assert all(type(i) is int for i in word.gammas + word.threes)


def test_pairing_input_refuses_a_non_integral_q():
    # q = 3/2 used to end in a TypeError inside build_model
    with pytest.raises(PreconditionError, match="q must be an integer, got 3/2"):
        PairingInput(q=1.5, pairings=Pairings())
    inp = PairingInput(q=Fraction(2), pairings=Pairings())
    assert inp.q == 2 and type(inp.q) is int and build_model(inp).q == 2


def test_pairing_input_validation():
    # pairings that are no Pairings once ended in an AttributeError at build_model
    for pairings in ({"zeta2": -4}, None):
        with pytest.raises(PreconditionError, match="must be a Pairings"):
            build_model(PairingInput(q=1, pairings=pairings))
    with pytest.raises(PreconditionError):
        PairingInput(q=1, pairings=Pairings(), a_blocks=(0,))
    with pytest.raises(PreconditionError):
        PairingInput(q=1, pairings=Pairings(), a_blocks=(1, 1))
    with pytest.raises(PreconditionError):
        PairingInput(q=1, pairings=Pairings(), a_blocks=(1,), a_matrix=((0,),))
    # matrix size inconsistent with q
    with pytest.raises(PreconditionError):
        build_model(PairingInput(q=2, pairings=Pairings(),
                                 a_matrix=((0, 1), (-1, 0))))
    # non-antisymmetric matrix
    with pytest.raises(PreconditionError):
        build_model(PairingInput(q=1, pairings=Pairings(),
                                 a_matrix=((0, 1), (1, 0))))


def test_json_parsing():
    text = """{"schema_version": 1, "q": 1, "a_blocks": [2],
               "pairings": {"zeta2": -4, "zetaAlpha": "3/2"},
               "wall": {"p1": -4}}"""
    inp, wall = pairing_input_from_json(text)
    assert inp.q == 1 and inp.a_blocks == (2,)
    assert inp.pairings.zetaAlpha == Fraction(3, 2)
    assert wall == {"p1": -4}
    with pytest.raises(SchemaError):
        pairing_input_from_json("not json")
    with pytest.raises(SchemaError):
        pairing_input_from_json('{"q": 1, "pairings": {"bogus": 1}}')
    with pytest.raises(SchemaError):
        pairing_input_from_json('{"q": 1, "schema_version": 99}')


def test_json_pairings_read_an_int_as_it_is_and_anything_else_through_its_text():
    def read(value):
        doc = {"q": 1, "pairings": {"zetaAlpha": value}}
        return pairing_input_from_json(json.dumps(doc))[0].pairings.zetaAlpha

    assert read(5) == 5 and type(read(5)) is Fraction
    assert read(-10**40) == -10**40
    assert read(0.1) == Fraction(1, 10)  # not the binary double nearest 0.1
    assert read("3/2") == Fraction(3, 2)
    for value in (True, False, None, "x"):
        with pytest.raises(SchemaError, match="bad PairingInput document"):
            read(value)


# a value that is no finite number at all used to end in Fraction's own
# TypeError, ValueError or OverflowError traceback
@pytest.mark.parametrize("call, needle", [
    pytest.param(lambda: make_model(q=1).theta(None), "generator index must be an integer, got None",
                 id="theta-None"),
    pytest.param(lambda: PairingInput(q=None, pairings=Pairings()), "q must be an integer, got None",
                 id="q-None"),
    pytest.param(lambda: Pairings(zeta2=None), "None is not an exact rational", id="zeta2-None"),
    pytest.param(lambda: InsertionWord(r="a"), "r must be an integer, got 'a'", id="r-str"),
    pytest.param(lambda: make_model(q=1).scalar("x"), "'x' is not an exact rational",
                 id="scalar-str"),
    pytest.param(lambda: InsertionWord(s=float("nan")), "s must be an integer, got nan",
                 id="s-nan"),
    pytest.param(lambda: InsertionWord(s=float("inf")), "s must be an integer, got inf",
                 id="s-inf"),
])
def test_a_value_that_is_no_number_is_a_typed_error(call, needle):
    with pytest.raises(PreconditionError, match=needle):
        call()


def test_the_json_reader_and_the_operators_keep_their_errors_for_no_number():
    # the document reader still wraps the error, and a ring element meets a
    # non-number with NotImplemented, so Python raises its own TypeError
    with pytest.raises(SchemaError, match="bad PairingInput document: 'x' is not an exact"):
        pairing_input_from_json('{"q": 1, "a_blocks": ["x"]}')
    with pytest.raises(SchemaError, match="bad PairingInput document: q must be an integer"):
        pairing_input_from_json('{"q": null}')
    one = make_model(q=1).one()
    assert one.__mul__("x") is NotImplemented and one.__rmul__(None) is NotImplemented
    with pytest.raises(TypeError):
        one * None


def test_pairings_keep_a_fraction_coerce_the_rest_and_replace_alike():
    # each field is set without a call for a Fraction and through frac otherwise,
    # positionally or by name, and dataclasses.replace goes through the same check
    third = Fraction(1, 3)
    pr = Pairings(-4, "2", 1.5, sigmaAlpha=third, alpha2=Fraction(-2, 4))
    assert vars(pr) == {"zeta2": -4, "zetaK": 2, "zetaAlpha": Fraction(3, 2), "sigmaZeta": 0,
                        "sigmaAlpha": third, "sigmaK": 0, "K2": 0, "Kalpha": 0,
                        "alpha2": Fraction(-1, 2)}
    assert {type(v) for v in vars(pr).values()} == {Fraction} and pr.sigmaAlpha is third
    moved = replace(pr, zeta2=-8, K2="5/2")
    assert (moved.zeta2, moved.K2, moved.zetaAlpha) == (-8, Fraction(5, 2), Fraction(3, 2))
    assert {type(v) for v in vars(moved).values()} == {Fraction}
    assert Pairings(zeta2=-4) == Pairings(zeta2=Fraction(-4))
    assert hash(Pairings(zeta2=-4)) == hash(Pairings(zeta2=Fraction(-4)))
    with pytest.raises(FrozenInstanceError):
        pr.zeta2 = Fraction(1)
    for bad in (None, "a", float("nan"), float("inf"), object()):
        with pytest.raises(PreconditionError, match="not an exact rational"):
            Pairings(K2=bad)
        with pytest.raises(PreconditionError, match="not an exact rational"):
            replace(pr, sigmaK=bad)
