"""Model construction, distinguished classes, the odd functional, volumes."""

import itertools
import json
import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from wallcross import (InsertionWord, PairingInput, Pairings, PreconditionError, SchemaError,
                       WallGeometry, build_model, evaluate, volume)
from wallcross.cli import read_model_document
from wallcross.closed import _l0_closed
from wallcross.graded import integrate_jacobian
from wallcross.jacobian import e_alpha, e_gamma, e_zeta_beta, jacobian_odd_integral

from conftest import make_model, omega_element, pfaffian, pfaffian_f, pfaffian_mismatches


def test_q0_model_collapses():
    m = make_model(q=0)
    assert m.omega_pow(1).is_zero()
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
    assert e_alpha(m) == -6 * omega_element(m)
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
        assert e2 == -2 * omega_element(m) * m.even("Sigma")
        assert e_alpha(m) == -2 * sa * omega_element(m)


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
    # an index is read as an exact int, and th2 th1 = -th1 th2
    assert jacobian_odd_integral(m, (1.0, 0), ()) == -1
    with pytest.raises(PreconditionError, match="must be an integer"):
        jacobian_odd_integral(m, (0,), (0.5,))


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


def test_pfaffian_reference_on_small_matrices():
    # Pf of 2x2 and 4x4 forms, one with a zero pivot that swaps, and the bordered F
    # of th_0 th_1 on the q = 1 block a_1 = 2, whose integral is 1
    assert pfaffian([]) == 1 and pfaffian([[0, 5], [-5, 0]]) == 5
    m = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    assert pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4
    assert pfaffian([[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]]) == -6
    block = [[0, 2], [-2, 0]]
    assert pfaffian_f(block, (0, 1), ()) == 1 == jacobian_odd_integral(
        make_model(q=1, blocks=(2,)), (0, 1), ())


def test_volume_and_f_are_the_pfaffian_reference_on_random_matrices():
    # an elimination that shares no code with the ring: 120 J-sides and 480 words
    mismatches, nonzero = pfaffian_mismatches()
    assert mismatches == []
    assert nonzero > 200


# the rational q = 3 J-side of CI's dense step: its rows' denominators are 6, 6, 4,
# 60, 6 and 10
Q3_DENSE = ((0, "1/2", 1, 0, "1/3", 0), ("-1/2", 0, 0, "2/3", 0, 1),
            (-1, 0, 0, "1/4", 1, 0), (0, "-2/3", "-1/4", 0, 0, "3/5"),
            ("-1/3", 0, -1, 0, 0, "1/2"), (0, -1, 0, "-3/5", "-1/2", 0))


def test_the_values_ci_pins_on_a_rational_dense_j_side_are_the_pfaffian_references():
    # vol and the delta of alpha^3 d1 d2 B4 B6 as CI pins them: the closed form's sum
    # on the Pfaffian reference F, and both routes, give them
    pairings = Pairings(zeta2=-1, zetaK=1, zetaAlpha=3, sigmaZeta=2, sigmaAlpha=-1, sigmaK=1,
                        K2=8, Kalpha=1, alpha2=-1)
    inp = PairingInput(q=3, pairings=pairings, a_matrix=Q3_DENSE)
    a = [list(row) for row in inp.a_matrix]
    assert pfaffian(a) == volume(build_model(inp)) == Fraction(-157, 240)
    wall = WallGeometry.build(p1=-1, q=3, zeta2=-1, zetaK=1)
    word = InsertionWord(s=3, gammas=(0, 1), threes=(3, 5))
    assert word.degree() == 2 * wall.d
    reference = _l0_closed(wall, pairings, 0, 3, 1, 2, pfaffian_f(a, (0, 1), (3, 5))).value
    values = [v.value for v in evaluate(build_model(inp), wall, word, "auto")]
    assert values == [reference, reference] == [Fraction(4617, 100)] * 2


def test_the_value_ci_pins_on_a_dense_q10_j_side_is_the_pfaffian_reference():
    # CI prices alpha^25 d1 d2 on this fully dense q = 10 form by the oracle alone,
    # whose I_c reads only the coefficients of omega^9 the word needs; the closed
    # route still raises whole omega powers here, so the pin is its sum on the
    # Pfaffian reference F (p = 9, b = 0)
    a = [[0] * 20 for _ in range(20)]
    for i, j in itertools.combinations(range(20), 2):
        a[i][j] = (i + 2 * j) % 5 - 2 or 3
        a[j][i] = -a[i][j]
    pairings = Pairings(zeta2=-1, zetaK=1, zetaAlpha=Fraction(3, 2), sigmaZeta=2,
                        sigmaAlpha=-1, sigmaK=1, K2=8, Kalpha=1, alpha2=-1)
    wall = WallGeometry.build(p1=-1, q=10, zeta2=-1, zetaK=1)
    word = InsertionWord(s=25, gammas=(0, 1))
    assert word.degree() == 2 * wall.d
    reference = _l0_closed(wall, pairings, 0, 25, 9, 0, pfaffian_f(a, (0, 1), ())).value
    value, = evaluate(build_model(PairingInput(q=10, pairings=pairings, a_matrix=a)), wall,
                      word, "oracle")
    assert value.value == reference == Fraction(-4340105576331211323, 32768)


def _ring_f(model, gammas, threes):
    """F by the ring: the odd factors' product against omega's power, integrated.
    The reference for the block product, which runs none of this."""
    elem = model.one()
    for i in gammas:
        elem = elem * model.theta(i)
    for j in threes:
        elem = elem * model.interior_omega(j)
    p = model.q - (len(gammas) + len(threes)) // 2
    # more than 2q degree-one factors vanish, and leave no omega power
    return Fraction(0) if p < 0 else integrate_jacobian(elem * model.omega_pow(p))


def _block_j_side(rng, side):
    """A random block J-side of q <= 4 with rational blocks: from a_blocks, cut short
    at random (zero blocks past its end), or from a block-form a_matrix with zeros,
    which is priced as a dense a_matrix is."""
    q = rng.randint(0, 4)
    values = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(q)]
    if side % 2:
        a = [[Fraction(0)] * (2 * q) for _ in range(2 * q)]
        for k, v in enumerate(values):
            a[2 * k][2 * k + 1], a[2 * k + 1][2 * k] = v, -v
        return make_model(q=q, matrix=a), values
    blocks = [v for v in values if v][:rng.randint(0, q)]
    return make_model(q=q, blocks=blocks), blocks + [0] * (q - len(blocks))


def test_block_vol_and_f_are_the_ring_values():
    # vol and F of a block J-side are products of its blocks, carried as one int
    # numerator and denominator; the ring's integrals and the Pfaffian are the
    # references.  Words fill whole blocks in random order half the time,
    # split between gamma-insertions and A-insertions (i_{be_j} omega lies in j's
    # block), else draw indices at random: repeated, out of block, odd in count
    rng = random.Random(1962)
    checked = nonzero = 0
    for side in range(150):
        model, blocks = _block_j_side(rng, side)
        q, n = model.q, 2 * model.q
        # only an a_blocks input keeps its blocks; a block-shaped a_matrix takes the
        # int-form path of every a_matrix
        assert model.cache.get(("blocks",)) == (None if side % 2 else tuple(blocks))
        assert volume(model) == math.prod(blocks) == integrate_jacobian(
            model.omega_pow(q)) / math.factorial(q) == pfaffian(model.a_matrix)
        for word in range(8):
            if word % 2:
                chosen = rng.sample(range(q), rng.randint(0, q))
                indices = [i for k in chosen for i in (2 * k, 2 * k + 1)]
                rng.shuffle(indices)
                cut = rng.randint(0, len(indices))
                gammas, threes = indices[:cut], [i ^ 1 for i in indices[cut:]]
            else:
                gammas, threes = ([rng.randrange(n) for _ in range(rng.randint(0, 3))] if n
                                  else [] for _ in range(2))
            value = jacobian_odd_integral(model, tuple(gammas), tuple(threes))
            assert value == _ring_f(model, gammas, threes) == pfaffian_f(
                model.a_matrix, gammas, threes), (q, blocks, gammas, threes)
            checked += 1
            nonzero += value != 0
    assert checked == 1200 and nonzero > 300


def test_the_omega_rows_of_a_blocks_input_are_those_of_its_a_matrix_twin():
    # build_model derives omega's sparse rows (D, rows) once per J-side: in the loop
    # that places an a_blocks input's blocks, or by one scan of an a_matrix.  The
    # block-shaped a_matrix of the same blocks must give the same rows, with a zero
    # block (a short a_blocks) leaving its row empty, and D the lcm of the nonzero
    # entries' denominators
    rng = random.Random(1962)
    for _ in range(60):
        q = rng.randint(0, 6)
        blocks = [Fraction(rng.choice((-4, -3, -1, 1, 2, 5)), rng.randint(1, 6))
                  for _ in range(rng.randint(0, q))]
        a = [[Fraction(0)] * (2 * q) for _ in range(2 * q)]
        for k, v in enumerate(blocks):
            a[2 * k][2 * k + 1], a[2 * k + 1][2 * k] = v, -v
        rows = make_model(q=q, blocks=blocks).cache[("omega rows",)]
        assert make_model(q=q, matrix=a).cache[("omega rows",)] == rows
        d = math.lcm(*(b.denominator for b in blocks))
        assert rows == (d, tuple(
            ((2 * k + 1, blocks[k].numerator * d // blocks[k].denominator),)
            if i % 2 == 0 and (k := i // 2) < len(blocks) else () for i in range(2 * q)))
        assert {type(x) for row in rows[1] for pair in row for x in pair} <= {int}
    # the principal blocks
    assert make_model(q=2).cache[("omega rows",)] == (1, (((1, 1),), (), ((3, 1),), ()))


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
    inp, wall = read_model_document(text)
    assert inp.q == 1 and inp.a_blocks == (2,)
    assert inp.pairings.zetaAlpha == Fraction(3, 2)
    assert wall == WallGeometry(p1=-4, q=1, zeta2=-4, zetaK=0)
    with pytest.raises(SchemaError):
        read_model_document("not json")
    with pytest.raises(SchemaError, match="unknown pairing keys"):
        read_model_document('{"q": 1, "pairings": {"zeta2": -4, "bogus": 1}, "wall": {"p1": -4}}')
    with pytest.raises(SchemaError, match="unsupported schema_version 99"):
        read_model_document('{"q": 1, "schema_version": 99, "pairings": {"zeta2": -4}, '
                            '"wall": {"p1": -4}}')


def test_json_pairings_read_an_int_as_it_is_and_anything_else_through_its_text():
    def read(value):
        doc = {"q": 1, "pairings": {"zeta2": -4, "zetaAlpha": value}, "wall": {"p1": -4}}
        return read_model_document(json.dumps(doc))[0].pairings.zetaAlpha

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
        read_model_document('{"q": 1, "a_blocks": ["x"], "pairings": {"zeta2": -4}, '
                            '"wall": {"p1": -4}}')
    with pytest.raises(SchemaError, match="bad PairingInput document: q must be an integer"):
        read_model_document('{"q": null, "pairings": {"zeta2": -4}, "wall": {"p1": -4}}')
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
