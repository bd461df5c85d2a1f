"""The library boundary: every public constructor and ``evaluate`` returns the
exact value for the coerced input or raises a ``WallCrossError``.

The number rule (``graded.frac``) says what a number is: an int, a ``Fraction``,
a numeric string, or a finite float read through its repr, as the JSON reader
reads its text (0.1 is 1/10).  A bool, None, a non-finite float and any other
value are no number.  A wall input must be an integral number.

Each hypothesis test is derandomized and small, so the module costs well under
a second.
"""

import inspect
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wallcross
from wallcross import (DeltaValue, InsertionWord, PairingInput, Pairings, PreconditionError,
                       RegimeError, WallCrossError, WallGeometry, build_model, evaluate,
                       volume)
from wallcross.delta import PATHS
from wallcross.cli import main, read_model_document
from wallcross.graded import MAX_EXPONENT, MAX_Q, MAX_WALL_INPUT, _shown, exact_int, frac
from wallcross.jacobian import PAIRING_KEYS
from wallcross.walls import MAX_DEGREE, wall_params

from conftest import reversed_wall

FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# values that are no number under the rule, and numbers no wall input may take
NO_NUMBER = [None, True, False, "x", "", "1/0", float("nan"), float("inf"), object()]
NUMBER = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=8),
                   st.floats(-1e6, 1e6), st.fractions(max_denominator=8).map(str),
                   st.integers(-99, 99).map(str), st.sampled_from(NO_NUMBER))


def exact(raw):
    """The number ``raw`` stands for under the rule, or None for no number."""
    if raw is None or isinstance(raw, bool):
        return None
    if isinstance(raw, float):
        return Fraction(repr(raw)) if math.isfinite(raw) else None
    try:
        return Fraction(raw)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def exact_ints(raws):
    """The ints ``raws`` stand for, or None when one of them is no integer."""
    values = [exact(raw) for raw in raws]
    if any(v is None or v.denominator != 1 for v in values):
        return None
    return [int(v) for v in values]


def forms(n, far, hostile=True):
    """``n`` as a caller might hand it in: one of its integral forms, or with
    ``hostile`` also a non-integral or non-numeric value, a negative, or ``far``,
    a value past the package's limits."""
    exact_forms = st.sampled_from([n, float(n), Fraction(n), str(n), f"{2 * n}/2"])
    if not hostile:
        return exact_forms
    return st.one_of(exact_forms, exact_forms, exact_forms, st.sampled_from(
        [n + 0.5, Fraction(2 * n + 1, 2), f"{2 * n + 1}/2", -abs(n) - 1, far, *NO_NUMBER]))


@st.composite
def wall_inputs(draw, hostile=True):
    """Seven wall inputs around valid data of q <= 2 and l <= 1, in drawn forms."""
    q, zeta2, l_zeta = draw(st.integers(0, 2)), draw(st.integers(-6, -1)), draw(st.integers(0, 1))
    zeta_k = zeta2 % 2 + 2 * draw(st.integers(-2, 2))
    ints = [zeta2 - 4 * l_zeta, q, zeta2, zeta_k]
    if draw(st.booleans()):  # w = zeta - 2u with u.zeta, u^2 and u.K of Wu's parity
        zu, u2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        uk = u2 + 2 * draw(st.integers(-1, 1))
        ints += [zeta2 - 2 * zu, zeta2 - 4 * zu + 4 * u2, zeta_k - 2 * uk]
    far = (-MAX_DEGREE - 8, MAX_Q + 1) + (10**6,) * 5
    return [draw(forms(n, f, hostile)) for n, f in zip(ints, far)]


def _pairings_for(wall_ints):
    return Pairings(zeta2=wall_ints[2], zetaK=wall_ints[3], zetaAlpha=2, sigmaZeta=1,
                    sigmaAlpha=-1, sigmaK=1, K2=8, alpha2=-1)


@settings(FAST, max_examples=30)
@given(st.lists(NUMBER, min_size=9, max_size=9))
def test_pairings_hold_the_exact_number_or_refuse(raws):
    expected = [exact(raw) for raw in raws]
    try:
        pairings = Pairings(*raws)
    except WallCrossError:
        assert None in expected
        return
    assert [getattr(pairings, key) for key in PAIRING_KEYS] == expected


@FAST
@given(NUMBER)
def test_a_delta_value_holds_the_exact_number_or_refuses(raw):
    try:
        value = DeltaValue(raw, "closed-form").value
    except WallCrossError:
        assert exact(raw) is None
        return
    assert value == exact(raw) and type(value) is Fraction


@FAST
@given(wall_inputs())
def test_a_wall_is_built_from_integral_numbers_only(raws):
    ints = exact_ints(raws)
    try:
        wall = WallGeometry(*raws)
    except WallCrossError:
        if ints is not None:  # the same data as ints is no wall either
            with pytest.raises(WallCrossError):
                WallGeometry(*ints)
        return
    assert ints is not None
    assert wall == WallGeometry(*ints) == WallGeometry.build(*raws)
    assert all(type(getattr(wall, key)) is int
               for key in ("p1", "q", "zeta2", "zetaK", "zetaW", "w2", "wK", "d", "l_zeta"))
    assert (wall.d, wall.l_zeta, wall.h_plus, wall.h_minus, wall.n_plus, wall.n_minus,
            wall.empty_side) == tuple(wall_params(*ints[:4]))


@FAST
@given(q=st.one_of(st.integers(0, 2).flatmap(lambda q: forms(q, MAX_Q + 1)), NUMBER),
       blocks=st.one_of(st.none(), st.lists(NUMBER, max_size=2), st.sampled_from(NO_NUMBER[1:])))
def test_a_model_is_built_from_exact_numbers_only(q, blocks):
    q_int = exact_ints([q])
    block_values = None if blocks is None else (
        [exact(b) for b in blocks] if isinstance(blocks, list) else [None])
    try:
        model = build_model(PairingInput(q=q, pairings=Pairings(), a_blocks=blocks))
    except WallCrossError:
        if q_int is not None and 0 <= q_int[0] <= MAX_Q and (
                block_values is None or None not in block_values):
            with pytest.raises(WallCrossError):  # the exact data is refused too
                PairingInput(q=q_int[0], pairings=Pairings(), a_blocks=block_values)
        return
    assert q_int is not None and model.q == q_int[0]
    exact_input = PairingInput(q=q_int[0], pairings=Pairings(), a_blocks=block_values)
    assert volume(model) == volume(build_model(exact_input))


@FAST
@given(raws=wall_inputs(hostile=False),
       r=st.integers(0, 2).flatmap(lambda r: forms(r, None, hostile=False)),
       path=st.sampled_from(PATHS + ("fast", None)), data=st.data())
def test_evaluate_prices_the_coerced_input_or_refuses(raws, r, path, data):
    # the hostile values are the constructors' to refuse, above: here the wall and
    # the word come from integral numbers of any form, and evaluate gets them or
    # other objects
    ints, r_int = exact_ints(raws), exact_ints([r])
    try:
        wall = WallGeometry(*raws)
        word = InsertionWord(r=r, s=wall.d - 2 * r_int[0])
    except WallCrossError:
        return
    q = data.draw(st.sampled_from([min(wall.q, 2), (wall.q + 1) % 3]))  # sometimes another q
    model = build_model(PairingInput(q=q, pairings=_pairings_for(ints)))
    # another object in any of the three places is refused
    bad = data.draw(st.sampled_from([None, 1, "x", (), PairingInput(q=q, pairings=Pairings())]))
    for args in ((bad, wall, word), (model, bad, word), (model, wall, bad)):
        with pytest.raises(PreconditionError, match="evaluate needs .ModelSpec, WallGeometry"):
            evaluate(*args, path)
    try:
        values = evaluate(model, wall, word, path)
    except WallCrossError:
        return
    assert values == evaluate(model, WallGeometry(*ints), InsertionWord(r=r_int[0], s=word.s),
                              path)
    assert all(type(v.value) is Fraction for v in values)


# -- the probes that found the gaps, pinned ----------------------------------

def test_the_boundary_names():
    assert sorted(wallcross.__all__) == sorted(
        ["DeltaValue", "InsertionWord", "InvalidWallError", "InvariantError", "PairingInput",
         "Pairings", "PreconditionError", "RegimeError", "SchemaError", "WallCrossError",
         "WallGeometry", "build_model", "evaluate", "volume"])
    # the route functions stay importable from their modules
    from wallcross.closed import delta_l0, delta_l1, delta_leading  # noqa: F401
    from wallcross.oracle import delta_oracle_l1  # noqa: F401
    assert list(inspect.signature(WallGeometry).parameters) == [
        "p1", "q", "zeta2", "zetaK", "zetaW", "w2", "wK"]


def test_a_float_p1_is_the_int_it_equals():
    # it built a wall with d = 4.0, and evaluate on it ended in a TypeError traceback
    wall = WallGeometry.build(-1.0, 2, -1, 1)
    assert wall == WallGeometry.build(-1, 2, -1, 1) and wall.d == 4 and type(wall.d) is int
    model = build_model(PairingInput(q=2, pairings=_pairings_for([-1, 2, -1, 1])))
    word = InsertionWord(s=4)
    assert evaluate(model, wall, word) == evaluate(model, WallGeometry(-1, 2, -1, 1), word)
    assert WallGeometry(p1=Fraction(-1), q=2, zeta2=-1, zetaK=1) == wall


@pytest.mark.parametrize("kwargs, needle", [
    (dict(p1=-1, q=1.5, zeta2=-1, zetaK=1), "q must be an integer, got 3/2"),  # was d = 9.5
    (dict(p1=None, q=1, zeta2=-4, zetaK=2), "p1 must be an integer, got None"),
    (dict(p1=True, q=1, zeta2=-1, zetaK=1), "p1 must be an integer, got True"),
    (dict(p1=-8, q=1, zeta2=-4, zetaK=2, wK="1/2"), "wK must be an integer, got 1/2"),
])
def test_a_wall_input_that_is_no_integer_is_refused(kwargs, needle):
    with pytest.raises(PreconditionError, match=needle):
        WallGeometry(**kwargs)


def test_a_numeric_string_p1_is_the_int_it_reads():
    # "-8" ended in a TypeError inside build
    assert WallGeometry("-8", 1, -4, 2) == WallGeometry(-8, 1, -4, 2)


def test_no_caller_sets_a_derived_field():
    # replace(wall, d=99) was priced by delta_l1 as 154976
    wall = WallGeometry(-8, 1, -4, 2)
    for key in ("d", "l_zeta", "h_plus", "h_minus", "n_plus", "n_minus", "empty_side",
                "sign_wall", "sign_complex"):
        with pytest.raises(ValueError, match="init=False"):
            replace(wall, **{key: 99})
        with pytest.raises(TypeError):
            WallGeometry(-8, 1, -4, 2, **{key: 99})
    moved = replace(wall, p1=-12)  # an input moves every field derived from it
    assert (moved.d, moved.l_zeta) == (12, 2) and moved == WallGeometry(-12, 1, -4, 2)
    assert reversed_wall(reversed_wall(wall)) == wall


def test_evaluate_refuses_what_is_no_model_or_word():
    # both ended in an AttributeError
    wall = WallGeometry(-1, 1, -1, 1)
    model = build_model(PairingInput(q=1, pairings=_pairings_for([-1, 1, -1, 1])))
    with pytest.raises(PreconditionError, match=r"got \(ModelSpec, WallGeometry, NoneType\)"):
        evaluate(model, wall, None)
    with pytest.raises(PreconditionError, match=r"got \(NoneType, WallGeometry, InsertionWord\)"):
        evaluate(None, wall, InsertionWord(s=1))
    with pytest.raises(PreconditionError, match="needs a PairingInput"):
        build_model(None)
    with pytest.raises(PreconditionError, match="needs a ModelSpec"):
        volume(None)


def test_values_past_the_limits_are_refused():
    wall = WallGeometry(-MAX_DEGREE - 1, 1, -1, 1)  # d = MAX_DEGREE + 1
    model = build_model(PairingInput(q=1, pairings=_pairings_for([0, 1, -1, 1])))
    with pytest.raises(PreconditionError, match="exceeds the largest priced d"):
        evaluate(model, wall, InsertionWord(s=wall.d), "closed")
    assert WallGeometry(-1, MAX_Q + 1, -1, 1).q == MAX_Q + 1  # a wall, but no model has it
    with pytest.raises(PreconditionError, match=f"q must be between 0 and {MAX_Q}"):
        PairingInput(q=MAX_Q + 1, pairings=Pairings())


@pytest.mark.parametrize("pairings, wall", [
    ({"zeta2": -1, "zetaK": 1}, {"p1": "1e4300"}),
    ({"zeta2": "-1e4300", "zetaK": 0}, {"p1": "-1e4300"}),
], ids=["p1", "a-valid-wall"])
def test_a_wall_input_past_the_cap_is_refused(tmp_path, capsys, pairings, wall):
    # both ended params and delta in a ValueError traceback: wall_params formatted the
    # 4,301-digit p1 into its InvalidWallError message, and the second wall is valid
    # but json.dumps could not print it
    path = tmp_path / "wall.json"
    path.write_text(json.dumps({"schema_version": 1, "q": 1, "wall": wall,
                                "pairings": dict(pairings, zetaAlpha=2, sigmaZeta=1)}))
    for command in ("params", "delta"):
        assert main(["--command", command, "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("error: ") == 1 and "largest wall input" in err


def test_the_wall_input_cap_is_inclusive():
    assert MAX_WALL_INPUT == 10 ** 100  # as the refusal names it
    at_cap = WallGeometry(-MAX_WALL_INPUT, 1, -MAX_WALL_INPUT, 0)
    assert (at_cap.d, at_cap.l_zeta) == (MAX_WALL_INPUT, 0)
    for key in ("p1", "q", "zeta2", "zetaK", "zetaW", "w2", "wK"):
        inputs = {"p1": -8, "q": 1, "zeta2": -4, "zetaK": 2, key: -MAX_WALL_INPUT - 1}
        with pytest.raises(PreconditionError, match=f"{key} exceeds the largest wall input"):
            WallGeometry(**inputs)


def test_a_word_past_its_caps_is_refused_before_a_message_prints_it():
    # both built, and evaluate then formatted the word into its refusal and ended in
    # "ValueError: Exceeds the limit (4300 digits)"; r and s are capped at 10^100 and
    # an odd index at 2 MAX_Q - 1, the largest any model has
    huge = 10 ** 5000
    for call, needle in ((lambda: InsertionWord(r=huge), "the multiplicity r must be at most"),
                         (lambda: InsertionWord(s=1, gammas=(huge,)), "a gamma index must be at"),
                         (lambda: InsertionWord(s=-huge), "the multiplicity s must be non-neg"),
                         (lambda: InsertionWord(threes=(-huge,)), "an A index must be non-neg"),
                         (lambda: InsertionWord(s=MAX_WALL_INPUT + 1), "multiplicity s must"),
                         (lambda: InsertionWord(gammas=(2 * MAX_Q,)), "at most 23, got 24")):
        with pytest.raises(PreconditionError, match=needle):
            call()
    at_caps = InsertionWord(r=MAX_WALL_INPUT, gammas=(2 * MAX_Q - 1,))
    model = build_model(PairingInput(q=1, pairings=_pairings_for([-1, 1, -1, 1])))
    with pytest.raises(PreconditionError, match="has degree"):
        evaluate(model, WallGeometry(-1, 1, -1, 1), at_caps)


def test_wall_params_names_an_int_too_long_to_print():
    # it formatted the int into its InvalidWallError message: a ValueError
    for args in ((10 ** 5000, 1, -1, 1), (-1, -10 ** 5000, -1, 1), (-1, 1, 10 ** 5000, 1)):
        with pytest.raises(WallCrossError, match="too long to print"):
            wall_params(*args)


def test_a_value_too_long_to_print_is_named_with_its_article():
    # it printed "a int too long to print", seen as "unsupported schema_version a int ..."
    huge = 10 ** 5000
    assert _shown(huge) == "an int too long to print"
    assert _shown(Fraction(huge, 3)) == "a Fraction too long to print"
    with pytest.raises(PreconditionError) as refusal:
        exact_int(Fraction(huge, 3), "q")
    assert str(refusal.value) == "q must be an integer, got a Fraction too long to print"


def test_the_library_and_the_json_reader_share_one_number_rule():
    # Pairings(zeta2=True) gave 1 and Pairings(zeta2=0.1) the binary double, where
    # the JSON reader refused true and read 0.1 as 1/10
    def read(value):
        doc = {"q": 1, "pairings": {"zeta2": -4, "zetaAlpha": value}, "wall": {"p1": -4}}
        return read_model_document(json.dumps(doc))[0].pairings.zetaAlpha

    assert Pairings(zetaAlpha=0.1).zetaAlpha == read(0.1) == Fraction(1, 10)
    assert Pairings(zetaAlpha=-2.5).zetaAlpha == read(-2.5) == Fraction(-5, 2)
    for value in (True, False):
        with pytest.raises(PreconditionError, match="not an exact rational"):
            Pairings(zetaAlpha=value)
        with pytest.raises(wallcross.SchemaError):
            read(value)
    for value in ("1/0", float("nan")):
        with pytest.raises(PreconditionError, match="not an exact rational"):
            Pairings(K2=value)


def test_a_decimal_exponent_past_the_cap_is_refused_before_it_is_expanded():
    # Fraction("1e10000000") expanded the exponent in full before any check: 7.5 s,
    # and about 17 times that per decade of exponent
    doc = {"q": 1, "pairings": {"zeta2": -4, "zetaAlpha": "1e100000000"}, "wall": {"p1": -4}}
    for call in (lambda: frac("1e100000000"), lambda: frac("-1E-100000000"),
                 lambda: frac(f"1e{MAX_EXPONENT + 1}"),
                 lambda: read_model_document(json.dumps(doc))):
        start = time.perf_counter()
        with pytest.raises(WallCrossError, match="exponent"):
            call()
        assert time.perf_counter() - start < 0.1
    # an int literal past Python's int-string limit ended in a ValueError traceback
    with pytest.raises(wallcross.SchemaError, match="invalid JSON"):
        read_model_document(json.dumps(doc).replace('"1e100000000"', "1" * 5000))
    assert frac(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert frac("1e-3") == Fraction(1, 1000) and frac("3/2") == Fraction(3, 2)
    assert frac(0.1) == Fraction(1, 10)


def test_a_surface_takes_an_integral_q_only():
    # q = 1.5 and True built a surface, and only a sweep that reached a wall refused them
    from conftest import custom_surface

    def surface(q):
        return custom_surface("s", q, ((0, 1), (1, 0)), K=(0, -2), Sigma=(1, 0))

    assert surface(1.0).q == 1 and type(surface("1").q) is int
    for q in (1.5, True, None):
        with pytest.raises(PreconditionError, match="q must be an integer"):
            surface(q)


@pytest.mark.parametrize("call", [
    lambda: InsertionWord(gammas=None),
    lambda: InsertionWord(threes=0),
    lambda: PairingInput(q=1, pairings=Pairings(), a_blocks=1),
    lambda: PairingInput(q=1, pairings=Pairings(), a_matrix=[0, 1]),
], ids=["gammas-None", "threes-int", "blocks-int", "matrix-row-int"])
def test_a_sequence_input_that_is_no_sequence_is_refused(call):
    with pytest.raises(PreconditionError, match="must be a sequence"):
        call()


def test_a_model_whose_zeta_pairings_are_not_the_wall_s_is_refused():
    # the l = 1 routes read zeta^2 and zeta.K off the model, d and the signs off the
    # wall: handed a model with zeta^2 = 0 on a zeta^2 = -4 wall, both priced
    # another wall alike, -143/4 against -32, and evaluate gave that value; the
    # bare routes gave it until they took evaluate's rule
    from wallcross.closed import delta_l1
    from wallcross.oracle import delta_oracle_l1
    wall = WallGeometry(-8, 1, -4, 2)
    word = InsertionWord(s=wall.d)
    assert (wall.l_zeta, word.describe()) == (1, "alpha^8")

    def model(zeta2=-4, zetaK=2):
        return build_model(PairingInput(q=1, pairings=Pairings(
            zeta2=zeta2, zetaK=zetaK, zetaAlpha=1, sigmaZeta=1, sigmaAlpha=1, K2=8, alpha2=1)))
    values = evaluate(model(), wall, word)
    assert [(v.value.numerator, v.value.denominator) for v in values] == [(-32, 1)] * 2
    for stray in (model(zeta2=0), model(zetaK=0), model(zeta2=Fraction(-7, 2))):
        for call in [lambda: delta_l1(wall, stray.pairings, 0, volume(stray)),
                     lambda: delta_oracle_l1(stray, wall, 0)] + [
                         lambda path=path: evaluate(stray, wall, word, path) for path in PATHS]:
            with pytest.raises(PreconditionError, match="are not the wall's -4 and 2"):
                call()
    # at l = 0 neither field moves the value, but the record is one fact there too
    wall0 = WallGeometry(-4, 1, -4, 2)
    assert evaluate(model(), wall0, InsertionWord(s=wall0.d))
    with pytest.raises(PreconditionError, match="zeta.K = 0 are not"):
        evaluate(model(zetaK=0), wall0, InsertionWord(s=wall0.d))


# -- one admission rule: WallGeometry.admit, in evaluate and in every route ----

def _rule_model(q=1, zeta2=-4, zetaK=2):
    return build_model(PairingInput(q=q, pairings=Pairings(
        zeta2=zeta2, zetaK=zetaK, zetaAlpha=1, sigmaZeta=1, sigmaAlpha=1, K2=8, alpha2=1)))


def _route(name):
    """The route ``name`` as call(model, wall, word), and the l_zeta it prices
    (None for any); a route taking r gets the word's r."""
    from wallcross.closed import delta_l0, delta_l0_odd, delta_l1, delta_leading
    from wallcross.oracle import delta_oracle_l0, delta_oracle_l1
    return {
        "delta_l0": (0, lambda m, w, word: delta_l0(w, m.pairings, word.r, volume(m))),
        "delta_l0_odd": (0, lambda m, w, word: delta_l0_odd(w, m, word)),
        "delta_oracle_l0": (0, lambda m, w, word: delta_oracle_l0(m, w, word)),
        "delta_l1": (1, lambda m, w, word: delta_l1(w, m.pairings, word.r, volume(m))),
        "delta_oracle_l1": (1, lambda m, w, word: delta_oracle_l1(m, w, word.r)),
        "delta_leading": (None, lambda m, w, word: delta_leading(m, w, word)),
    }[name]


@pytest.mark.parametrize("name", ["delta_l0", "delta_l0_odd", "delta_oracle_l0", "delta_l1",
                                  "delta_oracle_l1", "delta_leading"])
def test_every_route_refuses_what_evaluate_refuses(name):
    l, call = _route(name)
    takes_r = name in ("delta_l0", "delta_l1", "delta_oracle_l1")
    takes_model = name in ("delta_l0_odd", "delta_oracle_l0", "delta_oracle_l1", "delta_leading")
    own_l = 1 if l is None else l

    def wall_of(l_zeta, zeta2=-4, zetaK=2):
        return WallGeometry(zeta2 - 4 * l_zeta, 1, zeta2, zetaK)

    # the Baseline wall p1 = -8, q = 1, zeta^2 = -4, zeta.K = 2, or at l = 0 its p1 = -4
    wall = wall_of(own_l)
    assert call(_rule_model(), wall, InsertionWord(s=wall.d)).value  # admitted
    big = wall_of(own_l, zeta2=4 * own_l - MAX_DEGREE - 1, zetaK=1)
    assert big.d == MAX_DEGREE + 1
    points = [(_rule_model(zeta2=0), wall, InsertionWord(s=wall.d)),
              (_rule_model(zetaK=0), wall, InsertionWord(s=wall.d)),
              (_rule_model(zeta2=big.zeta2, zetaK=1), big, InsertionWord(s=big.d)),
              (_rule_model(), wall, InsertionWord(r=wall.d // 2 + 1) if takes_r
               else InsertionWord(s=wall.d + 1))]
    if takes_model:
        points.append((_rule_model(q=2), wall, InsertionWord(s=wall.d)))
    if name in ("delta_l0_odd", "delta_oracle_l0"):
        # a word of odd odd-count has odd degree, so no wall admits it: both gave 0
        points.append((_rule_model(), wall, InsertionWord(s=1, gammas=(0,))))
    for model, at, word in points:
        with pytest.raises(WallCrossError) as by_evaluate:
            evaluate(model, at, word, "leading" if l is None else "auto")
        with pytest.raises(by_evaluate.type) as by_route:
            call(model, at, word)
        assert by_route.type is by_evaluate.type is PreconditionError, (model.pairings, at, word)
        # each is refused before any X-table or moment is built, d past MAX_DEGREE too
        assert not [key for key in model.cache if key[0] in ("l0 table", "l1 table", "I_c")]
    if l is not None:  # delta_leading takes any l_zeta
        other = wall_of(1 - l)
        with pytest.raises(RegimeError, match=f"needs l_zeta = {l}, got {1 - l}"):
            call(_rule_model(), other, InsertionWord(s=other.d))


def test_a_word_naming_an_odd_class_the_model_lacks_is_refused(tmp_path, capsys):
    # an odd index runs over 0..2q - 1; a word of more than 2q odd insertions is 0
    # in the ring before an index is read, so gamma_1 gamma_2 at q = 0 and
    # d1 d2 d6 B1 at q = 1 were priced 0/1 on every path, where d6 alone raised
    from wallcross.closed import delta_l0_odd
    from wallcross.jacobian import jacobian_odd_integral
    from wallcross.oracle import delta_oracle_l0
    cases = [(0, -9, 1, ((0, 1), ()), 0), (1, -12, 0, ((0, 1, 5), (0,)), 5),
             (1, -12, 0, ((5,), (0,)), 5), (1, -12, 0, ((0,), (2,)), 2)]
    for q, zeta2, zeta_k, (gammas, threes), bad in cases:
        wall = WallGeometry(zeta2, q, zeta2, zeta_k)  # l_zeta = 0
        model = _rule_model(q, zeta2, zeta_k)
        odd = 3 * len(gammas) + len(threes)
        word = InsertionWord(s=wall.d - odd // 2, gammas=gammas, threes=threes)
        assert word.degree() == 2 * wall.d
        refused = f"generator index {bad} out of range for q={q}"
        calls = [lambda path=path: evaluate(model, wall, word, path) for path in PATHS] + [
            lambda: delta_l0_odd(wall, model, word), lambda: delta_oracle_l0(model, wall, word),
            lambda: jacobian_odd_integral(model, gammas, threes)]
        for call in calls:
            with pytest.raises(PreconditionError, match=refused):
                call()
        doc = {"schema_version": 1, "q": q, "wall": {"p1": zeta2},
               "pairings": {"zeta2": zeta2, "zetaK": zeta_k, "zetaAlpha": 1, "sigmaZeta": 1}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        for route in PATHS:
            code = main(["--command", "delta", "--input", str(path), "--path", route,
                         "--gammas", ",".join(map(str, gammas)),
                         "--threes", ",".join(map(str, threes))])
            out, err = capsys.readouterr()
            assert (code, out, err) == (1, "", f"error: {refused}\n"), (q, gammas, route)
    # off l = 0 too: on an l = 1 wall the index is refused before the regime is
    wall = WallGeometry(-8, 1, -4, 2)
    for path in PATHS:
        with pytest.raises(PreconditionError, match="generator index 2 out of range for q=1"):
            evaluate(_rule_model(), wall, InsertionWord(s=wall.d - 2, gammas=(0,), threes=(2,)),
                     path)
