"""The input boundary under fuzzing: any model or surface document and any
argv give exit code 0, 1, 2 or 3 through ``cli.main``, with exactly one
``error:`` line on a non-zero code and never a traceback.

q stays small (at most 3): the ring has 2^(2q) J-monomials, and a q up to
the ring's limit ``MAX_Q`` = 12 is accepted but can take seconds at l = 1.
Wall-enumeration bounds and p1 stay small for the same reason, apart from
one bound above ``MAX_BOUND``, which is refused before any work, and verify
runs cheap properties only, so the test costs a few seconds.  selftest reads no input and runs a fixed grid, so
it is left to its own tests.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallcross.cli import COMMAND_FLAGS, main
from wallcross.jacobian import PAIRING_KEYS

# values of the wrong type, and numbers that are not finite or not exact
JUNK = st.sampled_from([None, True, "", "a", "1/0", "nan", 1.5, float("nan"), float("inf"),
                        [], [1], {}, {"p1": -2}])
NUMBER = st.one_of(st.integers(-8, 8), st.sampled_from(["1/2", "-3/4", "2", 10**30, -10**30]),
                   JUNK)
WALL_KEYS = ("p1", "zetaW", "w2", "wK")
# a misspelt key of each document object: {key: the object's name, None at the top level}
MODEL_TYPOS = {"a_block": None, "bogus": "pairings", "zetaw": "wall"}
SURFACE_TYPOS = {"surfaces": None, "cone_slop": "surface"}


def _spoil(draw, doc, top_keys, inner, typos):
    """Replace up to two places of ``doc`` by a drawn number or junk: a top-level
    key, or a key of one of the ``inner`` objects (``{key: object name}``); then
    now and then add one of the misspelt keys ``typos``."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(top_keys + tuple(inner)))
        value = draw(st.one_of(NUMBER, st.lists(NUMBER, max_size=3)))
        target = doc.get(inner[key]) if key in inner else doc
        if isinstance(target, dict):
            target[key] = value
    typo = draw(st.sampled_from([None] * len(typos) + list(typos)))
    target = doc.get(typos[typo]) if typos.get(typo) else doc
    if typo and isinstance(target, dict):
        target[typo] = draw(NUMBER)
    return doc


@st.composite
def model_docs(draw):
    """A model document with a wall that is often valid, then spoilt in places."""
    q, zeta2, l_zeta = draw(st.integers(0, 3)), draw(st.integers(-8, -1)), draw(st.integers(0, 2))
    pairings = {key: draw(st.integers(-4, 4)) for key in PAIRING_KEYS}
    # zeta.K of zeta^2's parity keeps h(zeta) integral
    pairings.update(zeta2=zeta2, zetaK=zeta2 % 2 + 2 * draw(st.integers(-3, 3)))
    doc = {"schema_version": 1, "q": q, "pairings": pairings, "wall": {"p1": zeta2 - 4 * l_zeta}}
    if draw(st.booleans()):
        doc["a_blocks"] = draw(st.lists(st.integers(-3, 3), max_size=q))
    if draw(st.booleans()):
        doc["wall"].update({key: draw(st.integers(-9, 9)) for key in WALL_KEYS[1:]})
    inner = dict.fromkeys(PAIRING_KEYS + ("bogus",), "pairings")
    inner.update(dict.fromkeys(WALL_KEYS, "wall"))
    return _spoil(draw, doc, ("q", "a_blocks", "a_matrix", "pairings", "wall", "schema_version"),
                  inner, MODEL_TYPOS)


@st.composite
def surface_docs(draw):
    """A ruled or custom rank-2 surface document, then spoilt in places."""
    q = draw(st.integers(0, 2))
    if draw(st.booleans()):
        surface = {"name": draw(st.sampled_from(["product_ruled", "odd_ruled"])), "q": q}
    else:
        # e0^2 = a even and K.e1 = k - 2b of b's parity keep K characteristic
        a, b = draw(st.sampled_from([-2, 0, 2])), draw(st.integers(-3, 1))
        surface = {"name": "blow-up", "q": q, "basis": ["e0", "e1"], "gram": [[a, 1], [1, b]],
                   "K": [b + 2 * draw(st.integers(-1, 1)), -2], "Sigma": [1, 0]}
        if draw(st.booleans()):
            surface["cone_slope"] = draw(st.sampled_from(["1/2", 1, "0"]))
    doc = {"schema_version": 1, "surface": surface}
    inner = dict.fromkeys(("name", "q", "basis", "gram", "K", "Sigma", "cone_slope"), "surface")
    return _spoil(draw, doc, ("surface", "schema_version"), inner, SURFACE_TYPOS)


# option values, the valid ones first; --w and --p1 go with every walls request
OPTIONS = {
    "--output": ["json", "csv", "xml"],
    "--r": ["0", "1", "2", "-1", "x", "99"],
    "--s": ["0", "3", "-1", "x", "99"],
    "--gammas": ["0,1", "1,0", "0", "", "0,0", "5", "-1", "a"],
    "--threes": ["1", "0,2", "", "2,2", "9", "b"],
    "--path": ["auto", "closed", "oracle", "leading", "nope"],
    "--alpha": ["1,1", "1,3", "0,0", "1", "1,1,1", "", "a,b"],
    "--w": ["1,1", "1,0", "0,1", "1", "1,1,1", "", "x"],
    "--p1": ["-2", "-5", "-8", "-12", "0", "3", "x"],
    "--bound": ["4", "1", "0", "-1", "x", "1000000000"],
    "--meta": None,
}
# verify always names cheap properties: without --property it runs every grid
VERIFY_OPTIONS = {
    "--property": ["axioms", "simple-type", "identities", "e_S", "nope", "axioms,simple-type"],
    "--grid": ["sweep<=4", "q<=1,sweep<=3", "d<=0", "bogus", "q=2..1", "q<=4"],
}
BROKEN_TEXT = ["", "{", "[1, 2]", "null"]


def _option(draw, name, values):
    return [name] if values is None else [name, draw(st.sampled_from(values))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data(),
       command=st.sampled_from(["params", "delta", "walls", "verify", "bogus"]))
def test_any_document_and_argv_give_a_documented_exit_code(tmp_path, data, command):
    draw = data.draw
    # mostly a drawn document, sometimes a JSON value of another kind or no JSON
    kind = draw(st.sampled_from(["document"] * 4 + ["junk", "broken"]))
    value = None
    if kind == "broken":
        text = draw(st.sampled_from(BROKEN_TEXT))
    else:
        doc = surface_docs() if command == "walls" else model_docs()
        value = draw(JUNK if kind == "junk" else doc)
        text = json.dumps(value)
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = ["--command", command]
    with_input = draw(st.sampled_from([True] * 5 + [False]))  # sometimes no --input at all
    if command == "walls":
        argv += _option(draw, "--w", OPTIONS["--w"]) + _option(draw, "--p1", OPTIONS["--p1"])
    names = draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=4, unique=True))
    reads = COMMAND_FLAGS.get(command)
    # mostly flags the command reads; now and then one it does not, which it refuses
    if reads is not None and draw(st.sampled_from([True] * 4 + [False])):
        with_input = with_input and "input" in reads
        names = [name for name in names if name[2:] in reads]
    if with_input:
        argv += ["--input", str(path)]
    for name in names:
        argv += _option(draw, name, OPTIONS[name])
    if command == "verify":
        for name, values in VERIFY_OPTIONS.items():
            if name == "--property" or draw(st.booleans()):
                argv += _option(draw, name, values)
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, text, code)
    assert "Traceback" not in out + err, (argv, text)
    # a flag the command does not read is refused, if the flag reader has not refused a value
    if reads is not None and {arg[2:] for arg in argv if arg.startswith("--")} - reads:
        assert code == 1, (argv, err)
    # a misspelt key is refused: every command but verify reads its document or
    # fails before it does
    if command != "verify" and isinstance(value, dict) and any(
            {*MODEL_TYPOS, *SURFACE_TYPOS} & obj.keys()
            for obj in (value, *value.values()) if isinstance(obj, dict)):
        assert code == 1, (argv, text)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, err)
    else:
        assert err == "" and out, (argv, text)
