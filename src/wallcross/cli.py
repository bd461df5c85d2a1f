"""Command-line front end.

One command per invocation (--command params | delta | verify | walls |
selftest).  Rationals are always printed as "num/den" with a positive
denominator; output is deterministic and byte-identical across runs unless
--meta adds the run-metadata block.

Exit codes: 0 success, 1 input error, 2 regime error, 3 verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .delta import PATHS, evaluate
from .errors import InvariantError, PreconditionError, RegimeError, SchemaError, WallCrossError
from .graded import _shown, exact_int, frac
from .jacobian import PAIRING_KEYS, InsertionWord, PairingInput, Pairings, build_model, volume
from .surfaces import SurfaceData, enumerate_walls, odd_ruled, product_ruled
from .walls import WallGeometry

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REGIME = 2
EXIT_VERIFY = 3

# the WallGeometry fields that ``params`` prints, in its CSV column order
PARAMS_FIELDS = ("p1", "q", "zeta2", "zetaK", "d", "l_zeta", "h_plus", "h_minus", "n_plus",
                 "n_minus", "empty_side", "sign_wall", "sign_complex")

# the keys each document object may carry; any other is refused
_MODEL_KEYS = frozenset({"schema_version", "q", "a_blocks", "a_matrix", "pairings", "wall"})
_WALL_KEYS = frozenset({"p1", "zetaW", "w2", "wK"})
_SURFACE_DOCUMENT_KEYS = frozenset({"schema_version", "surface"})
_SURFACE_KEYS = frozenset({"name", "q", "basis", "gram", "K", "Sigma", "cone_slope"})


def _rat(x) -> str:
    f = frac(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # Python's limit on the digits of an int as text
        raise PreconditionError(f"the exact value is too long to print: {exc}") from None


def _parse_int_list(text):
    """The ints of a comma-separated list; blank text is the empty list, and an
    empty item is refused, since dropping it would price a list nobody typed."""
    if not text.strip():
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad integer list {text!r}") from exc


def _load_input(path):
    if path is None:
        raise SchemaError("--input PATH is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # read() decodes all at once: start is the byte offset
        raise SchemaError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") \
            from exc


def _document(text) -> dict:
    """A JSON document, model or surface: a top-level object whose schema_version reads as 1."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the int-string limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    version = exact_int(doc.get("schema_version", 1), "schema_version")
    if version != 1:
        raise SchemaError(f"unsupported schema_version {_shown(version)}")
    return doc


def _known(obj, keys, what) -> dict:
    """``obj``, refused if it has a key outside ``keys``: a misspelt key would
    be ignored, so its default would be priced."""
    unknown = obj.keys() - keys
    if unknown:
        raise SchemaError(f"unknown {what} keys: {sorted(unknown)}")
    return obj


def read_model_document(text) -> tuple:
    """(PairingInput, WallGeometry) of a model document: the model part is read
    first, then the 'wall' object, whose zeta^2 and zeta.K are the pairings'."""
    doc = _known(_document(text), _MODEL_KEYS, "model document")
    raw = doc.get("pairings", {})
    if not isinstance(raw, dict):
        raise SchemaError("'pairings' must be an object")
    _known(raw, PAIRING_KEYS, "pairing")
    try:
        inp = PairingInput(q=doc["q"], pairings=Pairings(**raw), a_blocks=doc.get("a_blocks"),
                           a_matrix=doc.get("a_matrix"))
    except (ArithmeticError, KeyError, TypeError, ValueError, PreconditionError) as exc:
        raise SchemaError(f"bad PairingInput document: {exc}") from exc
    wall = doc.get("wall")
    if wall is not None and not isinstance(wall, dict):
        raise SchemaError("'wall' must be an object")
    if not wall or "p1" not in _known(wall, _WALL_KEYS, "wall"):
        raise SchemaError("the input document needs a 'wall' object with at least 'p1'")
    try:
        return inp, WallGeometry.build(q=inp.q, zeta2=inp.pairings.zeta2,
                                       zetaK=inp.pairings.zetaK, **wall)
    except PreconditionError as exc:
        raise SchemaError(f"bad wall data: {exc}") from exc


def read_surface_document(text) -> SurfaceData:
    """The surface of a surface document: a named ruled surface, or the data it
    carries, which is read as it is whatever its name says."""
    surf = _known(_document(text), _SURFACE_DOCUMENT_KEYS, "surface document").get("surface")
    if not isinstance(surf, dict):
        raise SchemaError("missing 'surface' object")
    _known(surf, _SURFACE_KEYS, "surface")
    name = surf.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"the surface name must be a string, got {name!r}")
    try:
        q = exact_int(surf["q"], "q")
        if "gram" not in surf:
            if name.startswith("product_ruled"):
                return product_ruled(q)
            if name.startswith("odd_ruled"):
                return odd_ruled(q)
        slope = surf.get("cone_slope")
        return SurfaceData(
            name=name or "custom", q=q, basis=tuple(surf["basis"]),
            gram=surf["gram"], K=surf["K"], Sigma=surf["Sigma"],
            cone_slope=None if slope is None else frac(slope))
    except KeyError as exc:
        raise SchemaError(f"surface document lacks {exc}") from exc
    except (ArithmeticError, TypeError, ValueError, PreconditionError) as exc:
        raise SchemaError(f"bad surface document: {exc}") from exc


def _json_text(value, indent="\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it, for
    the dicts (of str keys), lists, strings, ints, bools and None a command
    prints.  Strings go through the C escaper ``json.dumps`` itself uses; unlike
    its indent encoder, this makes no closures, so a request leaves no cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


def _emit(doc, records, columns, opts):
    """Emit either the JSON document or one CSV row per record, deterministically:
    a record's value in each column, a missing one empty."""
    if opts.meta:
        doc = dict(doc)
        doc["meta"] = {"tool": "wallcross", "version": __version__}
    if opts.output == "json":
        print(_json_text(doc))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([rec.get(c) for c in columns])
        sys.stdout.write(buf.getvalue())


def cmd_params(opts) -> int:
    inp, wall = read_model_document(_load_input(opts.input))
    model = build_model(inp)
    doc = {
        "schema_version": 1,
        "command": "params",
        "wall": {key: getattr(wall, key) for key in PARAMS_FIELDS},
        "vol": _rat(volume(model)),
    }
    _emit(doc, [dict(doc["wall"], vol=doc["vol"])], [*doc["wall"], "vol"], opts)
    return EXIT_OK


def cmd_delta(opts) -> int:
    inp, wall = read_model_document(_load_input(opts.input))
    model = build_model(inp)
    gammas, threes = _parse_int_list(opts.gammas), _parse_int_list(opts.threes)
    # by default the s >= 0 that gives the word degree 4r + 2s + 3|gammas| + |threes| = 2d
    twice_s = 2 * (wall.d - 2 * opts.r) - 3 * len(gammas) - len(threes)
    if opts.s is None and (twice_s < 0 or twice_s % 2):
        # no --s helps either: the word's degree is odd, or past 2d at s = 0
        raise PreconditionError(
            f"no s >= 0 gives the word degree 2d = {2 * wall.d}: "
            + ("an odd number of odd insertions gives odd degree" if twice_s % 2 else
               f"x^r and the odd insertions alone have degree {2 * wall.d - twice_s} > 2d"))
    word = InsertionWord(r=opts.r, s=twice_s // 2 if opts.s is None else opts.s,
                         gammas=gammas, threes=threes)
    values = evaluate(model, wall, word, opts.path)
    if opts.path == "auto" and values[0].value != values[1].value:
        raise InvariantError(f"closed-form and oracle disagree: "
                             f"{_rat(values[0].value)} vs {_rat(values[1].value)}")
    doc = {
        "schema_version": 1,
        "command": "delta",
        "word": word.describe(),
        "wall": {"p1": wall.p1, "q": wall.q, "zeta2": wall.zeta2, "d": wall.d,
                 "l_zeta": wall.l_zeta},
        "values": [
            {"value": _rat(v.value), "path": v.path,
             "modulus_exponent": v.modulus_exponent}
            for v in values
        ],
    }
    _emit(doc, [dict(v, word=doc["word"]) for v in doc["values"]],
          ["word", "value", "path", "modulus_exponent"], opts)
    return EXIT_OK


def cmd_walls(opts) -> int:
    surface = read_surface_document(_load_input(opts.input))
    if opts.w is None:
        raise SchemaError("--w v1,v2 is required for the walls command")
    if opts.p1 is None:
        raise SchemaError("--p1 INT is required for the walls command")
    w = _parse_int_list(opts.w)
    alpha = _parse_int_list(opts.alpha) if opts.alpha is not None else None
    records = enumerate_walls(surface, w, opts.p1, opts.bound, alpha=alpha)
    entries = []
    for rec in records:
        entry = {"a": rec.a, "b": rec.b, "zeta2": rec.wall.zeta2,
                 "l_zeta": rec.wall.l_zeta, "h_plus": rec.wall.h_plus,
                 "d": rec.wall.d}
        if rec.wall.l_zeta <= 1 and alpha is not None:
            model = build_model(PairingInput(q=surface.q, pairings=rec.pairings))
            (closed,) = evaluate(model, rec.wall, InsertionWord(s=rec.wall.d), "closed")
            entry["delta_alpha_d"] = _rat(closed.value)
        entries.append(entry)
    doc = {"schema_version": 1, "command": "walls", "surface": surface.name,
           "p1": opts.p1, "w": list(w), "count": len(entries), "walls": entries}
    _emit(doc, entries, ["a", "b", "zeta2", "l_zeta", "h_plus", "d", "delta_alpha_d"], opts)
    return EXIT_OK


def _report(results, meta) -> int:
    for res in results:
        print(res.line(meta))
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


# the verification grids are imported only by the two commands that run them,
# so params, delta and walls neither compile nor load them
def cmd_verify(opts) -> int:
    from .verify import parse_grid, run_checks
    properties = opts.property.split(",") if opts.property is not None else None
    return _report(run_checks(parse_grid(opts.grid), properties=properties), opts.meta)


def cmd_selftest(opts) -> int:
    from .verify import Grid, run_checks
    grid = Grid(q_max=1, d_max=4, r_max=1, pair_bound=1, sweep_bound=8)
    return _report(run_checks(grid, properties=["identities", "axioms", "segre",
                                                "simple-type", "scale"]), opts.meta)


# each flag's kind, its value when not given and its help: an int flag's value is
# read by int(), a str flag's as it is, a tuple's must be one of its choices, and
# a bool flag takes no value; help first, as the usage text lists it
FLAGS = {
    "help": (bool, False, "print this text and exit"),
    "command": (("params", "delta", "verify", "walls", "selftest"), None, "the command to run"),
    "input": (str, None, "path to a JSON model/surface document"),
    "output": (("json", "csv"), "json", "default: json"),
    "r": (int, 0, "multiplicity of the point class x (default: 0)"),
    "s": (int, None, "multiplicity of alpha (default: d - 2r - (3|gammas| + |threes|)/2)"),
    "gammas": (str, "", "H_1 insertion indices, e.g. '0,1'"),
    "threes": (str, "", "H_3 insertion indices, e.g. '0'"),
    "path": (PATHS, "auto", "delta evaluation path (default: auto)"),
    "alpha": (str, None, "alpha vector in the surface basis"),
    "w": (str, None, "w vector in the surface basis"),
    "p1": (int, None, "first Pontryagin number"),
    "bound": (int, 10, "wall enumeration bound (default: 10)"),
    "grid": (str, None, "verify bounds, e.g. 'q=0..3,d<=8'"),
    "property": (str, None, "comma-separated property filter for verify"),
    "meta": (bool, False, "attach run metadata to JSON output; verify and selftest add each "
                          "check's seconds and points/s"),
}

# the flags each command reads; any other flag given is refused, as an unknown
# document key is, since it would be ignored
_COMMON_FLAGS = frozenset({"command", "meta"})
COMMAND_FLAGS = {
    "params": _COMMON_FLAGS | {"input", "output"},
    "delta": _COMMON_FLAGS | {"input", "output", "r", "s", "gammas", "threes", "path"},
    "walls": _COMMON_FLAGS | {"input", "output", "w", "p1", "alpha", "bound"},
    "verify": _COMMON_FLAGS | {"grid", "property"},
    "selftest": _COMMON_FLAGS,
}


def usage_text() -> str:
    """The text that -h and --help print: each flag of ``FLAGS``, with its help."""
    lines = ["usage: wallcross --command COMMAND [flags]", "",
             "Exact wall-crossing difference terms for Donaldson invariants of surfaces",
             "with b+=1 and irregularity q >= 0.", "",
             "flags (a name may be cut to a unique prefix; --name=value also works):"]
    for name, (kind, _, text) in FLAGS.items():
        flag = "-h, --help" if name == "help" else f"--{name}"
        if kind is int or kind is str:
            flag += " " + name.upper()
        elif kind is not bool:
            flag += " {" + ",".join(kind) + "}"
        lines.append(f"  {flag:<24}{text}" if len(flag) < 24 else f"  {flag}\n{'':26}{text}")
    return "\n".join(lines) + "\n"


def read_flags(argv):
    """The flags given in ``argv`` as {name: value}, or None for -h or --help: argparse's
    rules, in one pass from the left, except that a flag's value is the next argument
    whatever it starts with.  A name is read exactly or as a unique prefix, a value
    after "=" or as the next argument, and the last of a repeated flag wins; every
    refusal is one ``SchemaError`` in argparse's words."""
    given, extras = {}, []
    args = iter(argv)
    for arg in args:
        if arg == "--":  # every argument after it is positional
            extras += [arg, *args]
            break
        if not arg.startswith("--") and arg != "-h":
            extras.append(arg)
            continue
        text, eq, value = ("help", "", "") if arg == "-h" else arg[2:].partition("=")
        names = [text] if text in FLAGS else [name for name in FLAGS if name.startswith(text)]
        if not names:
            extras.append(arg)
            continue
        if len(names) > 1:
            raise SchemaError(f"ambiguous option: {arg} could match "
                              + ", ".join(f"--{name}" for name in names))
        (name,) = names
        kind = FLAGS[name][0]
        if kind is bool:
            if eq:
                flag = "-h/--help" if name == "help" else f"--{name}"
                raise SchemaError(f"argument {flag}: ignored explicit argument {value!r}")
            if name == "help":
                return None
            given[name] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None:
                raise SchemaError(f"argument --{name}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise SchemaError(f"argument --{name}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise SchemaError(f"argument --{name}: invalid choice: {value!r} (choose from "
                              + ", ".join(map(repr, kind)) + ")")
        given[name] = value
    if "command" not in given:
        raise SchemaError("the following arguments are required: --command")
    if extras:
        raise SchemaError("unrecognized arguments: " + " ".join(extras))
    return given


def main(argv=None) -> int:
    handlers = {"params": cmd_params, "delta": cmd_delta, "walls": cmd_walls,
                "verify": cmd_verify, "selftest": cmd_selftest}
    try:
        given = read_flags(sys.argv[1:] if argv is None else argv)
        if given is None:
            sys.stdout.write(usage_text())
            return EXIT_OK
        command = given["command"]
        unread = given.keys() - COMMAND_FLAGS[command]
        if unread:
            raise SchemaError(f"the {command} command does not read "
                              + ", ".join(f"--{name}" for name in sorted(unread)))
        if given.get("meta") and given.get("output") == "csv":
            raise SchemaError("--meta adds its block to JSON output only, not to --output csv")
        opts = SimpleNamespace(**{name: flag[1] for name, flag in FLAGS.items()} | given)
        return handlers[command](opts)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except WallCrossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
