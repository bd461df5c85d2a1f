"""Command-line front end.

One command per invocation (--command params | delta | verify | walls |
selftest).  Rationals are always printed as "num/den" with a positive
denominator; output is deterministic and byte-identical across runs unless
--meta adds the run-metadata block.

Exit codes: 0 success, 1 input error, 2 regime error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import __version__
from .delta import PATHS, evaluate
from .errors import InvariantError, PreconditionError, RegimeError, SchemaError, WallCrossError
from .graded import exact_int, frac
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
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
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


def _document(text) -> dict:
    """A JSON document, model or surface: a top-level object of schema version 1."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the int-string limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    version = doc.get("schema_version", 1)
    if version != 1:
        raise SchemaError(f"unsupported schema_version {version}")
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


def _emit(doc, records, columns, opts):
    """Emit either the JSON document or one CSV row per record, deterministically:
    a record's value in each column, a missing one empty."""
    if opts.meta:
        doc = dict(doc)
        doc["meta"] = {"tool": "wallcross", "version": __version__}
    if opts.output == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
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
        raise PreconditionError(f"no s >= 0 gives the word degree 2d = {2 * wall.d}; pass --s")
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
    alpha = _parse_int_list(opts.alpha) if opts.alpha else None
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
    properties = opts.property.split(",") if opts.property else None
    return _report(run_checks(parse_grid(opts.grid), properties=properties), opts.meta)


def cmd_selftest(opts) -> int:
    from .verify import Grid, run_checks
    grid = Grid(q_max=1, d_max=4, r_max=1, pair_bound=1, sweep_bound=8)
    return _report(run_checks(grid, properties=["identities", "axioms", "segre",
                                                "simple-type", "scale"]), opts.meta)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1), not
    argparse's exit 2, which is the regime-error code here."""

    def error(self, message):
        raise SchemaError(message)


# a parser is a reference cycle, so main reuses one per process instead of
# leaving one for the cyclic collector at every call
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wallcross",
        description="Exact wall-crossing difference terms for Donaldson invariants "
                    "of surfaces with b+=1 and irregularity q >= 0.")
    parser.add_argument("--command", required=True,
                        choices=["params", "delta", "verify", "walls", "selftest"])
    parser.add_argument("--input", help="path to a JSON model/surface document")
    parser.add_argument("--output", choices=["json", "csv"], default="json")
    parser.add_argument("--r", type=int, default=0, help="multiplicity of the point class x")
    parser.add_argument("--s", type=int, default=None,
                        help="multiplicity of alpha (default: d - 2r - (3|gammas| + |threes|)/2)")
    parser.add_argument("--gammas", default="", help="H_1 insertion indices, e.g. '0,1'")
    parser.add_argument("--threes", default="", help="H_3 insertion indices, e.g. '0'")
    parser.add_argument("--path", choices=PATHS, default="auto",
                        help="delta evaluation path")
    parser.add_argument("--alpha", default=None, help="alpha vector in the surface basis")
    parser.add_argument("--w", default=None, help="w vector in the surface basis")
    parser.add_argument("--p1", type=int, default=None, help="first Pontryagin number")
    parser.add_argument("--bound", type=int, default=10, help="wall enumeration bound")
    parser.add_argument("--grid", default=None, help="verify bounds, e.g. 'q=0..3,d<=8'")
    parser.add_argument("--property", default=None,
                        help="comma-separated property filter for verify")
    parser.add_argument("--meta", action="store_true",
                        help="attach run metadata; verify and selftest add each check's "
                             "seconds and points/s")
    return parser


def main(argv=None) -> int:
    handlers = {"params": cmd_params, "delta": cmd_delta, "walls": cmd_walls,
                "verify": cmd_verify, "selftest": cmd_selftest}
    try:
        opts = make_parser().parse_args(argv)
        return handlers[opts.command](opts)
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
