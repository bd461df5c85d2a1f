"""The three benchmark workloads.

A workload is built once from its seed (its set-up) and then hands out
rounds: lists of points, each a timed call into wallcross plus the exactness
gate for its result.  One caller runs the points of a round in order, the
next only after the previous returns (a closed loop).  A round has a fixed
composition, so every seed, and every run length that covers whole rounds,
measures the same mix; the seed varies values and order only.

Every wallcross function is looked up on its defining module at call time
(``closed.delta_l1``, not a name imported here), so the traced run sees the
top-level calls as well as the nested ones.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import wallcross.cli as cli
import wallcross.closed as closed
import wallcross.jacobian as jacobian
import wallcross.oracle as oracle
import wallcross.surfaces as surfaces
import wallcross.walls as walls
from wallcross.errors import InvalidWallError

import gates


@dataclass(frozen=True)
class Point:
    """One timed call. ``check`` maps its output to None or a problem;
    ``weight`` is the number of verified points it stands for."""

    label: str
    call: Callable
    check: Callable
    weight: int = 1


def run_cli(argv):
    """Call the CLI in-process; returns (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue()


def _round_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _nonzero(rng, bound=3):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def valid_zeta_k(p1, q, zeta2):
    """Every zeta.K that makes (p1, q, zeta2, zeta.K) a valid wall."""
    out = []
    for zk in range(-zeta2 + 2 * q + 8, zeta2 - 2 * q - 9, -1):
        try:
            walls.wall_params(p1, q, zeta2, zk)
        except InvalidWallError:
            continue
        out.append(zk)
    if not out:
        raise ValueError(f"no valid zeta.K for p1={p1} q={q} zeta2={zeta2}")
    return out


def random_pairings(rng, zeta2, zeta_k):
    """Pairings with every free entry nonzero and Sigma.K odd, so that
    Sigma.(K -+ 2 zeta) is never zero either: no seed gets a sparser, and
    so cheaper, ring than another."""
    return {"zeta2": zeta2, "zetaK": zeta_k, "zetaAlpha": _nonzero(rng),
            "sigmaZeta": _nonzero(rng), "sigmaAlpha": _nonzero(rng),
            "sigmaK": rng.choice((-3, -1, 1, 3)), "K2": _nonzero(rng, 8),
            "Kalpha": _nonzero(rng), "alpha2": _nonzero(rng)}


def library_delta(q, blocks, pairs, p1, word):
    """Closed form and ring oracle for one wall and word, straight from the
    defining modules; l = 0 or 1."""
    wall = walls.WallGeometry.build(p1=p1, q=q, zeta2=pairs["zeta2"], zetaK=pairs["zetaK"])
    pairings = jacobian.Pairings(**pairs)
    model = jacobian.build_model(jacobian.PairingInput(q=q, pairings=pairings, a_blocks=blocks))
    if wall.l_zeta == 0:
        if word.odd_count():
            value = closed.delta_l0_odd(wall, model, word).value
        else:
            value = closed.delta_l0(wall, pairings, word.r, jacobian.volume(model)).value
        return value, oracle.delta_oracle_l0(model, wall, word).value
    value = closed.delta_l1(wall, pairings, word.r, jacobian.volume(model)).value
    return value, oracle.delta_oracle_l1(model, wall, word.r).value


class VerifyDefault:
    """`wallcross --command verify` on the CLI's default grid; no seed."""

    name = "verify-default"
    trace_rounds = 1

    def __init__(self, seed, workdir):
        self.argv = ["--command", "verify"]

    def round(self, index):
        return [Point("verify", lambda: run_cli(self.argv),
                      lambda out: gates.check_verify(*out),
                      sum(gates.VERIFY_PINNED.values()))]


class OracleL1Deep:
    """l = 1 walls at q = 3, 4, 5, closed form against the ring oracle."""

    name = "oracle-l1-deep"
    trace_rounds = 2
    CONFIGS = tuple((q, zeta2, r) for q in (3, 4, 5) for zeta2 in (-4, -8) for r in (0, 1))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.zeta_ks = {(q, zeta2): valid_zeta_k(zeta2 - 4, q, zeta2)
                        for q, zeta2, _ in self.CONFIGS}

    def round(self, index):
        rng = _round_rng(self.seed, index)
        order = list(self.CONFIGS)
        rng.shuffle(order)
        return [self._point(rng, *config) for config in order]

    def _point(self, rng, q, zeta2, r):
        p1 = zeta2 - 4
        pairs = random_pairings(rng, zeta2, rng.choice(self.zeta_ks[q, zeta2]))
        blocks = tuple(rng.choice((1, 2, 3)) for _ in range(q))

        def call():
            wall = walls.WallGeometry.build(p1=p1, q=q, zeta2=zeta2, zetaK=pairs["zetaK"])
            pairings = jacobian.Pairings(**pairs)
            model = jacobian.build_model(
                jacobian.PairingInput(q=q, pairings=pairings, a_blocks=blocks))
            vol = jacobian.volume(model)
            return (closed.delta_l1(wall, pairings, r, vol).value,
                    oracle.delta_oracle_l1(model, wall, r).value)

        return Point(f"l1 q={q} zeta2={zeta2} r={r}", call, lambda out: gates.check_routes(*out))


# (q, p1) of the model documents; l = 0 has zeta2 = p1, l = 1 has zeta2 = p1 + 4.
L0_DOCS = ((1, -5), (2, -5), (3, -3), (4, -3))
L1_DOCS = ((1, -8), (2, -8), (3, -8))
# (name, genus, w, p1): each enumeration holds walls of l = 0, 1 (and one of l = 2).
WALL_SURFACES = (("product_ruled", 1, (1, 1), -10), ("product_ruled", 2, (0, 1), -8),
                 ("odd_ruled", 1, (1, 1), -7), ("odd_ruled", 2, (0, 1), -11))
WALL_BOUND = 6


def _ints(values):
    return ",".join(str(v) for v in values)


class _Request:
    """One CLI request and its gate ``gate(rc, text, fmt, expected)``.  The
    expected value is computed once, after timing, and shared by every
    repeat of the request."""

    def __init__(self, label, argv, fmt, gate, expect):
        self.label = label
        self.argv = argv + ["--output", fmt]
        self.fmt = fmt
        self.gate = gate
        self._expect = expect
        self._expected = None

    def expected(self):
        if self._expected is None:
            self._expected = self._expect()
        return self._expected

    def check(self, out):
        rc, text = out
        return self.gate(rc, text, self.fmt, self.expected())

    def point(self):
        return Point(self.label, lambda: run_cli(self.argv), self.check)


class CliRequests:
    """A stream of in-process CLI requests against documents written at set-up.
    Every round repeats the same requests in a new order."""

    name = "cli-requests"
    trace_rounds = 10

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random(seed)
        workdir = Path(workdir)
        requests = []
        for q, p1 in L0_DOCS:
            doc = self._model_doc(rng, workdir, q, p1, p1)
            if q == 2:
                requests.append(self._params(doc))
            requests += [self._delta(doc, word) for word in self._l0_words(rng, doc)]
        for q, p1 in L1_DOCS:
            doc = self._model_doc(rng, workdir, q, p1 + 4, p1)
            if q == 1:
                requests.append(self._params(doc))
            requests += [self._delta(doc, jacobian.InsertionWord(r=r, s=doc["d"] - 2 * r))
                         for r in (0, 1)]
        for name, g, w, p1 in WALL_SURFACES:
            alpha = (_nonzero(rng), _nonzero(rng))
            requests.append(self._walls(workdir, name, g, w, p1, alpha))
        # outputs alternate between json and csv down the fixed request list
        self.requests = [make(("json", "csv")[i % 2]) for i, make in enumerate(requests)]

    def round(self, index):
        order = list(self.requests)
        _round_rng(self.seed, index).shuffle(order)
        return [req.point() for req in order]

    @staticmethod
    def _model_doc(rng, workdir, q, zeta2, p1):
        pairs = random_pairings(rng, zeta2, rng.choice(valid_zeta_k(p1, q, zeta2)))
        blocks = tuple(rng.choice((1, 2, 3)) for _ in range(q))
        path = workdir / f"model_q{q}_l{(zeta2 - p1) // 4}.json"
        path.write_text(json.dumps({"schema_version": 1, "q": q, "a_blocks": list(blocks),
                                    "pairings": pairs, "wall": {"p1": p1}}))
        return {"path": str(path), "q": q, "p1": p1, "pairs": pairs, "blocks": blocks,
                "d": -p1 - 3 * (1 - q)}

    @staticmethod
    def _l0_words(rng, doc):
        """Three fixed word shapes; the seed picks the odd indices and their order."""
        d, indices = doc["d"], range(2 * doc["q"])
        return (jacobian.InsertionWord(r=1, s=d - 2),
                jacobian.InsertionWord(s=d - 3, gammas=rng.sample(indices, 2)),
                jacobian.InsertionWord(s=d - 2, gammas=(rng.choice(indices),),
                                       threes=(rng.choice(indices),)))

    @staticmethod
    def _params(doc):
        def expect():
            pr = doc["pairs"]
            wp = walls.wall_params(doc["p1"], doc["q"], pr["zeta2"], pr["zetaK"])
            model = jacobian.build_model(jacobian.PairingInput(
                q=doc["q"], pairings=jacobian.Pairings(**pr), a_blocks=doc["blocks"]))
            return {"d": wp.d, "l_zeta": wp.l_zeta, "vol": jacobian.volume(model)}

        argv = ["--command", "params", "--input", doc["path"]]
        return lambda fmt: _Request(f"params q={doc['q']}", argv, fmt,
                                    gates.check_params, expect)

    @staticmethod
    def _delta(doc, word):
        def expect():
            value, ring = library_delta(doc["q"], doc["blocks"], doc["pairs"], doc["p1"], word)
            if value != ring:
                raise ValueError(f"library routes disagree: closed {value}, oracle {ring}")
            return value

        def gate(rc, text, fmt, expected):
            return gates.check_delta(rc, text, fmt, word.describe(), expected)

        argv = ["--command", "delta", "--input", doc["path"], "--path", "auto",
                "--r", str(word.r), "--s", str(word.s)]
        if word.gammas:
            argv += ["--gammas", _ints(word.gammas)]
        if word.threes:
            argv += ["--threes", _ints(word.threes)]
        label = f"delta q={doc['q']} p1={doc['p1']} {word.describe()}"
        return lambda fmt: _Request(label, argv, fmt, gate, expect)

    @staticmethod
    def _walls(workdir, name, g, w, p1, alpha):
        path = workdir / f"surface_{name}_{g}.json"
        path.write_text(json.dumps({"schema_version": 1, "surface": {"name": name, "q": g}}))

        def expect():
            """rederive(a, b): delta(alpha^d) on the wall zeta = a f - b (second
            class) through the ring oracle, from the surface's lattice data."""
            surface = getattr(surfaces, name)(g)
            pair, sig, kk = surface.pairing, surface.Sigma, surface.K

            @functools.cache
            def rederive(a, b):
                zeta = (a, -b)
                pairings = jacobian.Pairings(
                    zeta2=pair(zeta, zeta), zetaK=pair(zeta, kk), zetaAlpha=pair(zeta, alpha),
                    sigmaZeta=pair(sig, zeta), sigmaAlpha=pair(sig, alpha),
                    sigmaK=pair(sig, kk), K2=pair(kk, kk), Kalpha=pair(kk, alpha),
                    alpha2=pair(alpha, alpha))
                wall = walls.WallGeometry.build(
                    p1=p1, q=surface.q, zeta2=int(pair(zeta, zeta)), zetaK=int(pair(zeta, kk)),
                    zetaW=int(pair(zeta, w)), w2=int(pair(w, w)), wK=int(pair(w, kk)))
                model = jacobian.build_model(
                    jacobian.PairingInput(q=surface.q, pairings=pairings))
                if wall.l_zeta == 0:
                    return oracle.delta_oracle_l0(
                        model, wall, jacobian.InsertionWord(s=wall.d)).value
                return oracle.delta_oracle_l1(model, wall, 0).value

            return rederive

        # "--opt=value": argparse would read a bare "-1,2" as an option name
        argv = ["--command", "walls", "--input", str(path), f"--w={_ints(w)}", f"--p1={p1}",
                f"--alpha={_ints(alpha)}", f"--bound={WALL_BOUND}"]
        return lambda fmt: _Request(f"walls {name}({g})", argv, fmt, gates.check_walls, expect)


WORKLOADS = {w.name: w for w in (VerifyDefault, OracleL1Deep, CliRequests)}
