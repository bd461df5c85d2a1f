"""CLI end-to-end: commands, exit codes, determinism, format parity."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wallcross
from wallcross import SchemaError, verify
from wallcross.cli import FLAGS, _json_text, main, read_flags, usage_text
from wallcross.surfaces import MAX_BOUND
from wallcross.verify import parse_grid

from conftest import reference_parser

L0_DOC = {
    "schema_version": 1,
    "q": 1,
    "a_blocks": [1],
    "pairings": {"zeta2": -1, "zetaK": 1, "zetaAlpha": 2, "sigmaZeta": 1,
                 "sigmaAlpha": 1, "sigmaK": 0, "K2": 8, "Kalpha": 0, "alpha2": -1},
    "wall": {"p1": -1},
}

L1_DOC = {
    "schema_version": 1,
    "q": 0,
    "pairings": {"zeta2": -4, "zetaK": 0, "zetaAlpha": 2, "K2": 8, "alpha2": -1},
    "wall": {"p1": -8},
}

L2_DOC = dict(L1_DOC, wall={"p1": -12})

SURFACE_DOC = {"schema_version": 1, "surface": {"name": "product_ruled", "q": 1}}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_l0_passthrough(tmp_path, capsys):
    path = _write(tmp_path, "m.json", L0_DOC)
    code, out, _ = _run(capsys, "--command", "delta", "--input", path)
    assert code == 0
    doc = json.loads(out)
    values = {v["path"]: v["value"] for v in doc["values"]}
    assert values["closed-form"] == "-10/1"
    assert values["ring-oracle"] == "-10/1"


def test_delta_l1_passthrough(tmp_path, capsys):
    path = _write(tmp_path, "m.json", L1_DOC)
    code, out, _ = _run(capsys, "--command", "delta", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0]["value"] == "12/1"
    code, out, _ = _run(capsys, "--command", "delta", "--input", path, "--r", "1")
    assert json.loads(out)["values"][0]["value"] == "-1/2"


def test_delta_regime_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "m.json", L2_DOC)
    code, _, err = _run(capsys, "--command", "delta", "--input", path)
    assert code == 2
    assert "l_zeta = 2" in err
    code, out, _ = _run(capsys, "--command", "delta", "--input", path,
                        "--path", "leading")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0]["path"] == "leading-term"
    assert doc["values"][0]["modulus_exponent"] == 7


def test_input_error_exit_code(tmp_path, capsys):
    code, _, err = _run(capsys, "--command", "delta", "--input",
                        str(tmp_path / "missing.json"))
    assert code == 1
    path = _write(tmp_path, "bad.json", {"q": 1, "pairings": {"nope": 3}})
    code, _, err = _run(capsys, "--command", "delta", "--input", path)
    assert code == 1


def test_delta_rejects_word_of_wrong_degree(tmp_path, capsys):
    # d = 1: alpha^3 used to be answered with the value of alpha^1
    path = _write(tmp_path, "m.json", L0_DOC)
    for route in ("auto", "closed", "oracle", "leading"):
        code, out, err = _run(capsys, "--command", "delta", "--input", path,
                              "--path", route, "--s", "3")
        assert (code, out) == (1, "") and "not 2d = 2" in err
    path = _write(tmp_path, "m1.json", L1_DOC)  # d = 5
    for route in ("closed", "oracle"):
        code, out, _ = _run(capsys, "--command", "delta", "--input", path,
                            "--path", route, "--r", "1", "--s", "1")
        assert (code, out) == (1, "")
    # at q = 0 the index 0 names no class, an input error whatever the regime
    code, out, err = _run(capsys, "--command", "delta", "--input", path, "--path", "oracle",
                          "--s", "3", "--gammas", "0", "--threes", "1")
    assert (code, out, err) == (1, "", "error: generator index 0 out of range for q=0\n")
    # odd insertions are priced only at l_zeta = 0, never by dropping them
    path = _write(tmp_path, "m2.json", dict(L1_DOC, q=1))  # d = 8
    code, out, err = _run(capsys, "--command", "delta", "--input", path, "--path", "oracle",
                          "--s", "6", "--gammas", "0", "--threes", "1")
    assert (code, out) == (2, "") and "only evaluated exactly at l_zeta = 0" in err


def test_delta_exits_3_when_the_routes_disagree(tmp_path, capsys, monkeypatch):
    # main prints the one error line of the InvariantError, and nothing on stdout
    from wallcross import delta
    real = delta.delta_oracle_l0

    def shifted(*args):
        out = real(*args)
        return replace(out, value=out.value + 1)
    monkeypatch.setattr(delta, "delta_oracle_l0", shifted)
    path = _write(tmp_path, "m.json", L0_DOC)
    assert _run(capsys, "--command", "delta", "--input", path) == (
        3, "", "error: closed-form and oracle disagree: -10/1 vs -9/1\n")


def test_delta_defaults_s_to_the_degree_of_the_odd_insertions(tmp_path, capsys):
    # d = 5: s defaults to d - 2r - (3|gammas| + |threes|)/2, so gamma_1 A_1 without
    # --s is priced as alpha^3 d1 B1 (it was alpha^5 d1 B1, refused for its degree)
    doc = dict(L0_DOC, pairings=dict(L0_DOC["pairings"], zeta2=-5), wall={"p1": -5})
    path = _write(tmp_path, "m.json", doc)
    code, out, err = _run(capsys, "--command", "delta", "--input", path,
                          "--gammas", "0", "--threes", "0")
    assert (code, err) == (0, "") and json.loads(out)["word"] == "alpha^3 d1 B1"
    values = {v["path"]: v["value"] for v in json.loads(out)["values"]}
    assert values["closed-form"] == values["ring-oracle"] != "0/1"
    assert _run(capsys, "--command", "delta", "--input", path, "--gammas", "0",
                "--threes", "0", "--s", "3") == (code, out, err)
    # no s gives degree 10 to gamma_1 (3 + 2s), x^3 (12 + 2s) or x^2 gamma_1 gamma_2 (14 + 2s),
    # and the error says why, with no --s hint, since no --s helps
    for extra, why in ((["--gammas", "0"], "an odd number of odd insertions gives odd degree"),
                       (["--r", "3"], "x^r and the odd insertions alone have degree 12 > 2d"),
                       (["--gammas", "0,1", "--r", "2"],
                        "x^r and the odd insertions alone have degree 14 > 2d")):
        code, out, err = _run(capsys, "--command", "delta", "--input", path, *extra)
        assert (code, out, err) == (
            1, "", f"error: no s >= 0 gives the word degree 2d = 10: {why}\n"), extra


def test_non_integral_lattice_pairing_is_rejected(tmp_path, capsys):
    doc = dict(L0_DOC, pairings=dict(L0_DOC["pairings"], zeta2="-5/4"))
    code, out, err = _run(capsys, "--command", "params", "--input",
                          _write(tmp_path, "z.json", doc))
    assert (code, out) == (1, "") and "zeta2 must be an integer, got -5/4" in err
    doc = dict(L0_DOC, wall={"p1": -1, "w2": "1/2"})
    code, out, err = _run(capsys, "--command", "delta", "--input",
                          _write(tmp_path, "w.json", doc))
    assert (code, out) == (1, "") and "w2" in err


def test_surface_document_without_q(tmp_path, capsys):
    for name in ("product_ruled", "odd_ruled"):
        path = _write(tmp_path, "s.json", {"schema_version": 1, "surface": {"name": name}})
        code, out, err = _run(capsys, "--command", "walls", "--input", path,
                              "--w", "1,1", "--p1", "-2")
        assert (code, out) == (1, "") and "'q'" in err


def test_grid_lower_bounds():
    grid = parse_grid("q=0..2,d=1..5,r=0..1,pair=-2..2")
    assert (grid.q_max, grid.d_max, grid.r_max, grid.pair_bound) == (2, 5, 1, 2)
    # the sweeps know a_ij blocks for q <= 3 only: q<=4 ended in a KeyError traceback;
    # sweep<=60 ran for a minute and sweep<=1000 never returned
    for text in ("q=2..1", "q=1..3", "d=2..8", "r=1..2", "pair=1..3", "q=x..3",
                 "q<=-1", "d<=0", "r<=-1", "pair<=-1", "sweep<=0", "sweep<=-3", "q<=4",
                 "d<=17", "pair<=6", "sweep<=41", "sweep<=1000", "pair=-10..10",
                 # a start below the grid's own used to be narrowed to it, and exit 0
                 "pair=-9..2", "sweep=-40..12", "d=0..6", "q=-1..2"):
        with pytest.raises(SchemaError):
            parse_grid(text)
    at_caps = parse_grid("q<=3,d<=16,r<=8,pair<=5,sweep<=40")
    assert at_caps == verify.Grid(3, 16, 8, 5, 40)


def test_one_default_grid():
    # a clause adjusts only the key it names: "q<=2" restates the default q, and
    # ran 465,875 points where no --grid ran 86,399
    assert parse_grid("q<=2") == parse_grid("") == parse_grid(None) == verify.Grid()
    assert parse_grid("d<=4") == verify.Grid(d_max=4)


def test_a_long_number_makes_a_short_error_line(tmp_path, capsys):
    # the whole 5,000-digit value was printed: a 5,068-character error line
    doc = dict(L0_DOC, pairings=dict(L0_DOC["pairings"], zetaAlpha="1" * 4999 + "x"))
    path = _write(tmp_path, "long.json", doc)
    code, out, err = _run(capsys, "--command", "params", "--input", path)
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 1)
    assert lines[0].startswith("error: ") and len(lines[0]) < 200, lines[0]
    assert "(5002 characters)" in lines[0]
    # a wall input whose exact value has more digits than an int may print as
    # text ended in a ValueError traceback
    path = _write(tmp_path, "p1.json", dict(L0_DOC, wall={"p1": "1.5e-4300"}))
    code, out, err = _run(capsys, "--command", "params", "--input", path)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("error: ") and "too long to print" in err


def test_output_determinism_and_format_parity(tmp_path, capsys):
    path = _write(tmp_path, "m.json", L0_DOC)
    _, out1, _ = _run(capsys, "--command", "delta", "--input", path)
    _, out2, _ = _run(capsys, "--command", "delta", "--input", path)
    assert out1 == out2
    _, csv_out, _ = _run(capsys, "--command", "delta", "--input", path,
                         "--output", "csv")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_values = [(v["path"], v["value"]) for v in json.loads(out1)["values"]]
    csv_values = [(r["path"], r["value"]) for r in rows]
    assert json_values == csv_values
    # --meta adds metadata but not into the data rows
    _, meta_out, _ = _run(capsys, "--command", "delta", "--input", path, "--meta")
    doc = json.loads(meta_out)
    assert doc["meta"]["tool"] == "wallcross"
    assert doc["values"] == json.loads(out1)["values"]


def test_params_command(tmp_path, capsys):
    path = _write(tmp_path, "m.json", L1_DOC)
    code, out, _ = _run(capsys, "--command", "params", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["wall"]["d"] == 5 and doc["wall"]["l_zeta"] == 1
    assert doc["vol"] == "1/1"


def test_walls_command(tmp_path, capsys):
    path = _write(tmp_path, "s.json", SURFACE_DOC)
    code, out, _ = _run(capsys, "--command", "walls", "--input", path,
                        "--w", "1,1", "--p1", "-2", "--alpha", "1,1", "--bound", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["walls"][0]["a"] == 1 and doc["walls"][0]["b"] == 1
    assert doc["walls"][0]["delta_alpha_d"] == "0/1"  # zeta.alpha = 0 on this alpha
    # empty result set still exits 0
    code, out, _ = _run(capsys, "--command", "walls", "--input", path,
                        "--w", "1,0", "--p1", "-5", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "a" and len(rows) == 1
    # missing flags are input errors
    code, _, _ = _run(capsys, "--command", "walls", "--input", path)
    assert code == 1


def test_walls_alpha_with_nonzero_delta(tmp_path, capsys):
    path = _write(tmp_path, "s.json", SURFACE_DOC)
    code, out, _ = _run(capsys, "--command", "walls", "--input", path,
                        "--w", "1,1", "--p1", "-2", "--alpha", "1,3", "--bound", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["walls"][0]["delta_alpha_d"] not in ("", "0/1")


def test_verify_command_and_mutation(tmp_path, capsys, monkeypatch):
    code, out, _ = _run(capsys, "--command", "verify", "--grid",
                        "q<=1,d<=3,r<=0,pair<=1,sweep<=6",
                        "--property", "identities,axioms")
    assert code == 0
    assert out.count("PASS") == 2
    # a sign error in the wall sign must be caught with a counterexample
    wall_sign = verify.wall_sign
    monkeypatch.setattr(verify, "wall_sign", lambda *args: -wall_sign(*args))
    code, out, _ = _run(capsys, "--command", "verify", "--grid", "sweep<=6",
                        "--property", "identities")
    assert code == 3
    assert "FAIL" in out and "sign identity" in out


def test_a_check_that_raises_fails_and_the_others_still_report(capsys, monkeypatch):
    # an error raised inside one check is that check's FAIL line, and verify exits 3,
    # not 1 with the error line alone
    from wallcross import PreconditionError, delta
    real = delta.delta_l1

    def injected(wall, pairings, r, vol):
        if r == 1:
            raise PreconditionError("injected")
        return real(wall, pairings, r, vol)
    monkeypatch.setattr(delta, "delta_l1", injected)
    code, out, err = _run(capsys, "--command", "verify", "--grid", "q<=1,d<=5,pair<=1",
                          "--property", "axioms,oracle-l1,segre")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (3, "", 3)
    assert lines[0] == "PASS model-axioms (8 points)"
    assert lines[1].startswith("FAIL oracle-l1 (")
    assert lines[1].endswith(" points) -- raised PreconditionError: injected")
    assert lines[2] == "PASS segre-machinery (105 points)"


def test_verify_property_alias_and_unknown(tmp_path, capsys):
    code, out, _ = _run(capsys, "--command", "verify", "--grid", "sweep<=6",
                        "--property", "e_S")
    assert code == 0 and "model-axioms" in out
    # a check named twice, or through two aliases, ran and printed twice
    code, out, _ = _run(capsys, "--command", "verify", "--grid", "sweep<=6",
                        "--property", "axioms,identities,e_S,e_alpha,rem-ko")
    assert (code, out) == (0, "PASS model-axioms (8 points)\n"
                              "PASS structural-identities (12012 points)\n")
    # an empty --property used to be dropped, running all eleven checks
    for name in ("nope", ""):
        code, out, err = _run(capsys, "--command", "verify", "--property", name)
        assert (code, out) == (1, "") and _one_error_line(err)
        assert f"unknown property {name!r}" in err


def test_selftest_command(capsys):
    code, out, _ = _run(capsys, "--command", "selftest")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


SELFTEST_OUT = """PASS structural-identities (18110 points)
PASS model-axioms (8 points)
PASS segre-machinery (105 points)
PASS simple-type-failure (1 points)
PASS scale-invariance (12 points)
"""


def test_meta_adds_seconds_and_points_per_second_to_each_check_line(capsys, monkeypatch):
    # without --meta the output is pinned byte for byte; with it each line
    # gains " in S s, R points/s" after its point count, and nothing else moves
    import re
    for _ in range(2):
        assert _run(capsys, "--command", "selftest") == (0, SELFTEST_OUT, "")
    code, out, err = _run(capsys, "--command", "selftest", "--meta")
    assert (code, err) == (0, "")
    suffix = re.compile(r" in (\d+\.\d\d) s, (\d{1,3}(?:,\d{3})*|-) points/s$")
    lines = out.splitlines()
    assert [suffix.sub("", line) for line in lines] == SELFTEST_OUT.splitlines()
    assert all(suffix.search(line) for line in lines)
    rates = [suffix.search(line).group(2) for line in lines]
    assert int(rates[0].replace(",", "")) > 0  # 18,110 points take well under a second
    grid = ["--grid", "q<=1,d<=3,r<=0,pair<=1,sweep<=6", "--property", "identities,axioms"]
    plain = _run(capsys, "--command", "verify", *grid)
    assert plain == (0, "PASS structural-identities (8994 points)\n"
                        "PASS model-axioms (8 points)\n", "")
    code, out, _ = _run(capsys, "--command", "verify", "--meta", *grid)
    assert code == 0 and [suffix.sub("", line) for line in out.splitlines()] == \
        plain[1].splitlines()
    # a FAIL line keeps its detail after the suffix
    wall_sign = verify.wall_sign
    monkeypatch.setattr(verify, "wall_sign", lambda *args: -wall_sign(*args))
    code, out, _ = _run(capsys, "--command", "verify", "--meta", "--grid", "sweep<=6",
                        "--property", "identities")
    assert code == 3
    assert re.match(r"FAIL structural-identities \(\d+ points\) in \d+\.\d\d s, [\d,-]+ "
                    r"points/s -- sign identity fails", out)
    result = verify.CheckResult("x", True, 3)
    assert result.line() == "PASS x (3 points)" and result.line(True) == \
        "PASS x (3 points) in 0.00 s, - points/s"
    assert verify.CheckResult("x", True, 12345, seconds=0.5).line(True) == \
        "PASS x (12345 points) in 0.50 s, 24,690 points/s"


def test_cli_import_leaves_the_verification_grids_unloaded():
    # only verify and selftest need wallcross.verify; params, delta and walls
    # should neither compile nor load it
    src = str(Path(wallcross.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import json, sys, wallcross.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert "wallcross.cli" in loaded
    assert "wallcross.verify" not in loaded
    assert "argparse" not in loaded  # the flags are read against FLAGS


def test_main_constructs_no_parser(tmp_path, capsys, monkeypatch):
    # main read its flags through an argparse parser, a reference cycle that cost a
    # quarter of an l = 0 request; it reads them in one pass over FLAGS instead
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = _write(tmp_path, "m.json", L0_DOC)
    for argv in (["--command", "params", "--input", path], ["--command", "delta", "--r", "x"],
                 ["--help"]):
        _run(capsys, *argv)
    assert built == []


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["--command", "bogus"], "argument --command: invalid choice: 'bogus' (choose from "
                             "'params', 'delta', 'verify', 'walls', 'selftest')"),
    (["--command", "delta", "--r", "abc"], "argument --r: invalid int value: 'abc'"),
    (["--command", "delta", "--r=1.5"], "argument --r: invalid int value: '1.5'"),
    (["--command", "delta", "--pa", "nope"], "argument --path: invalid choice: 'nope' "
                                             "(choose from 'auto', 'closed', 'oracle', 'leading')"),
    (["--command", "delta", "--p", "1"], "ambiguous option: --p could match --path, --p1, "
                                         "--property"),
    (["--command", "delta", "--input"], "argument --input: expected one argument"),
    (["--command", "params", "--meta=yes"], "argument --meta: ignored explicit argument 'yes'"),
    (["--input", "m.json"], "the following arguments are required: --command"),
    (["--command", "params", "m.json", "-x", "--bogus"],
     "unrecognized arguments: m.json -x --bogus"),
    (["--command", "params", "--", "--input", "m.json"],
     "unrecognized arguments: -- --input m.json"),
    # a flag's value is the next argument whatever it starts with
    (["--command", "delta", "--r", "--s", "3"], "argument --r: invalid int value: '--s'"),
], ids=["unknown-command", "non-integer-r", "r-equals-1.5", "path-prefix-nope", "ambiguous-p",
        "input-no-value", "meta-equals", "no-command", "positionals", "after-double-dash",
        "r-reads-dash-s"])
def test_usage_errors_are_input_errors(capsys, argv, message):
    # each refusal keeps argparse's words, but exits 1: argparse's own exit code 2
    # is the documented regime-error code
    assert _run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_help_prints_every_flag_and_exits_0(capsys):
    for flag in ("-h", "--help", "--he"):
        code, out, err = _run(capsys, "--command", "delta", flag, "--r", "x")
        assert (code, err) == (0, "") and out == usage_text()
    assert all(f"--{name}" in out for name in FLAGS)
    # a refusal before the help flag is still a refusal
    assert _run(capsys, "--r", "x", "-h")[0] == 1


def test_a_value_may_begin_with_a_dash(tmp_path, capsys):
    # "--alpha -1,3" was refused as "expected one argument": only --alpha=-1,3 was read
    argv = _surface_request(tmp_path, "s.json", SURFACE_DOC)
    spaced = _run(capsys, *argv[:-4], "--alpha", "-1,3", "--bound", "6")
    assert spaced == _run(capsys, *argv[:-4], "--alpha=-1,3", "--bound=6")
    assert spaced[0] == 0 and json.loads(spaced[1])["count"] == 1
    # a flag's name may be cut to a unique prefix, and the last of a repeated flag wins
    assert _run(capsys, "--comm", "walls", "--inp", argv[3], "--w=1,1", "--p1", "-2",
                "--al", "-1,3", "--b", "4", "--b", "6") == spaced


def _reads_a_dash_value(argv):
    """Whether a value in ``argv`` may begin with "-": after "=" in a flag, or as the
    argument after a flag without one."""
    return any(arg.startswith("--") and arg.partition("=")[2].startswith("-") for arg in argv) \
        or any(flag.startswith("--") and "=" not in flag and value.startswith("-")
               for flag, value in zip(argv, argv[1:]))


def _ambiguous(arg):
    name = arg[2:].partition("=")[0]
    return arg.startswith("--") and name not in FLAGS and \
        sum(flag.startswith(name) for flag in FLAGS) > 1


def _outcome(read, argv):
    """("read", {flag: value}), ("help",) or ("refused",): what ``read`` made of ``argv``."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            flags = read(argv)
    except SchemaError:
        return ("refused",)
    except SystemExit as exc:  # argparse prints its help and exits 0
        assert exc.code == 0
        return ("help",)
    if flags is None:
        return ("help",)
    if isinstance(flags, argparse.Namespace):
        # argparse before Python 3.13 reads the value "--" given after "=" as []
        flags = {name: "--" if value == [] else value for name, value in vars(flags).items()}
    return ("read", flags)


FLAG_NAMES = [f"--{name}" for name in FLAGS] + [
    "--h", "--he", "--co", "--inp", "--o", "--p", "--pa", "--pr", "--g", "--gr", "--me", "--x"]
FLAG_VALUES = ["params", "delta", "walls", "verify", "selftest", "bogus", "json", "csv", "Json",
               "auto", "leading", "", "0", "7", " 5", "-2", "abc", "1.5", "1_0", "-1_0", "1,2",
               "-1,2", "x y", "-x", "--", "--s", "--p", "-h", "a=b"]
# flags with values they accept, so that many argv are read, and a repeated flag
# may change its value
GOOD_FLAGS = st.sampled_from([("--input", "m.json"), ("--inp", "-x y"), ("--output", "csv"),
                              ("--o", "json"), ("--r", "1"), ("--r", "2"), ("--s", "-2"),
                              ("--gammas", "0,1"), ("--ga", "1"), ("--pa", "oracle"),
                              ("--path", "auto"), ("--alpha", ""), ("--p1", "-5"),
                              ("--grid", "q<=1"), ("--pr", "x")])
ARGV_PIECES = st.one_of(
    GOOD_FLAGS.map(list), GOOD_FLAGS.map(lambda pair: ["=".join(pair)]),
    st.sampled_from([["--meta"], ["--me"]]),
    st.tuples(st.sampled_from(FLAG_NAMES), st.sampled_from(FLAG_VALUES)).map(list),
    st.tuples(st.sampled_from(FLAG_NAMES), st.sampled_from(FLAG_VALUES)).map(
        lambda pair: ["=".join(pair)]),
    st.sampled_from(FLAG_NAMES + ["--", "-h", "-", "x", "-5", "-x"]).map(lambda arg: [arg]))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([["--command", "delta"], ["--c=walls"], ["--command", "bogus"], []]),
       st.lists(ARGV_PIECES, max_size=4))
def test_the_flag_reader_agrees_with_argparse(head, pieces):
    # where the reference parser reads an argv, read_flags reads the same values, and
    # where it refuses one, read_flags refuses it, but for the one intended change:
    # a value beginning with "-" is read.  argparse up to 3.13.0 at least refuses an
    # ambiguous prefix anywhere in argv before it acts on -h; read_flags reads from
    # the left, as later 3.13 releases do.  Outcomes are compared, not argparse's words.
    argv = head + [arg for piece in pieces for arg in piece]
    reference = _outcome(reference_parser().parse_args, argv)
    read = _outcome(read_flags, argv)
    assert read == reference or _reads_a_dash_value(argv) or (
        reference == ("refused",) and read == ("help",) and any(map(_ambiguous, argv))), \
        (argv, reference, read)


def _model_text(**changes):
    doc = dict(L0_DOC, **changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text, command, needle", [
    pytest.param(_model_text(q=0).replace('"q": 0', '"q": 1e400'), "params",
                 "bad PairingInput document", id="q-1e400"),
    pytest.param(_model_text(pairings=dict(L0_DOC["pairings"], zetaAlpha="1/0")), "delta",
                 "bad PairingInput document", id="pairing-n/0"),
    pytest.param(_model_text(wall={"p1": -1, "zetaW": "1/0"}), "delta", "bad wall data",
                 id="wall-n/0"),
    # a JSON true is no int: it is read through its text, "True", and refused
    pytest.param(_model_text(pairings=dict(L0_DOC["pairings"], zetaAlpha=True)), "delta",
                 "bad PairingInput document", id="pairing-true"),
    pytest.param(json.dumps({"schema_version": 1,
                             "surface": {"name": "product_ruled", "q": "1/0"}}),
                 "walls", "bad surface document", id="surface-q-n/0"),
    # a surface document skipped the version check that a model document gets
    pytest.param(json.dumps(dict(SURFACE_DOC, schema_version=7)), "walls",
                 "unsupported schema_version 7", id="surface-schema-7"),
    pytest.param(_model_text(schema_version=7), "params", "unsupported schema_version 7",
                 id="model-schema-7"),
    # q = 1.5 used to be read as q = 1
    pytest.param(_model_text(q=1.5), "params", "q must be an integer, got 3/2", id="q-1.5"),
    # K = (1.5, -2) used to be read as K = (1, -2), and walls exited 0
    pytest.param(json.dumps({"schema_version": 1,
                             "surface": {"name": "blown-up", "q": 1, "basis": ["e0", "e1"],
                                         "gram": [[0, 1], [1, 0]], "K": [1.5, -2],
                                         "Sigma": [1, 0]}}),
                 "walls", "K must be an integer, got 3/2", id="surface-K-1.5"),
    # a custom surface with q = -2 used to list walls and exit 0
    pytest.param(json.dumps({"schema_version": 1,
                             "surface": {"name": "blown-up", "q": -2, "basis": ["e0", "e1"],
                                         "gram": [[0, 1], [1, 0]], "K": [2, -2],
                                         "Sigma": [1, 0]}}),
                 "walls", "q must be non-negative, got -2", id="surface-q-negative"),
    # a w with u = (zeta - w)/2 breaking Wu's formula used to exit 3, the two
    # routes differing in sign: 81/4 vs -81/4
    pytest.param(json.dumps({"schema_version": 1, "q": 2,
                             "pairings": {"zeta2": -4, "zetaK": 4, "zetaAlpha": 1,
                                          "sigmaZeta": 3, "sigmaAlpha": -3, "sigmaK": 2},
                             "wall": {"p1": -4, "zetaW": 0, "w2": 0, "wK": 0}}),
                 "delta", "Wu's formula", id="wall-not-wu"),
    # a q past the ring's size limit ended in an OverflowError traceback
    pytest.param(_model_text(q=10**30), "params", "q must be between 0 and 12", id="q-10^30"),
    # p1 = -10^30 ended in an OverflowError traceback on the leading path
    pytest.param(_model_text(wall={"p1": -10**30}, pairings={"zeta2": -4, "zetaK": 0}),
                 "leading", "exceeds the largest priced d, 10000", id="p1-10^30"),
    # a value past Python's digit limit for int-to-text ended in a ValueError traceback
    pytest.param(_model_text(wall={"p1": -150},
                             pairings={"zeta2": -150, "zetaK": 0, "zetaAlpha": 10**30,
                                       "sigmaZeta": 1, "sigmaAlpha": 1}),
                 "delta", "too long to print", id="value-digits"),
])
def test_bad_numbers_are_input_errors(tmp_path, capsys, text, command, needle):
    # these used to end in an OverflowError or ZeroDivisionError traceback
    path = tmp_path / "doc.json"
    path.write_text(text)
    args = ["--command", command, "--input", str(path)]
    if command == "walls":
        args += ["--w", "1,1", "--p1", "-2"]
    if command == "leading":
        args[1:2] = ["delta", "--path", "leading"]
    code, out, err = _run(capsys, *args)
    assert (code, out) == (1, "")
    assert _one_error_line(err) and needle in err


@pytest.mark.parametrize("flags, needle", [
    # --alpha 1 used to be priced as alpha = (1, 0) and exit 0
    (["--w", "1,1", "--alpha", "1"], "alpha has 1 entries"),
    # these two used to end in IndexError tracebacks
    (["--w", "1"], "w has 1 entries"),
    (["--w", "1,1", "--alpha", "1,1,1"], "alpha has 3 entries"),
    # an empty --alpha used to be dropped, printing an empty delta_alpha_d column
    (["--w", "1,1", "--alpha", ""], "alpha has 0 entries"),
], ids=["alpha-1", "w-1", "alpha-3", "alpha-empty"])
def test_walls_vectors_need_the_lattice_rank(tmp_path, capsys, flags, needle):
    path = _write(tmp_path, "s.json", SURFACE_DOC)
    code, out, err = _run(capsys, "--command", "walls", "--input", path, "--p1", "-2",
                          "--bound", "4", *flags)
    assert (code, out) == (1, "")
    assert _one_error_line(err) and needle in err


@pytest.mark.parametrize("bound", [MAX_BOUND + 1, 10**9])
def test_walls_refuse_a_bound_above_the_cap(tmp_path, capsys, bound):
    # the candidates grow as bound^2, so --bound 10^9 used to run without end
    path = _write(tmp_path, "s.json", SURFACE_DOC)
    code, out, err = _run(capsys, "--command", "walls", "--input", path, "--w", "1,1",
                          "--p1", "-2", "--bound", str(bound))
    assert (code, out) == (1, "")
    assert _one_error_line(err) and f"bound must be between 1 and {MAX_BOUND}, got {bound}" in err


CUSTOM_SURFACE = {"name": "blown-up", "q": 1, "basis": ["e0", "e1"],
                  "gram": [[0, 1], [1, 0]], "K": [0, -2], "Sigma": [1, 0]}


@pytest.mark.parametrize("changes, needle", [
    # K = [0] on a rank-2 gram used to print values for a truncated K and exit 0
    ({"K": [0]}, "K has 1 entries, the basis 2"),
    ({"Sigma": [1, 0, 0]}, "Sigma has 3 entries, the basis 2"),
    # a name that is no string used to end in an AttributeError traceback
    ({"name": 5}, "the surface name must be a string, got 5"),
    ({"name": None}, "the surface name must be a string, got None"),
], ids=["K-short", "Sigma-long", "name-int", "name-null"])
def test_custom_surface_documents_are_checked(tmp_path, capsys, changes, needle):
    doc = {"schema_version": 1, "surface": dict(CUSTOM_SURFACE, **changes)}
    path = _write(tmp_path, "s.json", doc)
    code, out, err = _run(capsys, "--command", "walls", "--input", path, "--w", "1,1",
                          "--p1", "-2", "--alpha", "1,3", "--bound", "4")
    assert (code, out) == (1, "")
    assert _one_error_line(err) and needle in err
    # the document as it was is accepted
    path = _write(tmp_path, "s.json", {"schema_version": 1, "surface": CUSTOM_SURFACE})
    code, out, err = _run(capsys, "--command", "walls", "--input", path, "--w", "1,1",
                          "--p1", "-2", "--alpha", "1,3", "--bound", "4")
    assert (code, err) == (0, "") and json.loads(out)["surface"] == "blown-up"


RANK3_SURFACE = {"name": "blown-up", "q": 1, "basis": ["e0", "e1", "e2"],
                 "gram": [[0, 1, 0], [1, 0, 0], [0, 0, -1]], "K": [0, -2, 1],
                 "Sigma": [1, 0, 0]}


# the error paths of the document readers and of the flags that no other test reaches
@pytest.mark.parametrize("doc, argv, message", [
    ({key: value for key, value in L0_DOC.items() if key != "wall"}, ["--command", "params"],
     "the input document needs a 'wall' object with at least 'p1'"),
    (dict(L0_DOC, wall={"zetaW": -1}), ["--command", "delta"],
     "the input document needs a 'wall' object with at least 'p1'"),
    (dict(L0_DOC, wall=[-1]), ["--command", "params"], "'wall' must be an object"),
    (dict(L0_DOC, pairings=[-1, 1]), ["--command", "params"], "'pairings' must be an object"),
    ({"schema_version": 1, "surface": dict(CUSTOM_SURFACE, gram=[[0, 1]])},
     ["--command", "walls", "--w", "1,1", "--p1", "-2"],
     "bad surface document: gram size does not match basis"),
    ({"schema_version": 1, "surface": dict(CUSTOM_SURFACE, gram=[[0, 1], [2, 0]])},
     ["--command", "walls", "--w", "1,1", "--p1", "-2"],
     "bad surface document: gram must be symmetric"),
    ({"schema_version": 1, "surface": RANK3_SURFACE},
     ["--command", "walls", "--w", "1,1", "--p1", "-2"],
     "wall enumeration supports rank-2 lattices only"),
    (SURFACE_DOC, ["--command", "walls", "--w", "1,1"],
     "--p1 INT is required for the walls command"),
    (L0_DOC, ["--command", "delta", "--gammas", "0,x"], "bad integer list '0,x'"),
    # an empty item used to be dropped: "0,,1" priced alpha^1 d1 d2
    (L0_DOC, ["--command", "delta", "--gammas", "0,,1"], "bad integer list '0,,1'"),
    (L0_DOC, ["--command", "delta", "--threes", "0,"], "bad integer list '0,'"),
    (SURFACE_DOC, ["--command", "walls", "--w", ",1", "--p1", "-2"], "bad integer list ',1'"),
    (None, ["--command", "verify", "--grid", "x<=2"], "unknown grid key 'x'"),
    # each document object refuses a key it does not read: a misspelt key used to be
    # ignored and its default priced, so "a_block" for "a_blocks" printed vol 1/1
    (dict(L0_DOC, a_block=[2]), ["--command", "params"],
     "unknown model document keys: ['a_block']"),
    (dict(L0_DOC, pairings=dict(L0_DOC["pairings"], zetak=1)), ["--command", "params"],
     "unknown pairing keys: ['zetak']"),
    (dict(L0_DOC, wall={"p1": -1, "zetaw": -1}), ["--command", "delta"],
     "unknown wall keys: ['zetaw']"),
    (dict(SURFACE_DOC, surfaces={}), ["--command", "walls", "--w", "1,1", "--p1", "-2"],
     "unknown surface document keys: ['surfaces']"),
    ({"schema_version": 1, "surface": dict(CUSTOM_SURFACE, cone_slop="1/2")},
     ["--command", "walls", "--w", "1,1", "--p1", "-2"], "unknown surface keys: ['cone_slop']"),
    # each command refuses a flag it does not read: it used to be ignored with exit 0
    (None, ["--command", "selftest", "--grid", "q<=1"],
     "the selftest command does not read --grid"),
    (L0_DOC, ["--command", "params", "--grid", "q<=1", "--w", "5,5"],
     "the params command does not read --grid, --w"),
    (SURFACE_DOC, ["--command", "walls", "--w", "1,1", "--p1", "-2", "--r", "7"],
     "the walls command does not read --r"),
    (None, ["--command", "verify", "--input", "x"], "the verify command does not read --input"),
    # --meta used to be read and then ignored under --output csv
    (L0_DOC, ["--command", "params", "--meta", "--output", "csv"],
     "--meta adds its block to JSON output only, not to --output csv"),
    (L0_DOC, ["--command", "delta", "--output", "csv", "--meta"],
     "--meta adds its block to JSON output only, not to --output csv"),
    (SURFACE_DOC, ["--command", "walls", "--w", "1,1", "--p1", "-2", "--meta", "--o", "csv"],
     "--meta adds its block to JSON output only, not to --output csv"),
], ids=["model-no-wall", "wall-no-p1", "wall-list", "pairings-list", "gram-size",
        "gram-asymmetric", "surface-rank-3", "walls-no-p1", "gammas-not-int",
        "gammas-empty-item", "threes-trailing-comma", "w-leading-comma", "grid-key-x",
        "model-a_block", "pairings-zetak", "wall-zetaw", "surface-document-surfaces",
        "surface-cone_slop", "selftest-grid", "params-grid-w", "walls-r", "verify-input",
        "params-meta-csv", "delta-meta-csv", "walls-meta-csv"])
def test_reader_and_flag_errors_print_one_line(tmp_path, capsys, doc, argv, message):
    if doc is not None:
        argv = [*argv, "--input", _write(tmp_path, "doc.json", doc)]
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_an_empty_grid_clause_is_skipped():
    assert parse_grid("q<=1,,d<=2") == parse_grid("q<=1,d<=2") == verify.Grid(q_max=1, d_max=2)


# a document whose bytes are not UTF-8 (0xff at byte 10) used to end in a
# UnicodeDecodeError traceback; a UTF-8 BOM is read, and refused as invalid JSON
@pytest.mark.parametrize("command, flags", [
    ("params", []), ("delta", ["--r", "1"]), ("walls", ["--w", "1,1", "--p1", "-2"]),
])
def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command, flags):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"q": 1, "\xff": 2}')
    assert _run(capsys, "--command", command, "--input", str(path), *flags) == (
        1, "", f"error: cannot read {path}: not UTF-8 (invalid start byte at byte 10)\n")
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(L0_DOC).encode())
    code, out, err = _run(capsys, "--command", command, "--input", str(path), *flags)
    assert (code, out) == (1, "") and err.startswith("error: invalid JSON: Unexpected UTF-8 BOM")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**80, max_value=2**80)
    | st.text(alphabet=st.characters(codec="utf-8"), max_size=8)
    | st.sampled_from(["", "\"", "\\", "\x00\x1f\n\t", "\u00e9\u2013\U0001f600"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(JSON_VALUES)
def test_json_text_writes_what_json_dumps_writes(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def _surface_request(tmp_path, name, doc):
    return ["--command", "walls", "--input", _write(tmp_path, name, doc), "--w", "1,1",
            "--p1", "-2", "--alpha", "1,3", "--bound", "6"]


def _json_requests(tmp_path):
    """A request of each command and of each kind of delta word, in JSON."""
    model = _write(tmp_path, "m.json", dict(
        L0_DOC, q=2, a_blocks=["3/2", -2], pairings=dict(L0_DOC["pairings"], zeta2=-5),
        wall={"p1": -5}))
    custom = {"schema_version": 1,
              "surface": dict(CUSTOM_SURFACE, name="K\u00e4hler \u2013 \"blown\" up\t")}
    return [["--command", "params", "--input", model],
            ["--command", "delta", "--input", model, "--r", "1"],
            ["--command", "delta", "--input", model, "--gammas", "1,0"],
            ["--command", "delta", "--input", model, "--gammas", "2", "--threes", "3"],
            ["--command", "delta", "--input", model, "--threes", "0,1", "--path", "closed"],
            ["--command", "delta", "--input", model, "--path", "leading"],
            _surface_request(tmp_path, "s.json", SURFACE_DOC),
            _surface_request(tmp_path, "c.json", custom)]


def test_every_command_prints_what_json_dumps_prints(tmp_path, capsys):
    surfaces = set()
    for argv in _json_requests(tmp_path):
        for meta in ([], ["--meta"]):
            code, out, err = _run(capsys, *argv, *meta)
            doc = json.loads(out)
            assert (code, err) == (0, "")
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", argv
            surfaces.add(doc.get("surface"))
    assert "K\u00e4hler \u2013 \"blown\" up\t" in surfaces


def test_a_json_request_leaves_no_cyclic_garbage(tmp_path, capsys):
    # json.dumps' indent encoder is a closure cycle: each request left 33 objects
    import gc
    requests = _json_requests(tmp_path)
    for argv in requests:  # the parser and the modules a command loads, once
        assert _run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in requests * 2:
            assert _run(capsys, *argv)[0] == 0
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("keys", [("zetaW",), ("w2",), ("wK",), ("zetaW", "w2"), ("zetaW", "wK"),
                                  ("w2", "wK")], ids="+".join)
def test_partial_w_data_is_an_input_error(tmp_path, capsys, keys):
    # L0_DOC's zeta^2 = -1, zeta.K = 1 with a wall {"p1": -1, "zetaW": 3} exited 0,
    # its w^2 and w.K silently taken from zeta
    full = {"zetaW": 3, "w2": 7, "wK": 1}
    doc = dict(L0_DOC, wall={"p1": -1, **{key: full[key] for key in keys}})
    code, out, err = _run(capsys, "--command", "delta", "--input", _write(tmp_path, "w.json", doc))
    missing = ", ".join(key for key in full if key not in keys)
    assert (code, out, err) == (1, "", "error: bad wall data: give all of zetaW, w2 and wK or "
                                       f"none of them; missing {missing}\n")
    doc = dict(L0_DOC, wall={"p1": -1, **full})
    assert _run(capsys, "--command", "delta", "--input", _write(tmp_path, "w.json", doc))[0] == 0


@pytest.mark.parametrize("version, refusal", [
    (1, None), (1.0, None), ("1", None), ("2/2", None), ("1e0", None),
    (True, "schema_version must be an integer, got True"),
    (False, "schema_version must be an integer, got False"),
    (None, "schema_version must be an integer, got None"),
    ("1/2", "schema_version must be an integer, got 1/2"),
    (0, "unsupported schema_version 0"), ("2", "unsupported schema_version 2"),
    ("1e4300", "unsupported schema_version a int too long to print"),
])
@pytest.mark.parametrize("kind", ["model", "surface"])
def test_schema_version_is_read_by_the_number_rule(tmp_path, capsys, version, refusal, kind):
    # "schema_version": true was read as 1, and "1" was refused as "unsupported
    # schema_version 1"
    if kind == "model":
        doc, args = dict(L0_DOC, schema_version=version), ["--command", "params"]
    else:
        doc, args = dict(SURFACE_DOC, schema_version=version), ["--command", "walls", "--w",
                                                                "1,1", "--p1", "-2"]
    path = _write(tmp_path, "v.json", doc)
    code, out, err = _run(capsys, *args, "--input", path)
    expected = _run(capsys, *args, "--input", _write(tmp_path, "one.json", dict(
        doc, schema_version=1)))
    if refusal is None:
        assert (code, out, err) == expected and code == 0
    else:
        assert (code, out, err) == (1, "", f"error: {refusal}\n")
