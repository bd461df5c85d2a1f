"""The paired-run script's summary, on two canned ``perfbench/run.py`` outputs,
its refusal of a dirty work tree and its message for a failed run.

``tools/bench_pairs.py`` is loaded by its path; no benchmark runs.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs(path=SCRIPT):
    spec = importlib.util.spec_from_file_location("_bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(seed, p50, points_per_s, attempted=100, failed=0):
    env = {"python": "3.11.7", "nproc": 2, "seed": seed, "workload": "cli-requests"}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {"latency_ms_p50": {"value": p50, "unit": "ms"},
                          "points_per_s": {"value": points_per_s, "unit": "1/s"},
                          "trace.other": {"value": 1.0, "unit": "s"}}}
    return "\n".join(["perfbench-env " + json.dumps(env), 'perfbench-detail {"rounds": 3}',
                      json.dumps(result)]) + "\n"


def test_the_summary_reads_each_side_and_counts_the_change_wins():
    bench = _bench_pairs()
    parent = bench.parse_run(_output(1, 0.270, 777.0))
    change = bench.parse_run(_output(1, 0.246, 770.0))
    assert parent["env"]["seed"] == 1 and parent["correct"]
    assert (parent["attempted"], parent["failed"]) == (100, 0)
    summary = bench.summarize([(parent, change)],
                              {"latency_ms_p50": "lower", "points_per_s": "higher"})
    p50 = summary["latency_ms_p50"]
    assert (p50["parent_median"], p50["change_median"]) == (0.270, 0.246)
    assert p50["parent_quartiles"] == [0.270] * 3 and p50["change_runs"] == [0.246]
    # lower is better for latency, higher for throughput; a metric with no
    # direction is summarized with no wins counted
    assert p50["change_wins"] == 1 and summary["points_per_s"]["change_wins"] == 0
    assert "change_wins" not in summary["trace.other"]


def test_a_dirty_work_tree_is_refused(tmp_path, capsys):
    # the change side is HEAD only if the work tree is clean; the script, copied
    # into a fresh repository where it is itself untracked, refuses before running
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "bench_pairs.py").write_text(SCRIPT.read_text())
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    with pytest.raises(SystemExit) as exit_:
        _bench_pairs(tools / "bench_pairs.py").main(["HEAD"])
    assert exit_.value.code == 2 and "work tree is not clean" in capsys.readouterr().err


def test_a_failed_run_ends_the_script_with_one_message(tmp_path, monkeypatch):
    # git and perfbench/run.py are both faked: git succeeds, and the first run
    # (parent side, cli-requests, seed 1) exits 2 with a long stderr
    bench = _bench_pairs()
    clone, runs = tmp_path / "clone", []

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "" if "status" in cmd else "abc1234\n", "")
        runs.append(kwargs["cwd"])
        stderr = "".join(f"line {i}\n" for i in range(30)) + "RuntimeError: gate failed\n"
        return subprocess.CompletedProcess(cmd, 2, "", stderr)

    def mkdtemp(prefix):
        clone.mkdir()
        return str(clone)
    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench.tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(bench, "_clear_bytecode", lambda tree: None)
    with pytest.raises(SystemExit) as exit_:
        bench.main(["HEAD~1", "--out", str(tmp_path / "bench.json")])
    head, _, tail = str(exit_.value.code).partition("\n")
    assert head == ("perfbench/run.py failed on the parent side: workload cli-requests, seed 1, "
                    "trace 0, exit code 2; its stderr ends:")
    assert tail.splitlines() == [f"line {i}" for i in range(11, 30)] + ["RuntimeError: gate failed"]
    # one run, in the clone, which is removed, and no report is written
    assert runs == [str(clone)]
    assert not clone.exists() and not (tmp_path / "bench.json").exists()


def test_a_report_keeps_each_runs_attempted_and_failed_counts(tmp_path, monkeypatch):
    # git and perfbench/run.py are both faked, over two cli-requests pairs: the
    # change side's run of seed n fails n of its 100 + n operations
    bench = _bench_pairs()
    clone = tmp_path / "clone"

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "" if "status" in cmd else "abc1234\n", "")
        seed = int(cmd[cmd.index("--seed") + 1])
        failed = 0 if kwargs["cwd"] == str(clone) else seed
        out = _output(seed, 0.2, 800.0, 100 + seed, failed)
        return subprocess.CompletedProcess(cmd, 0, out, "")

    def mkdtemp(prefix):
        clone.mkdir()
        return str(clone)
    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench.tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(bench, "_clear_bytecode", lambda tree: None)
    monkeypatch.setattr(bench, "PLAN", (("cli-requests", 2),))
    assert bench.main(["HEAD~1", "--out", str(tmp_path / "bench.json")]) == 0
    entry = json.loads((tmp_path / "bench.json").read_text())["workloads"]["cli-requests"]
    assert entry["attempted"] == [[101, 101], [102, 102]]
    assert entry["failed"] == [[0, 1], [0, 2]]
    assert entry["pairs"] == 2 and entry["correct"] and not clone.exists()
