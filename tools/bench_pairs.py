"""Paired benchmark runs of a parent revision against the committed working tree.

    python3 tools/bench_pairs.py PARENT_REV --out BENCH.json

Run it from anywhere inside a git checkout whose work tree is clean (``git
status --porcelain`` prints nothing), so the change side is its HEAD commit;
a dirty tree is refused.  The parent is checked out in a shared clone in a
temporary directory (under ``$TMPDIR``), which is removed at the end, so both
sides' ``perfbench-env`` lines name their commit.
Each pair runs ``perfbench/run.py`` for BENCHMARK.json's ``run_seconds`` once
on each side with seed = the pair index (1, 2, ...), the side that goes first
alternating from pair to pair; ``PLAN`` fixes the pairs per workload.
Every ``__pycache__`` under either side's ``src/`` is deleted first, and the
runs write none, so neither side imports bytecode the other lacks.  Each side
also makes one ``--trace 1`` run per workload for the per-layer metrics.

The JSON written holds, per workload and metric, each side's median and
quartiles, every run's value and the number of pairs the change won, and
keeps each run's point count, failed-operation count and ``perfbench-env``
line, beside both commits.
It reads BENCHMARK.json for the run length and the metrics' directions and
imports nothing from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLAN = (("cli-requests", 10), ("verify-default", 3), ("oracle-l1-deep", 3))
STDERR_LINES = 20  # of a failed run, shown in the message that ends the script


def parse_run(text) -> dict:
    """One run's standard output as {"env", "correct", "attempted", "failed",
    "metrics"}: the ``perfbench-env`` line and the result line, the last, with each
    metric's value."""
    lines = text.strip().splitlines()
    env = next(json.loads(line.partition(" ")[2]) for line in lines
               if line.startswith("perfbench-env "))
    result = json.loads(lines[-1])
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _quartiles(values) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, better) -> dict:
    """Per metric of ``pairs`` [(parent run, change run), ...] (``parse_run``'s
    dicts): each side's median, quartiles and values, and the pairs where the
    change is better; ``better`` maps a metric to "higher" or "lower", and a
    metric it lacks is summarized with no wins counted."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        entry = {"parent_median": statistics.median(parent),
                 "change_median": statistics.median(change),
                 "parent_quartiles": _quartiles(parent), "change_quartiles": _quartiles(change),
                 "parent_runs": parent, "change_runs": change}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        out[name] = entry
    return out


def _run(side, tree, workload, seed, seconds, trace) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, parsed; a failed run ends the script
    with one message naming it and the last lines of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.rstrip().splitlines()[-STDERR_LINES:])
        sys.exit(f"perfbench/run.py failed on the {side} side: workload {workload}, seed {seed}, "
                 f"trace {trace}, exit code {proc.returncode}; its stderr ends:\n{tail}")
    return parse_run(proc.stdout)


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", "-C", str(cwd), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _checkout(rev, into):
    _git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(into))
    _git("checkout", "--quiet", "--detach", rev, cwd=into)


def _clear_bytecode(tree):
    for cache in list((Path(tree) / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the git revision to compare HEAD with")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if _git("status", "--porcelain"):
        parser.error("the work tree is not clean; commit the change to measure first")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent_sha = _git("rev-parse", "--verify", args.parent + "^{commit}")
    report = {"parent": parent_sha, "change": _git("rev-parse", "HEAD"),
              "seconds": seconds, "workloads": {}}
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        _checkout(parent_sha, scratch)
        trees = {"parent": scratch, "change": str(ROOT)}
        for tree in trees.values():
            _clear_bytecode(tree)
        for workload, count in PLAN:
            pairs = []
            for seed in range(1, count + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                runs = {side: _run(side, trees[side], workload, seed, seconds, 0)
                        for side in order}
                pairs.append((runs["parent"], runs["change"]))
                print(f"{workload} pair {seed}: " + ", ".join(
                    f"{side} p50 {runs[side]['metrics'].get('latency_ms_p50'):.4g} ms"
                    for side in order), file=sys.stderr, flush=True)
            entry = {"pairs": count, "summary": summarize(pairs, better),
                     "correct": all(p["correct"] and c["correct"] for p, c in pairs),
                     # completed requests per run, which peak_rss_mb grows with
                     "attempted": [[p["attempted"], c["attempted"]] for p, c in pairs],
                     # failed operations per run: the failed share is compared too
                     "failed": [[p["failed"], c["failed"]] for p, c in pairs],
                     "env": [[p["env"], c["env"]] for p, c in pairs]}
            traced = {side: _run(side, trees[side], workload, 1, seconds, 1)
                      for side in ("parent", "change")}
            entry["trace"] = {side: run["metrics"] for side, run in traced.items()}
            entry["trace_env"] = {side: run["env"] for side, run in traced.items()}
            report["workloads"][workload] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
