"""wallcross benchmark: one workload, one seed, one process and one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wallcross is imported from ./src.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced for S seconds
of whole rounds and scaled to a reference host speed (speed.py).  With --trace 1 a fixed number of rounds runs untraced and
then again under the span tracer, and the metrics are the per-layer ones.
Every timed result passes its exactness gate after the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put ./src first on the path and check wallcross really comes from it."""
    if not (SRC / "wallcross" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wallcross sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wallcross
    if Path(wallcross.__file__).resolve().parent != SRC / "wallcross":
        raise SystemExit(f"perfbench: wallcross imported from {wallcross.__file__}, not {SRC}")
    import workloads
    return workloads


class Failure:
    """Output of a point whose call raised."""

    def __init__(self, exc):
        self.message = f"raised {type(exc).__name__}: {exc}"

    def __repr__(self):
        return self.message


def run_rounds(workload, first, count=None, seconds=None, probe=None):
    """Run whole rounds from index ``first``: ``count`` of them, or until
    ``seconds`` of wall time have passed.  Returns (points, outputs, the
    latencies of each round).  A ``speed.SpeedProbe`` brackets each point."""
    points, outputs, rounds = [], [], []
    t0 = perf_counter()
    index = first
    while True:
        latencies = []
        for point in workload.round(index):
            if probe is not None:
                probe.start(len(points))
            t = perf_counter()
            try:
                out = point.call()
            except Exception as exc:  # a raised call is a failed point, not a crash
                out = Failure(exc)
            latencies.append(perf_counter() - t)
            if probe is not None:
                probe.stop()
            points.append(point)
            outputs.append(out)
        rounds.append(latencies)
        index += 1
        if count is not None and index - first >= count:
            break
        if seconds is not None and perf_counter() - t0 >= seconds:
            break
    return points, outputs, rounds


def check_outputs(points, outputs):
    """Apply every gate; returns (failed, first problem or None)."""
    failed, first = 0, None
    for point, out in zip(points, outputs):
        try:
            problem = out.message if isinstance(out, Failure) else point.check(out)
        except Exception as exc:  # a gate that cannot evaluate counts as a failure
            problem = f"gate raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            first = first or f"{point.label}: {problem}"
    return failed, first


def setup_probe_seconds(args):
    """Wall time of fresh processes that import wallcross and build the
    inputs, scaled to the reference speed (``speed.py``) by the job times
    just before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    # The probes inherit this process's CPU, so that they and the job see
    # the same contention.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times, jobs = [], [speed.job_ms()]
        for _ in range(SETUP_PROBES):
            t = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
            times.append(perf_counter() - t)
            jobs.append(speed.job_ms())
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.decode()[-400:]}")
    finally:
        os.sched_setaffinity(0, cpus)
    return [speed.scale(t, a, b) / 1000.0 for t, a, b in zip(times, jobs, jobs[1:])], times


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state():
    """(commit, dirty, git processes started); commit and dirty are None
    outside a git work tree rooted at the checkout."""
    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None, 1
        head = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return head, dirty, 3
    except (OSError, subprocess.SubprocessError):
        return None, None, 1


def environment(args, probes):
    commit, dirty, git_processes = _git_state()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": commit, "git_dirty": dirty,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "measuring_processes": 1, "measuring_threads": threading.active_count(),
            "setup_probe_processes": probes, "git_processes": git_processes}


def percentile(values, p):
    """Linear-interpolated percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seconds):
    probe = speed.SpeedProbe()
    hook = spans.EntryHook(probe.hook)
    hook.install()
    try:
        points, outputs, rounds = run_rounds(workload, 0, seconds=seconds, probe=probe)
    finally:
        hook.uninstall()
    scaled, raw = probe.results(len(points))
    failed, first = check_outputs(points, outputs)
    # Each point label recurs once per round with the same work (the seed
    # moves values, not the work).  A label's cost is the median of its
    # scaled times over the run, and the round is rebuilt from those costs.
    by_label, raw_by_label = {}, {}
    for point, ms, sec in zip(points, scaled, raw):
        by_label.setdefault(point.label, []).append(ms)
        raw_by_label.setdefault(point.label, []).append(sec * 1000.0)
    cost = [statistics.median(v) for v in by_label.values()]
    weight = sum(p.weight for p in points) / len(rounds)
    metrics = {
        "points_per_s": (weight / (sum(cost) / 1000.0), "1/s"),
        "latency_ms_p50": (statistics.median(cost), "ms"),
        "latency_ms_p90": (percentile(cost, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    jobs = probe.job_times()
    unscaled = [statistics.median(v) for v in raw_by_label.values()]
    detail = {"samples": len(points), "rounds": len(rounds), "labels": len(by_label),
              "unscaled_latency_ms_p50": statistics.median(unscaled),
              "unscaled_points_per_s": weight / (sum(unscaled) / 1000.0),
              "job_timings": len(jobs), "job_ms_median": statistics.median(jobs),
              "job_ms_min": min(jobs), "missing_hook_targets": hook.missing,
              "first_failure": first}
    return len(points), failed, metrics, detail


def measure_traced(workload):
    """Untraced and traced passes over the same rounds, alternating round by
    round so that both see the same machine; per-layer metrics come from the
    traced pass."""
    run_rounds(workload, 0, count=1)  # warm-up: lazy imports and first-call costs
    tracer = spans.Tracer()
    points, outputs = [], []
    seconds = [0.0, 0.0]  # [untraced, traced]
    digests = [hashlib.sha256(), hashlib.sha256()]
    for index in range(workload.trace_rounds):
        for traced_pass in (False, True):
            if traced_pass:
                tracer.install()
            try:
                p, o, rounds = run_rounds(workload, index, count=1)
            finally:
                tracer.uninstall()
            seconds[traced_pass] += sum(rounds[0])
            for out in o:
                digests[traced_pass].update(repr(out).encode() + b"\0")
            points += p
            outputs += o
    failed, first = check_outputs(points, outputs)
    same = digests[0].hexdigest() == digests[1].hexdigest()
    if not same:
        failed += 1
        first = first or "traced outputs differ from untraced outputs"
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (seconds[1] / seconds[0] - 1.0, "ratio")
    detail = {"rounds": workload.trace_rounds, "spans": len(tracer.start),
              "missing_targets": tracer.missing, "digest_match": same, "first_failure": first}
    tracer.write(OUT / f"trace-{workload.name}", {"detail": detail})
    return len(points), failed, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            cls(args.seed, workdir)
        return 0
    probes, unscaled_probes = ([], []) if args.trace else setup_probe_seconds(args)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workload = cls(args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, detail = measure_traced(workload)
        else:
            attempted, failed, metrics, detail = measure(workload, args.seconds)
            metrics["setup_s"] = (statistics.median(probes), "s")
            detail["setup_probes_s"] = probes
            detail["unscaled_setup_probes_s"] = unscaled_probes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("perfbench-env " + json.dumps(environment(args, len(probes)), sort_keys=True))
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
