"""Tests of the benchmark's own gates and tracer.

    python3 -m unittest discover -s perfbench -t perfbench

Each gate is shown to fail on a perturbed result, and the tracer is shown
to leave results unchanged, to keep classmethods working and to report a
missing function as a missing metric.  The speed probe is shown to leave
results unchanged, to split long points and to scale each stretch of work
by the reference job's times around it.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wallcross.walls import WallGeometry  # noqa: E402


def verify_text(counts, suffix=""):
    return "".join(f"PASS {name} ({n} points{suffix})\n" for name, n in counts.items())


class VerifyGateTest(unittest.TestCase):
    def test_pinned_counts_pass(self):
        self.assertIsNone(gates.check_verify(0, verify_text(gates.VERIFY_PINNED)))

    def test_per_line_timings_do_not_break_the_parse(self):
        text = verify_text(gates.VERIFY_PINNED, ", 1.25 s, 800.0 points/s")
        self.assertIsNone(gates.check_verify(0, text))

    def test_a_changed_count_fails(self):
        counts = dict(gates.VERIFY_PINNED, **{"oracle-l0": 9869})
        self.assertIn("oracle-l0", gates.check_verify(0, verify_text(counts)))

    def test_a_missing_check_fails(self):
        counts = dict(gates.VERIFY_PINNED)
        del counts["segre-machinery"]
        self.assertIn("missing", gates.check_verify(0, verify_text(counts)))

    def test_a_failed_check_or_exit_code_fails(self):
        text = verify_text(gates.VERIFY_PINNED).replace("PASS hidden", "FAIL hidden")
        self.assertIsNotNone(gates.check_verify(0, text))
        self.assertIsNotNone(gates.check_verify(3, verify_text(gates.VERIFY_PINNED)))


class LibraryPointGateTest(unittest.TestCase):
    def test_an_l1_point_passes_and_a_perturbed_one_fails(self):
        bench = workloads.OracleL1Deep(seed=5, workdir=None)
        point = next(p for p in bench.round(0) if p.label.startswith("l1 q=3"))
        closed, ring = point.call()
        self.assertIsNone(point.check((closed, ring)))
        self.assertIsNotNone(point.check((closed, ring + Fraction(1, 10**9))))
        self.assertIsNotNone(gates.check_routes(float(closed), ring))


class CliGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.bench = workloads.CliRequests(seed=5, workdir=cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def requests(self, prefix):
        found = [r for r in self.bench.requests if r.label.startswith(prefix)]
        self.assertTrue(found, prefix)
        return found

    def run_and_perturb(self, req, perturb):
        out = workloads.run_cli(req.argv)
        self.assertIsNone(req.check(out), req.label)
        self.assertIsNotNone(req.gate(*out, req.fmt, perturb(req.expected())), req.label)
        rc, text = out
        self.assertIsNotNone(req.gate(1, text, req.fmt, req.expected()))
        self.assertIsNotNone(req.gate(rc, "not a table\n{", req.fmt, req.expected()))

    def test_delta_requests_in_both_formats(self):
        reqs = self.requests("delta q=1 ")
        self.assertEqual({r.fmt for r in reqs}, {"json", "csv"})
        for req in reqs:
            self.run_and_perturb(req, lambda v: v + 1)

    def test_params_request(self):
        for req in self.requests("params"):
            self.run_and_perturb(req, lambda e: dict(e, vol=e["vol"] * 2))

    def test_walls_request(self):
        for req in self.requests("walls product_ruled(1)"):
            self.run_and_perturb(req, lambda rederive: lambda a, b: rederive(a, b) + 1)

    def test_walls_printed_value_is_checked(self):
        req = self.requests("walls odd_ruled(1)")[0]
        rc, text = workloads.run_cli(req.argv)
        value = next(str(v) for *_, v in gates.parse_walls(text, req.fmt) if v is not None)
        self.assertIsNone(req.check((rc, text)))
        num, den = value.split("/") if "/" in value else (value, "1")
        bad = text.replace(f"{num}/{den}", f"{int(num) + 1}/{den}", 1)
        self.assertNotEqual(bad, text)
        self.assertIsNotNone(req.check((rc, bad)))


class TracerTest(unittest.TestCase):
    def test_traced_outputs_equal_untraced_and_originals_return(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = workloads.CliRequests(seed=3, workdir=tmp)
            plain = [p.call() for p in bench.round(0)]
            build = WallGeometry.__dict__["build"]
            tracer = spans.Tracer()
            tracer.install()
            try:
                self.assertIsNot(WallGeometry.__dict__["build"], build)
                wall = WallGeometry.build(p1=-1, q=1, zeta2=-1, zetaK=1)
                self.assertIsInstance(wall, WallGeometry)
                traced = [p.call() for p in bench.round(0)]
            finally:
                tracer.uninstall()
            self.assertIs(WallGeometry.__dict__["build"], build)
        self.assertEqual(plain, traced)
        self.assertEqual(tracer.missing, [])
        metrics = tracer.metrics()
        self.assertEqual(set(metrics), set(spans.METRICS))
        self.assertEqual(metrics["cli.main_calls"][0], len(bench.requests))
        self.assertGreater(metrics["graded.mul_calls"][0], 0)
        summary = tracer.summary()
        for group in summary.values():
            self.assertLessEqual(group["self_s"], group["busy_s"] + 1e-9)

    def test_a_missing_function_is_a_missing_metric(self):
        targets = spans.TARGETS + (("closed.delta", "wallcross.closed", "delta_l9", None),)
        tracer = spans.Tracer(targets)
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.missing, ["wallcross.closed.delta_l9"])
        metrics = tracer.metrics()
        self.assertNotIn("closed.delta_calls", metrics)
        self.assertNotIn("closed.delta_busy_s", metrics)
        self.assertEqual(metrics["oracle.delta_calls"][0], 0)


class SpeedProbeTest(unittest.TestCase):
    def test_probed_points_keep_outputs_and_long_ones_split(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = workloads.CliRequests(seed=3, workdir=tmp)
            _, plain, _ = run.run_rounds(bench, 0, count=1)
            probe = speed.SpeedProbe()
            hook = spans.EntryHook(probe.hook)
            every, speed.PROBE_EVERY_S = speed.PROBE_EVERY_S, 0.0
            hook.install()
            try:
                points, probed, _ = run.run_rounds(bench, 0, count=1, probe=probe)
            finally:
                hook.uninstall()
                speed.PROBE_EVERY_S = every
        self.assertEqual(hook.missing, [])
        self.assertEqual(plain, probed)
        stretches = [item[0] for item in probe.timeline if not isinstance(item, float)]
        split = {points[i].label for i in stretches if stretches.count(i) > 1}
        self.assertTrue(any(label.startswith("delta") for label in split))
        scaled, raw = probe.results(len(points))
        self.assertTrue(all(ms > 0 for ms in scaled) and all(sec > 0 for sec in raw))

    def test_each_stretch_is_scaled_by_the_job_times_around_it(self):
        probe = speed.SpeedProbe()
        probe.timeline = [2.0, (0, 0.010), 3.0, (0, 0.020), (1, 0.030), 5.0]
        scaled, raw = probe.results(2)
        ref = speed.REFERENCE_MS
        self.assertAlmostEqual(scaled[0], 10 * ref * 2 / 5 + 20 * ref * 2 / 8)
        self.assertAlmostEqual(scaled[1], 30 * ref * 2 / 8)
        self.assertAlmostEqual(raw[0], 0.030)


class WithoutSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp) / "perfbench"
            dest.mkdir()
            for f in HERE.glob("*.py"):
                (dest / f.name).write_bytes(f.read_bytes())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-requests", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
