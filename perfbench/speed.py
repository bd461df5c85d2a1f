"""Host-speed scaling for the end-to-end timings.

The machine is shared.  Its speed drifts by up to 2x, in spells that last
from a fraction of a second to minutes, and no statistic over a run's own
times removes a spell that covers most of the run.  So the benchmark times
a fixed reference job between stretches of work, and scales each stretch
by the job's time around it: a stretch of ``w`` seconds between job times
``a`` and ``b`` ms counts as ``w * REFERENCE_MS / ((a + b) / 2)``.  A time
is so reported in milliseconds at the speed at which the job takes
REFERENCE_MS, which is near its time on an idle Intel Xeon of this host
kind (2 vCPUs).  The job is pure Python, like wallcross, and is slowed by
the same spells.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 2.5
# Work between two job timings, at most (plus the call in flight when it
# ends); 5-10% of a run goes to the job.
PROBE_EVERY_S = 0.05


def reference_job():
    """A fixed job shaped like wallcross's inner loop: a sparse polynomial
    product over ``Fraction``s."""
    terms = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    out = {}
    for (i1, j1), c1 in terms.items():
        for (i2, j2), c2 in terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def job_ms():
    t = perf_counter()
    reference_job()
    return (perf_counter() - t) * 1000.0


def scale(seconds, before_ms, after_ms):
    """Milliseconds at the reference speed for ``seconds`` of work between
    two job times."""
    return seconds * 1000.0 * REFERENCE_MS * 2.0 / (before_ms + after_ms)


class SpeedProbe:
    """Splits the measured points into stretches of work with job timings
    between them.  ``start(i)`` and ``stop()`` bracket point ``i``, and
    ``hook()`` runs at calls inside wallcross (``spans.EntryHook``), so a
    long point is split too.  Whenever PROBE_EVERY_S has passed since the
    last job timing, the stretch so far is closed and the job is timed."""

    def __init__(self):
        self.timeline = []  # a float is a job time in ms; (point, seconds) is a stretch
        self.point = None
        self.mark = self.last = 0.0
        self.time_job()

    def time_job(self):
        self.timeline.append(job_ms())
        self.mark = self.last = perf_counter()

    def start(self, point):
        self.point = point
        self.mark = perf_counter()

    def hook(self):
        if self.point is None:
            return
        now = perf_counter()
        if now - self.last >= PROBE_EVERY_S:
            self.timeline.append((self.point, now - self.mark))
            self.time_job()

    def stop(self):
        now = perf_counter()
        self.timeline.append((self.point, now - self.mark))
        self.point = None
        if now - self.last >= PROBE_EVERY_S:
            self.time_job()

    def results(self, points):
        """(scaled ms, unscaled seconds) of each of ``points`` points; the
        job is timed once more to close the last stretch."""
        self.time_job()
        after, nexts = None, []
        for item in reversed(self.timeline):
            if isinstance(item, float):
                after = item
            nexts.append(after)
        nexts.reverse()
        scaled, raw = [0.0] * points, [0.0] * points
        before = None
        for item, after in zip(self.timeline, nexts):
            if isinstance(item, float):
                before = item
                continue
            point, seconds = item
            scaled[point] += scale(seconds, before, after)
            raw[point] += seconds
        return scaled, raw

    def job_times(self):
        return [item for item in self.timeline if isinstance(item, float)]
