"""Speed probe: rescales wall times to a fixed reference speed.

On a shared machine the speed of a virtual CPU drifts with its
neighbours' load.  On the 2-core VM where this benchmark was tuned, a
fixed pure-Python loop takes from 60% to 110% of its median time, and at
times the host steals a quarter of the wall clock or more, in episodes
of seconds to minutes.  Every timed call inherits that drift.

The probe cancels both.  Stolen time is read from each CPU's ``steal``
counter in ``/proc/stat`` at every call boundary; the counters tick
every 10 ms, so a call is charged the share stolen over at least the
last ``STEAL_WINDOW`` seconds, the largest increase on any one CPU.  For the slower core, a timer signal runs a fixed
integer loop on the main thread every ``PERIOD`` seconds and records the
loop's CPU time on that thread, which neither stolen time nor waits for
the interpreter lock inflate.  A call's
reference time is its wall time, minus stolen time and the probe's own
CPU time, divided by the mean slowdown of the loops that ran during it
relative to ``NOMINAL``.
"""

from __future__ import annotations

import os
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

PERIOD = 0.02
MIN_SAMPLES = 8
STEAL_WINDOW = 1.0
LOOP = 3000
NOMINAL = 0.25e-3  # CPU seconds for one loop on an uncontended core of the tuning VM


def _loop() -> int:
    # Integer work only: it allocates nothing the garbage collector
    # tracks, so a sample never runs a collection the program triggered.
    x = 0
    for k in range(LOOP):
        x += k * k % 7
    return x


class Probe:
    """Samples of ``(wall time, loop CPU seconds)``, taken while running."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self.marks: list[tuple[float, list[float]]] = []  # (wall time, steal())

    def mark(self, start: bool) -> float:
        """Wall time of a call boundary, with the steal counters read
        outside the call."""
        if start:
            stolen_so_far = steal()
            t = perf_counter()
        else:
            t = perf_counter()
            stolen_so_far = steal()
        self.marks.append((t, stolen_so_far))
        return t

    def _sample(self, signum, frame) -> None:
        t, c0 = perf_counter(), thread_time()
        _loop()
        self.costs.append(thread_time() - c0)
        self.times.append(t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_time(self, start: float, end: float) -> float:
        """Reference seconds for a call that ran from ``start`` to
        ``end``, both times returned by :meth:`mark`.

        A call holding fewer than ``MIN_SAMPLES`` samples is rated by
        the ``MIN_SAMPLES`` latest ones up to its end: the speed drifts
        over seconds, so they describe it better than one or two."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        own = sum(self.costs[lo:hi])
        rated = self.costs[min(lo, max(hi - MIN_SAMPLES, 0)):hi] or self.costs[:MIN_SAMPLES]
        slowdown = sum(rated) / len(rated) / NOMINAL if rated else 1.0
        return max((end - start) * (1.0 - self.stolen_share(start, end)) - own, 0.0) / slowdown

    def stolen_share(self, start: float, end: float) -> float:
        """Share of wall time stolen over the marks spanning at least
        ``STEAL_WINDOW`` seconds before ``end`` and the whole call."""
        times = [t for t, _ in self.marks]
        last = bisect_right(times, end) - 1
        first = max(bisect_right(times, min(start, end - STEAL_WINDOW)) - 1, 0)
        if last <= first:
            return 0.0
        (t_a, before), (t_b, after) = self.marks[first], self.marks[last]
        return min(stolen(before, after) / (t_b - t_a), 1.0)


_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal() -> list[float]:
    """Seconds stolen from each CPU so far; empty where the kernel does
    not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and line[3].isdigit()]
    except OSError:
        return []
    return [int(row[8]) / _TICK for row in rows if len(row) > 8]


def stolen(before: list[float], after: list[float]) -> float:
    """The largest per-CPU increase of stolen time between two readings."""
    return max((b - a for a, b in zip(before, after)), default=0.0)
