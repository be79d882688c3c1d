"""A sampling speed probe that turns raw seconds into reference seconds.

The machines the benchmark runs on are shared.  A neighbour's load slows
every pure-Python instruction by up to half, in phases that last from a
fraction of a millisecond to minutes, so raw wall time of the same job
wanders by 20 % or more between runs.  The probe measures that slowdown
while the jobs run: an interval timer interrupts the main thread every
INTERVAL_S seconds, and the signal handler times a fixed, stdlib-only
exact-rational workload.  Its time against PROBE_NOMINAL_S gives the
machine's speed at that moment.

A stretch of code that took `raw` seconds on the probe's clock took

    raw * mean(PROBE_NOMINAL_S / probe time, over the samples within it)

reference seconds: seconds at the speed of an uncontended core.  The clock
excludes the time spent inside the handler.  Library changes cannot alter
the probe, so slower library code still reads slower; only the host's
load cancels.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# The probe workload's time on an uncontended core of the 2-vCPU x86-64
# (Xeon) virtual machine the benchmark was defined on.
PROBE_NOMINAL_S = 0.0009
INTERVAL_S = 0.015
# A stretch shorter than this many samples borrows its nearest neighbours'.
MIN_SAMPLES = 5


def _probe_work() -> Fraction:
    a, acc = Fraction(1), Fraction(0)
    for i in range(1, 150):
        a = a * Fraction(i + 1, i) - Fraction(1, i + 3)
        a = Fraction(a.numerator % 1000003, a.denominator % 1000 + 1)
        acc += a
    return acc


class SpeedProbe:
    def __init__(self):
        self._spent = 0.0           # seconds spent inside the handler
        self._busy = False
        self.times: list[float] = []      # clock() when each sample began
        self.ratios: list[float] = []     # PROBE_NOMINAL_S / sample time
        self._previous = None

    def clock(self) -> float:
        """perf_counter() minus the time spent probing."""
        return time.perf_counter() - self._spent

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            at = self.clock()
            start = time.perf_counter()
            _probe_work()
            took = time.perf_counter() - start
            self._spent += took
            self.times.append(at)
            self.ratios.append(PROBE_NOMINAL_S / took)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per raw second over [start, end] of clock()."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        window = self.ratios[lo:hi]
        return sum(window) / len(window)
