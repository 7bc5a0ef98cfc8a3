"""Timing that is steady while the machine's speed drifts.

On a shared virtual machine with two vCPUs (Python 3.11), the speed of the
CPU as seen by one process drifts by tens of percent within seconds, for the
program and for any other Python code alike: a fixed loop timed in 2-second
buckets ranged from 2.0 to 3.5 ms within 40 s, and the raw median latency of
one workload spread by 10-27% (quartile distance over median) across ten
runs.  No bound worth setting survives that.

So every timed call is cut into segments: a SIGALRM interval timer ends a
segment every `INTERVAL_S` while the call runs, and a short fixed reference
routine is timed at each segment boundary.  Each segment's duration is scaled
by REFERENCE_S over the mean of the reference times at its two ends, and the
call's scaled time is the sum: the time the call would take on a machine
where the reference routine takes exactly REFERENCE_S.  On the same machine
the scaled medians spread by 1-5%.  The reference calls nothing in httool
and costs about 2% of the timed work of long calls.  Raw times are kept next
to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 2e-4
INTERVAL_S = 0.025


def reference() -> int:
    """Fixed pure-Python work, rational and modular integer arithmetic like
    the program's; about REFERENCE_S on the machine it was written on."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    n = 1
    for _ in range(80):
        n = (n * 6364136223846793005 + 1442695040888963407) % (1 << 127)
    return acc.numerator % 1000 + n % 1000


def reference_time() -> float:
    """The faster of two back-to-back runs: the first run after program code
    pays for the caches that code left behind, which varies with the code."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return min(times)


def reference_median(count: int = 5) -> float:
    return statistics.median(reference_time() for _ in range(count))


class SpeedMeter:
    """Times calls in segments scaled to the reference speed.

    Installs a SIGALRM handler for the life of the process; the interval
    timer runs only inside `call`."""

    def __init__(self):
        self.references: list[float] = []
        self._last_reference: float | None = None
        self._armed = False
        self._in_handler = False
        self._mark = 0.0
        self._raw = 0.0
        self._scaled = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _reference(self) -> float:
        self._last_reference = reference_time()
        self.references.append(self._last_reference)
        return self._last_reference

    def _close_segment(self, now: float) -> None:
        before = self._last_reference
        duration = now - self._mark
        self._raw += duration
        self._scaled += duration * REFERENCE_S / ((before + self._reference()) / 2)
        self._mark = time.perf_counter()

    def _on_alarm(self, _signum, _frame) -> None:
        if self._armed and not self._in_handler:
            self._in_handler = True
            try:
                self._close_segment(time.perf_counter())
            finally:
                self._in_handler = False

    def call(self, fn):
        """Run fn(); return (result, raw seconds, scaled seconds).  The time
        spent in reference runs during the call counts in neither."""
        if self._last_reference is None:
            self._reference()
        self._raw = self._scaled = 0.0
        self._mark = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            self._in_handler = True  # a late alarm closes no segment now
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            self._close_segment(time.perf_counter())
            self._in_handler = False
        return result, self._raw, self._scaled
