"""Machine-speed sampler used to normalise the benchmark's timings.

On a shared machine the CPU's speed drifts. On a shared 2-vCPU Intel Xeon
virtual machine, a fixed pure-Python loop took anywhere from 7 to
12.5 ms over a 90 s window, within single seconds too, and the same
transform on the same code took 2.7 s and 3.3 s a minute apart. Raw seconds
therefore spread by 20-45% between runs at different moments, whatever
permid does. Measured against the loop below in 3 s windows over 90 s, a
permid exact evaluation, a set-family scan and numpy collision counting
varied by 5-6% (coefficient of variation), against 14-23% raw.

`Sampler` times that loop (exact rationals, set intersections, dict stores)
every INTERVAL seconds from a SIGALRM handler, so its samples are spread
evenly over the measured code. `factor` turns the samples taken during (and
WINDOW around) a measured interval into the multiplier that rescales the
interval to "seconds at reference speed": the speed at which the loop takes
REFERENCE_SECONDS. `busy` is the sampler's own time inside an interval
(about 1%), which the benchmark subtracts. Raw seconds are always recorded
next to the normalised ones.
"""

from __future__ import annotations

import atexit
import random
import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05
WINDOW = 0.5
# Typical loop time on the machine above; only fixes the scale.
REFERENCE_SECONDS = 0.0005


_rand = random.Random(0)
_SETS = [frozenset(_rand.sample(range(1, 200), 40)) for _ in range(30)]


def _loop() -> int:
    """Exact rationals, set intersections and dict stores: permid's mix."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    shared = sum(len(a & b) for a in _SETS for b in _SETS[:8])
    table = {}
    for i in range(300):
        table[i * 7919 % 1009] = i
    return shared + len(table) + total.denominator % 7


class Sampler:
    """Samples machine speed from start() on."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def start(self) -> None:
        """Sample until the process exits."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        # disarm before interpreter shutdown drops the handler, or the next
        # tick would kill the process
        atexit.register(signal.setitimer, signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _loop()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def busy(self, start: float, end: float) -> float:
        """Seconds the sampler itself ran inside [start, end)."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float, window: float = WINDOW) -> float:
        """Multiplier from seconds measured over [start, end) to seconds at
        reference speed, from the samples taken within `window` of it."""
        lo = bisect_left(self.starts, start - window)
        hi = bisect_left(self.starts, end + window)
        if lo == hi:
            raise ValueError("no speed sample near the measured interval")
        return REFERENCE_SECONDS / statistics.median(self.durations[lo:hi])
