"""Machine-speed correction for the benchmark's times.

On a shared virtual machine the CPU's speed changes by up to about 60% for
seconds to tens of seconds at a time, as other tenants come and go; a run of
15 s can fall wholly in a fast or a slow phase. While it times anything, the
benchmark therefore runs a short fixed calibration loop every ``EVERY_S``
seconds from a ``SIGALRM`` handler, inside requests too, and divides each
interval by the speed factor of the samples taken during it and just around
it. A reported time reads "seconds at the speed where one calibration sample
takes ``NOMINAL_S``". Time spent in the handler is left out of every
interval (``Speedometer.clock``).

The loop uses none of the program's code and allocates nothing the garbage
collector tracks. It mixes interpreter dispatch with random reads from a
1 MiB list, because the program's work is both, and a slowdown from a busy
neighbour on the same core hits memory reads and dispatch differently.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

EVERY_S = 0.05
NOMINAL_S = 0.0006  # one sample's duration at the reference speed
MARGIN_S = 0.1  # samples this close to an interval also count for it
SPIN_ITERATIONS = 1_500
_TABLE = list(range(1024))
_MAP = {i: 1024 - i for i in range(1024)}
_WIDE = list(range(256)) * 512  # 2**17 references, 1 MiB


def spin() -> None:
    s, k = 0, 12345
    for j in range(SPIN_ITERATIONS):
        k = (k * 1103515245 + 12345) & 0x1FFFF
        s += _MAP[_TABLE[j & 1023]] ^ _WIDE[k]


class Speedometer:
    """Speed samples on a timer, while the context is open.

    ``clock()`` is ``perf_counter()`` without the time spent sampling; take
    interval ends from it. ``factor(t0, t1)`` is the slowdown over the
    interval from ``t0`` to ``t1``: the mean duration of the samples taken
    between ``t0 - MARGIN_S`` and ``t1 + MARGIN_S`` (at least one before
    and one after the interval), over ``NOMINAL_S``. Opening and closing the
    context each take a sample, so every interval inside it is enclosed.
    """

    def __init__(self):
        self.at = array("d")  # clock() when each sample started
        self.seconds = array("d")
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        spin()
        t1 = perf_counter()
        self.at.append(t0 - self.spent)
        self.seconds.append(t1 - t0)
        self.spent += t1 - t0

    def _sample_now(self) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample_now()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, t0: float, t1: float) -> float:
        lo = min(bisect.bisect_left(self.at, t0 - MARGIN_S), bisect.bisect_left(self.at, t0) - 1)
        hi = max(bisect.bisect_right(self.at, t1 + MARGIN_S), bisect.bisect_right(self.at, t1) + 1)
        if lo < 0 or hi > len(self.at):
            raise ValueError("interval not enclosed by speed samples")
        return statistics.fmean(self.seconds[lo:hi]) / NOMINAL_S
