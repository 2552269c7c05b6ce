"""Machine-speed probe that samples the speed of the CPU a request runs on.

The reference machine (a 2-core virtual machine on a shared host, see the
README) moves between speed states up to about 3x apart, for anything from
a fraction of a second to minutes, so the median request time of a 30-second
run spread by 34-54 % between runs of the same code.  A fixed kernel, run
every ``INTERVAL_S`` from a SIGALRM handler on the benchmark's own thread,
samples that speed while the request runs.  A request's time divided by
``factor`` (the mean sample during the request over ``REF_KERNEL_S``) is its
time at reference speed.

Each sample runs the kernel once untimed and then takes the median of
``CALLS`` timed calls.  The untimed call reloads the kernel's few kilobytes
of data and code, so the cache, branch-predictor and allocator state that the
program left behind does not reach the sample, and the median drops a call
that a collection or a page fault lands on.  The README gives the check: a
single cold call, as a sample, read 1.6-2.3x slower inside a program than
between its runs, depending on the program, while this sample reads the
same within 1 %.

The kernel is a chain of small numpy matrix products, the pattern of the
solver's integrators, and it runs no package code.  Probes on the other
core, or bursts timed only before and after a request, tracked the request
times worse than this one does.  It costs about 2 % of the measured time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
CALLS = 8
# one call's time in the fast state of the reference machine (see README)
REF_KERNEL_S = 7.5e-5
_MATRICES = np.arange(32 * 16, dtype=float).reshape(32, 4, 4) % 7.0 / 70.0


def kernel() -> float:
    u = np.eye(4)
    for a in _MATRICES:
        u = u + 0.01 * (a @ u)
    return float(u[0, 0])


def sample() -> float:
    """Median time of ``CALLS`` kernel calls after one untimed call."""
    kernel()
    seconds = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


class SpeedProbe:
    """Takes a ``sample`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        self.seconds.append(sample())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Mean sample over [t0, t1] relative to the reference; 1 is reference speed.

        An interval too short to hold a sample takes the nearest one.
        """
        if not self.times:
            raise RuntimeError("the speed probe has no samples")
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi == lo:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return statistics.fmean(self.seconds[lo:hi]) / REF_KERNEL_S
