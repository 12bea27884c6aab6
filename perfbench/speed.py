"""CPU speed sampling, to rescale measured times to one reference speed.

Shared hosts switch between full and about half speed for seconds at a time
(most likely a busy neighbour on the same physical core).  That moves a whole
run by a third or more, far beyond any useful bound, and it slows this
library's work much as it slows a small Fraction kernel.  While the harness
runs, a SIGALRM handler times a fixed micro-kernel (stdlib Fraction
arithmetic, never edited with the library) every ``PERIOD_S`` seconds.  An
interval is then rescaled by the kernel's mean speed during it, to the speed
at which the kernel takes ``REF_S``.

The rescaling fits work that slows as the kernel does: interpreter work whose
data stays in the core's caches.  Work that waits partly on memory, such as
a walk over a machine index of thousands of edges, slows less on a busy host
and would be over-corrected; the workloads leave it out (see
``workloads.MULTIHEAD``).
"""

from __future__ import annotations

import bisect
from fractions import Fraction
import gc
import signal
from time import perf_counter

PERIOD_S = 0.002
RUNS = 3  # kernel runs per sample; the fastest counts
# the kernel's time (fastest of RUNS) at full speed on a 2.0 GHz Intel Xeon
# (Sapphire Rapids, KVM guest) under CPython 3.11.7
REF_S = 36e-6


def micro_kernel() -> Fraction:
    x = Fraction(1, 3)
    for i in range(8):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
    return x


class SpeedSampler:
    """Samples of the current speed (1.0 = reference) with their times."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        # The kernel shares the program's heap: with the collector on, a
        # collection falling due while it allocates would be charged to the
        # sample.  The fastest of a few runs also drops a cold-cache first run.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            best = float("inf")
            for _ in range(RUNS):
                t0 = perf_counter()
                micro_kernel()
                best = min(best, perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.speeds.append(REF_S / best)
        self.times.append(start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval ``[start, end]`` takes at the reference speed.

        Uses the samples inside the interval plus one on each side, so a
        request shorter than the period still gets the speed around it.
        """
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        window = self.speeds[lo:hi]
        if not window:
            raise RuntimeError("no speed samples: the sampler was not running")
        return (end - start) * sum(window) / len(window)
