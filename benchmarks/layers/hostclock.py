"""The real clock, corrected for how fast the host is running right now.

The builder box (and any shared VM) switches between speed states that
last from a fraction of a second to a minute and differ by ~25% for
*all* CPU-bound code — measured: a fixed pure-Python loop and the
benchmark's passes speed up and slow down together (ratio 0.80 vs 0.81).
A run that happens to sit in a fast stretch would read 25% "faster", and
no median over the passes of that run can remove it.

So every host-time measurement is bracketed by two runs of a fixed
calibration kernel and multiplied by ``REFERENCE_KERNEL_NS / kernel
time``: reported seconds are seconds *of a host that runs the kernel in
the reference time* (the builder box in its usual, slower state).  The
kernel is benchmark code, independent of the program under test, so a
change to the program cannot move the correction.  ``host_speed`` (the
factor's inverse) is reported with the per-layer metrics.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Iterator

CALIBRATION_LOOPS = 100_000
CALIBRATION_SAMPLES = 3
#: kernel time on the 2-core builder box in its usual state
REFERENCE_KERNEL_NS = 1_840_000
#: a region whose factor is within this of 1.0 ran at reference speed
NEAR_REFERENCE = 0.08


def kernel_ns() -> int:
    """Best of a few timings of the calibration kernel.

    The kernel stays within the cached small integers and allocates
    nothing: a loop that allocates runs up to 2x slower in a process
    whose heap a large index build has fragmented, which is a property of
    the process, not of the host.  The minimum rejects preemptions.
    """
    best = None
    for _ in range(CALIBRATION_SAMPLES):
        started = time.perf_counter_ns()
        x = 0
        for _ in itertools.repeat(None, CALIBRATION_LOOPS):
            x = (x + 7) & 127
        elapsed = time.perf_counter_ns() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


class Timed:
    """One measured region: raw host ns and the speed correction."""

    raw_ns = 0
    factor = 1.0    # corrected = raw * factor; < 1 when the host ran fast

    @property
    def ns(self) -> float:
        return self.raw_ns * self.factor

    @property
    def seconds(self) -> float:
        return self.ns / 1e9


@contextmanager
def timed() -> Iterator[Timed]:
    """Time the block; calibrate just before and just after it."""
    region = Timed()
    before = kernel_ns()
    started = time.perf_counter_ns()
    try:
        yield region
    finally:
        region.raw_ns = time.perf_counter_ns() - started
        after = kernel_ns()
        region.factor = REFERENCE_KERNEL_NS / ((before + after) / 2)
