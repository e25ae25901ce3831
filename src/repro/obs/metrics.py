"""Fixed-bucket latency histograms.

The paper reports averages (blocks per op, phase latency) and two tail
points (p50/p99, Figure 12), which :class:`~repro.workloads.RunResult`
computes exactly from the latency array.  The one digest a run reports
is each serving client's latency summary (``RunResult.per_client``): a
fixed-bucket histogram records a value with one bisect into a static
boundary list and keeps O(buckets) memory regardless of how many
operations run.

Percentiles are estimated by linear interpolation inside the covering
bucket, with the overflow bucket clamped to the observed maximum — the
standard Prometheus/HdrHistogram trade-off: a bounded relative error set
by the bucket spacing, in exchange for constant memory.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Histogram", "latency_bounds"]


def latency_bounds(low_us: float = 10.0, high_us: float = 1e8,
                   per_decade: int = 4) -> Tuple[float, ...]:
    """Geometric bucket boundaries for simulated-microsecond latencies.

    The defaults span 10 µs (one sequential SSD block) to 100 s of
    simulated time with ``per_decade`` buckets per decade — a worst-case
    relative error of ``10**(1/per_decade) - 1`` (~78% at 4/decade),
    which is tighter than the >2x gaps between the paper's reported
    percentiles.
    """
    bounds = []
    value = low_us
    ratio = 10.0 ** (1.0 / per_decade)
    while value < high_us:
        bounds.append(round(value, 6))
        value *= ratio
    # Float drift can make the last generated bound round to high_us
    # itself; only append the cap when it still extends the range.
    if not bounds or bounds[-1] < high_us:
        bounds.append(high_us)
    return tuple(bounds)


class Histogram:
    """Fixed-boundary histogram with percentile estimation.

    Args:
        bounds: strictly increasing bucket upper boundaries.  A value
            ``v`` lands in the first bucket whose boundary is ``>= v``;
            values above the last boundary land in one overflow bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b >= a for b, a in zip(bounds, list(bounds)[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # + overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Sequence[float]) -> None:
        """:meth:`record` each of ``values`` (finite floats) in order, as
        array operations: the same counts, and bit for bit the same
        ``total``, ``min`` and ``max``.

        ``searchsorted`` on the left side is ``bisect_left``; the total
        is a left-to-right accumulation from the running total, which is
        the loop's order of additions; ``argmin`` / ``argmax`` pick the
        first of equal extremes, as the loop's strict comparisons keep
        it.
        """
        if not len(values):
            return
        arr = np.asarray(values, dtype=np.float64)
        buckets = np.bincount(np.searchsorted(self.bounds, arr, side="left"),
                              minlength=len(self.counts))
        self.counts = [c + n for c, n in zip(self.counts, buckets.tolist())]
        self.count += len(arr)
        self.total = np.add.accumulate(
            np.concatenate(([self.total], arr))).item(-1)
        low, high = arr.item(int(arr.argmin())), arr.item(int(arr.argmax()))
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0 <= q <= 100).

        Linear interpolation inside the covering bucket; the overflow
        bucket and the global extremes are clamped to observed min/max,
        so ``percentile(100)`` is exact.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else (self.min or 0.0)
                hi = self.bounds[i] if i < len(self.bounds) else (self.max or lo)
                fraction = (rank - seen) / bucket_count
                value = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                # Never report outside the observed range.
                value = max(value, self.min if self.min is not None else value)
                return min(value, self.max if self.max is not None else value)
            seen += bucket_count
        return self.max or 0.0  # pragma: no cover - unreachable

    def summary(self) -> Dict[str, float]:
        """The fixed digest reported on results: count/mean/p50/p90/p99/max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max if self.max is not None else 0.0,
        }

