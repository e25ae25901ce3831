"""Fixed-bucket histograms.

The paper reports averages (blocks per op, phase latency) and two tail
points (p50/p99, Figure 12); anything finer — "what does the p90 insert
pay in the SMO phase?" — needs a distribution, not a scalar.  A
fixed-bucket histogram records a value with one bisect into a static
boundary list, keeps O(buckets) memory regardless of how many operations
run, and merges across runs by adding counts, which is what a sharded
deployment needs (per-shard histograms sum into the fleet view; raw
latency arrays do not).

Percentiles are estimated by linear interpolation inside the covering
bucket, with the overflow bucket clamped to the observed maximum — the
standard Prometheus/HdrHistogram trade-off: a bounded relative error set
by the bucket spacing, in exchange for constant memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import islice
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Histogram",
    "KeyedDigest",
    "latency_bounds",
    "io_bounds",
]


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


def io_bounds(max_blocks: int = 512) -> Tuple[float, ...]:
    """Bucket boundaries for per-op block counts.

    Exact up to 16 blocks (the region Table 4 cares about — every studied
    index fetches 1..10 blocks per lookup), then doubling up to
    ``max_blocks`` to keep SMO cascades distinguishable from single-block
    writes.
    """
    bounds = list(range(0, 17))
    value = 24
    while value < max_blocks:
        bounds.append(value)
        value *= 2
    bounds.append(max_blocks)
    return tuple(float(b) for b in bounds)


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

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical boundaries into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different boundaries")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

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


class KeyedDigest(defaultdict):
    """Histograms over shared boundaries, one per key — an op type, a
    phase, a client — each made when its key's first sample arrives:
    ``digest[key].record(value)``.  Reading a key that never got a
    sample yields the empty histogram (all-zero summary)."""

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(bounds)
        super().__init__(lambda: Histogram(bounds))

    def record_many(self, keys: Iterable, values: Sequence[float]) -> None:
        """``self[key].record(value)`` for each aligned pair (``keys`` may
        run on past ``values``), as one :meth:`Histogram.record_many` per
        key, the keys made in the order they first appear."""
        keys = list(islice(keys, len(values)))
        if not keys:
            return
        values = np.asarray(values, dtype=np.float64)
        labels = np.array(keys, dtype=object)
        for key in dict.fromkeys(keys):
            self[key].record_many(values[labels == key])

    def summaries(self) -> Dict[object, Dict[str, float]]:
        """Each key's :meth:`Histogram.summary`, as results report them."""
        return {key: hist.summary() for key, hist in self.items()}
