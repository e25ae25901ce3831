"""Range partitioning of the uint64 keyspace.

A :class:`RangePartition` splits ``[0, 2^64)`` into N contiguous,
half-open ranges: shard ``i`` owns ``[boundary[i-1], boundary[i])`` with
the implicit outer bounds 0 and ``2^64``.  Range partitioning (rather
than hashing) is what keeps scans shard-local: a ``scan_range`` touches
exactly the shards whose ranges overlap the query — the property
Google's disk-based learned-index deployment (Abu-Libdeh et al. 2020)
shards around, and the one the router's split/merge logic relies on.
The boundary list is strictly increasing, so the ranges tile the
keyspace with no gap and no overlap (the property the Hypothesis
round-trip tests pin down).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

__all__ = ["RangePartition", "KEYSPACE_END"]

#: One past the largest uint64 key — the exclusive upper bound of the
#: last shard's range.
KEYSPACE_END = 2**64


class RangePartition:
    """N contiguous key ranges tiling ``[0, 2^64)``.

    Args:
        boundaries: strictly increasing split keys; ``len(boundaries)+1``
            is the shard count.  An empty list is the degenerate single
            shard owning the whole keyspace.
    """

    def __init__(self, boundaries: Sequence[int] = ()) -> None:
        bounds = [int(b) for b in boundaries]
        previous = 0
        for b in bounds:
            if not 0 < b < KEYSPACE_END:
                raise ValueError(f"boundary {b} outside (0, 2^64)")
            if b <= previous:
                raise ValueError(
                    f"boundaries must be strictly increasing; got {b} after "
                    f"{previous}")
            previous = b
        self.boundaries: List[int] = bounds

    @classmethod
    def from_keys(cls, keys: Sequence[int], shards: int) -> "RangePartition":
        """Quantile boundaries: each shard starts with ~len(keys)/shards
        of the sample.  ``keys`` must be sorted ascending."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards == 1:
            return cls()
        if len(keys) < shards:
            raise ValueError(
                f"need at least {shards} sample keys to cut {shards} ranges; "
                f"got {len(keys)}")
        bounds = []
        n = len(keys)
        for i in range(1, shards):
            b = int(keys[(i * n) // shards])
            if bounds and b <= bounds[-1]:
                raise ValueError(
                    "sample keys too clustered to cut distinct boundaries; "
                    "pass explicit boundaries instead")
            bounds.append(b)
        return cls(bounds)

    # -- geometry ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, key: int) -> int:
        """The shard whose half-open range contains ``key``."""
        if not 0 <= key < KEYSPACE_END:
            raise ValueError(f"key {key} out of uint64 range")
        return bisect_right(self.boundaries, key)

    def range_of(self, shard_id: int) -> Tuple[int, int]:
        """Shard ``shard_id``'s half-open range ``[lo, hi)``."""
        if not 0 <= shard_id < self.num_shards:
            raise IndexError(
                f"shard {shard_id} out of range for {self.num_shards} shards")
        lo = self.boundaries[shard_id - 1] if shard_id > 0 else 0
        hi = (self.boundaries[shard_id]
              if shard_id < len(self.boundaries) else KEYSPACE_END)
        return lo, hi

    # -- splitting -----------------------------------------------------------

    def split_keys(self, keys: Sequence[int]) -> Dict[int, List[Tuple[int, int]]]:
        """Group a key batch by owning shard, keeping batch positions.

        Returns ``{shard_id: [(position, key), ...]}`` with each shard's
        list in batch order.  Duplicates survive (each occurrence keeps
        its own position), so the router's merge restores the original
        batch losslessly.
        """
        split: Dict[int, List[Tuple[int, int]]] = {}
        for position, key in enumerate(keys):
            split.setdefault(self.shard_of(key), []).append((position, key))
        return split

    def split_range(self, low: int, high: int) -> List[Tuple[int, int, int]]:
        """Clip an inclusive key range against the shard ranges.

        Returns ``[(shard_id, lo, hi)]`` — inclusive sub-ranges, in key
        (and therefore shard) order — covering exactly ``[low, high]``.
        Empty when ``high < low``.
        """
        if high < low:
            return []
        parts: List[Tuple[int, int, int]] = []
        first = self.shard_of(low)
        last = self.shard_of(min(high, KEYSPACE_END - 1))
        for sid in range(first, last + 1):
            range_lo, range_hi = self.range_of(sid)
            parts.append((sid, max(low, range_lo), min(high, range_hi - 1)))
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangePartition({self.boundaries!r})"
