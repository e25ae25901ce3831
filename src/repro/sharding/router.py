"""Batch splitting, fan-out, and merge across a range partition.

The router is the only component that understands both the partition
geometry and the shard membership.  It turns tier-level operations into
shard-local ones:

* ``lookup`` — route the key to its owning shard's replica group;
* ``lookup_many`` — split the batch by boundary (duplicates and order
  preserved), fan each sub-batch to its shard's coalesced
  ``lookup_many``, and merge the answers back into batch positions;
* ``scan`` / ``scan_range`` — clip the range against the shard ranges
  and concatenate the shard-local scans in key order (a range scan
  touches *only* the shards it overlaps — the point of range
  partitioning);
* mutations — route to the owning shard's primary.

The Hypothesis property test asserts the split/merge round-trip is
lossless.

Fault tolerance rides through the delegation: every shard-local read
the router issues goes through :meth:`Shard._serve_read`, so hedged
re-issues, health strikes and primary failover (DESIGN.md Section 17)
apply to routed batches and clipped scans exactly as to direct reads —
the router never sees a quarantined member, only the shard's answer or
its final ``StorageFault`` when the whole replica group is down.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core.interface import KeyPayload
from .partition import RangePartition
from .shard import Shard

__all__ = ["Router"]


class Router:
    """Splits tier-level operations across shards and merges results."""

    def __init__(self, partition: RangePartition, shards: Sequence[Shard]) -> None:
        if partition.num_shards != len(shards):
            raise ValueError(
                f"partition cuts {partition.num_shards} ranges but "
                f"{len(shards)} shards given")
        self.partition = partition
        self.shards = list(shards)

    # -- point reads ---------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        return self.shards[self.partition.shard_of(key)].lookup(key)

    def lookup_many(self, keys: Iterable[int]) -> List[Optional[int]]:
        """Split / fan out / merge; result order matches the input batch."""
        keys = list(keys)
        if not keys:
            return []
        split = self.partition.split_keys(keys)
        results: List[Optional[int]] = [None] * len(keys)
        for shard_id, group in sorted(split.items()):
            answers = self.shards[shard_id].lookup_many(
                [key for _, key in group])
            for (position, _), answer in zip(group, answers):
                results[position] = answer
        return results

    # -- scans ---------------------------------------------------------------

    def scan_range(self, low: int, high: int) -> List[KeyPayload]:
        """Concatenate shard-local scans over the clipped sub-ranges."""
        out: List[KeyPayload] = []
        for shard_id, lo, hi in self.partition.split_range(low, high):
            out.extend(self.shards[shard_id].scan_range(lo, hi))
        return out

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        """Up to ``count`` pairs with key >= start_key, walking forward
        across shard boundaries until the count is filled."""
        out: List[KeyPayload] = []
        shard_id, start = self.partition.shard_of(start_key), start_key
        while shard_id < len(self.shards) and len(out) < count:
            chunk = self.shards[shard_id].scan(start, count - len(out))
            # Clip to the shard's own range: a key a shard holds outside
            # it must not leak into another shard's answer.
            _, range_hi = self.partition.range_of(shard_id)
            out.extend(pair for pair in chunk if pair[0] < range_hi)
            shard_id += 1
            if shard_id < len(self.shards):
                start, _ = self.partition.range_of(shard_id)
        return out[:count]
