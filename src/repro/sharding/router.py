"""Point reads and scans across a range partition.

The router turns a tier's point reads and scans into shard-local ones:

* ``lookup`` — route the key to its owning shard's replica group;
* ``scan`` / ``scan_range`` — clip the range against the shard ranges
  and concatenate the shard-local scans in key order (a range scan
  touches *only* the shards it overlaps — the point of range
  partitioning).

A tier's ``lookup_many`` does not come here: the one batch frame
(:meth:`repro.core.DiskIndex.lookup_many`) sorts and deduplicates the
batch, and :class:`~repro.sharding.ShardedIndex` hands each shard its
run of it.  Mutations route to the owning shard's primary in the tier.

Fault tolerance rides through the delegation: every shard-local read
the router issues goes through :meth:`Shard._serve_read`, so hedged
re-issues, health strikes and primary failover (DESIGN.md Section 17)
apply to routed reads and clipped scans exactly as to direct reads —
the router never sees a quarantined member, only the shard's answer or
its final ``StorageFault`` when the whole replica group is down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
