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

Every split is counted (batches routed, fan-out width, boundary-crossing
scans) so the sharding experiment can report routing behaviour, and the
Hypothesis property test can assert the split/merge round-trip is
lossless.

Fault tolerance rides through the delegation: every shard-local read
the router issues goes through :meth:`Shard._serve_read`, so hedged
re-issues, health strikes and primary failover (DESIGN.md Section 17)
apply to routed batches and clipped scans exactly as to direct reads —
the router never sees a quarantined member, only the shard's answer or
its final ``StorageFault`` when the whole replica group is down.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

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
        self.batches_routed = 0
        self.keys_routed = 0
        self.fanout_total = 0
        self.max_fanout = 0
        self.scans_routed = 0
        self.cross_shard_scans = 0

    # -- point reads ---------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        return self.shards[self.partition.shard_of(key)].lookup(key)

    def split_batch(self, keys: Sequence[int]) -> Dict[int, List]:
        """Partition a batch into per-shard ``[(position, key), ...]``
        groups, recording fan-out statistics."""
        split = self.partition.split_keys(keys)
        self.batches_routed += 1
        self.keys_routed += len(keys)
        self.fanout_total += len(split)
        self.max_fanout = max(self.max_fanout, len(split))
        return split

    def lookup_many(self, keys: Iterable[int]) -> List[Optional[int]]:
        """Split / fan out / merge; result order matches the input batch."""
        keys = list(keys)
        if not keys:
            return []
        split = self.split_batch(keys)
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
        parts = self.partition.split_range(low, high)
        self.scans_routed += 1
        if len(parts) > 1:
            self.cross_shard_scans += 1
        out: List[KeyPayload] = []
        for shard_id, lo, hi in parts:
            out.extend(self.shards[shard_id].scan_range(lo, hi))
        return out

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        """Up to ``count`` pairs with key >= start_key, walking forward
        across shard boundaries until the count is filled."""
        self.scans_routed += 1
        out: List[KeyPayload] = []
        first_shard = self.partition.shard_of(start_key)
        shard_id, start = first_shard, start_key
        while shard_id < len(self.shards) and len(out) < count:
            chunk = self.shards[shard_id].scan(start, count - len(out))
            # Clip to the shard's own range: a key a shard holds outside
            # it must not leak into another shard's answer.
            _, range_hi = self.partition.range_of(shard_id)
            out.extend(pair for pair in chunk if pair[0] < range_hi)
            shard_id += 1
            if shard_id < len(self.shards):
                start, _ = self.partition.range_of(shard_id)
        if shard_id - first_shard > 1:
            self.cross_shard_scans += 1
        return out[:count]
