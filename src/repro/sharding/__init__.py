"""Sharded, replicated storage tier with workload-aware routing.

See DESIGN.md Section 14.  The public surface:

* :func:`make_sharded_index` — build a :class:`ShardedIndex` (the whole
  tier behind the ordinary :class:`~repro.core.DiskIndex` interface)
  from keywords; :func:`repro.stack.build` builds one from a
  :class:`~repro.stack.StackSpec`;
* :class:`RangePartition` / :class:`Router` / :class:`Shard` — the
  pieces, for tests and tools that need to reach inside;
* :class:`ShardTuner` — P1-P5 scoring of observed per-shard op mixes,
  choosing index classes divergently per shard.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..stack import StackSpec, make_tier
from ..storage import HDD, DiskProfile
from .partition import KEYSPACE_END, RangePartition
from .router import Router
from .shard import (HEALTH_STATES, MemberHealth, REPLICA_POLICIES, Shard,
                    ShardMember)
from .sharded import ShardedIndex, combine_stats, member_prefix
from .tuner import COST_TABLE, READ_ONLY_CLASSES, ShardTuner

__all__ = [
    "KEYSPACE_END", "RangePartition", "Router", "Shard", "ShardMember",
    "ShardedIndex", "ShardTuner",
    "MemberHealth", "HEALTH_STATES",
    "REPLICA_POLICIES", "COST_TABLE", "READ_ONLY_CLASSES",
    "combine_stats", "member_prefix", "make_sharded_index",
]


def make_sharded_index(index_names: Union[str, Sequence[str]],
                       shards: Optional[int] = None, *,
                       boundaries: Optional[Sequence[int]] = None,
                       sample_keys: Optional[Sequence[int]] = None,
                       replicas: int = 1,
                       replica_policy: str = "round_robin",
                       durability: bool = False, group_commit: int = 8,
                       profile: DiskProfile = HDD, block_size: int = 4096,
                       buffer_blocks: int = 0, write_back: bool = False,
                       index_params: Optional[dict] = None) -> ShardedIndex:
    """Build a sharded tier, unloaded: the keyword form of a tier
    :class:`~repro.stack.StackSpec` (``durability`` arms a WAL of
    ``group_commit`` per shard; a member's pool is LRU), plus the
    partition and the read routing (``primary`` / ``round_robin`` /
    ``least_loaded``).  :func:`repro.stack.build` builds a tier from a
    spec and also owns its bulk-load boundary.

    The partition: ``len(index_names)`` shards for per-shard names,
    ``len(boundaries) + 1`` for explicit split keys, else ``shards``
    ranges cut at the quantiles of ``sample_keys`` (normally the bulk
    keys) or, without a sample, evenly over the keyspace.
    """
    if not isinstance(index_names, str):
        index_names = tuple(index_names)
        if shards is not None and shards != len(index_names):
            raise ValueError(
                f"{len(index_names)} per-shard index names but shards={shards}")
        shards = len(index_names)

    if boundaries is not None:
        partition = RangePartition(boundaries)
        if shards is not None and shards != partition.num_shards:
            raise ValueError(
                f"{len(partition.boundaries)} boundaries cut "
                f"{partition.num_shards} ranges but shards={shards}")
    elif shards is None:
        raise ValueError("pass shards=N, per-shard index_names, or boundaries")
    elif sample_keys is not None:
        partition = RangePartition.from_keys(sample_keys, shards)
    else:
        # No sample: cut the uint64 keyspace evenly.
        step = KEYSPACE_END // shards
        partition = RangePartition([step * i for i in range(1, shards)])

    if durability and group_commit < 1:
        raise ValueError(f"group_commit must be >= 1, got {group_commit}")
    spec = StackSpec(index_names, index_params=index_params or {},
                     profile=profile, block_size=block_size,
                     buffer_blocks=buffer_blocks, write_back=write_back,
                     group_commit=group_commit if durability else 0,
                     shards=partition.num_shards, replicas=replicas)
    return make_tier(spec, partition, replica_policy)

