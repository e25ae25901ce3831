"""Sharded, replicated storage tier with workload-aware routing.

See DESIGN.md Section 14.  The public surface:

* :func:`make_sharded_index` — build a :class:`ShardedIndex` (the whole
  tier behind the ordinary :class:`~repro.core.DiskIndex` interface);
* :class:`RangePartition` / :class:`Router` / :class:`Shard` — the
  pieces, for tests and tools that need to reach inside;
* :class:`ShardTuner` — P1-P5 scoring of observed per-shard op mixes,
  choosing index classes divergently per shard.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

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
    """Build a sharded tier.

    Args:
        index_names: one registry name for a uniform tier, or one name
            per shard for a divergent one (its length fixes the shard
            count).
        shards: shard count (required when ``index_names`` is a single
            name and no explicit ``boundaries`` are given).
        boundaries: explicit partition split keys
            (``len(boundaries) + 1`` shards); otherwise quantile
            boundaries are cut from ``sample_keys`` (normally the bulk
            keys).
        replicas: copies per shard including the primary.
        replica_policy: read routing across a replica group —
            ``primary`` / ``round_robin`` / ``least_loaded``.
        durability: give every shard its own WAL (armed after bulk
            load), making the tier's ``durable_*`` paths and the fan-out
            WAL facade live.
        group_commit / profile / block_size / buffer_blocks /
        write_back / index_params: per-member storage configuration,
            identical across members (a member's pool is LRU).
    """
    if isinstance(index_names, str):
        names: Optional[list] = None
        uniform = index_names
    else:
        names = list(index_names)
        uniform = None
        if shards is not None and shards != len(names):
            raise ValueError(
                f"{len(names)} per-shard index names but shards={shards}")
        shards = len(names)

    if boundaries is not None:
        partition = RangePartition(boundaries)
        if shards is not None and shards != partition.num_shards:
            raise ValueError(
                f"{len(partition.boundaries)} boundaries cut "
                f"{partition.num_shards} ranges but shards={shards}")
    elif shards is None:
        raise ValueError("pass shards=N, per-shard index_names, or boundaries")
    elif shards == 1:
        partition = RangePartition()
    elif sample_keys is not None:
        partition = RangePartition.from_keys(sample_keys, shards)
    else:
        # No sample: cut the uint64 keyspace evenly.
        step = KEYSPACE_END // shards
        partition = RangePartition([step * i for i in range(1, shards)])

    if names is None:
        names = [uniform] * partition.num_shards

    built = [
        Shard(shard_id, name, replicas=replicas,
              replica_policy=replica_policy, durability=durability,
              group_commit=group_commit, profile=profile,
              block_size=block_size, buffer_blocks=buffer_blocks,
              write_back=write_back, index_params=index_params)
        for shard_id, name in enumerate(names)
    ]
    return ShardedIndex(built, partition)
