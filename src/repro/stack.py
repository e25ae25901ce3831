"""One stack description, and the one place a stack is wired.

:class:`StackSpec` names every knob of a stack once, flat or sharded;
:func:`build` turns a spec plus its bulk items into a loaded
:class:`Stack`.  Device -> pool -> pager -> index wiring happens in
:func:`assemble` only: a flat stack is one assembly, and every member of
every shard is another (DESIGN.md Section 23).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Tuple, Union

from .core.interface import DiskIndex, KeyPayload
from .core.registry import make_index
from .durability.wal import WriteAheadLog
from .storage import HDD, BlockDevice, DiskProfile, Pager, make_buffer_pool

__all__ = ["StackSpec", "Stack", "build", "assemble", "make_tier",
           "make_pager", "pager_kwargs", "tracing"]

#: Set by :func:`tracing` (``python -m repro.bench run X --trace``): the
#: tracer accumulates totals across every device it gets bound to.
_ACTIVE_TRACER = None


@contextmanager
def tracing(tracer):
    """Attach ``tracer`` to every flat stack built inside the block."""
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = None


@dataclass(frozen=True)
class StackSpec:
    """Every knob of one stack, flat or sharded.

    ``index`` is a registry name or, in a tier, a tuple of one name per
    shard.  ``buffer_blocks`` (0: no pool) is per device: in a tier every
    member has its own pool.  ``write_back`` and a non-LRU
    ``buffer_policy`` need a pool.  ``group_commit`` is the WAL's
    operations per log flush (0: no WAL).  ``shards`` is 0 for a flat
    stack, else the shard count of a tier cut at the bulk keys'
    quantiles; ``replicas`` counts the copies per shard, primary
    included.  A spec that cannot be honoured raises ``ValueError``.
    """

    index: Union[str, Tuple[str, ...]] = "btree"
    index_params: Mapping[str, object] = field(default_factory=dict)
    profile: DiskProfile = HDD
    block_size: int = 4096
    buffer_blocks: int = 0
    buffer_policy: str = "lru"
    write_back: bool = False
    inner_memory_resident: bool = False
    group_commit: int = 0
    shards: int = 0
    replicas: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.index, str) or isinstance(self.index, tuple)
                and len(self.index) == self.shards):
            raise ValueError(f"index must be a registry name or one name per shard: {self}")
        if min(self.shards, self.buffer_blocks, self.group_commit) < 0 or self.replicas < 1:
            raise ValueError(f"negative count or replicas < 1: {self}")
        if self.replicas > 1 and not self.shards:
            raise ValueError(f"replicas need shards > 0: {self}")
        if (self.write_back or self.buffer_policy != "lru") and not self.buffer_blocks:
            raise ValueError(f"write_back and buffer_policy need a pool: {self}")


@dataclass
class Stack:
    """One bulk-loaded stack (a tier's ``device`` / ``pager`` / ``wal``
    are its fan-out views)."""

    index: DiskIndex
    device: object
    pager: object
    bulkload_us: float
    wal: Optional[object] = None


def pager_kwargs(spec: StackSpec) -> dict:
    """The :class:`Pager` keywords of ``spec``: a fresh pool and the
    write mode."""
    pool = (make_buffer_pool(spec.buffer_blocks, spec.buffer_policy)
            if spec.buffer_blocks else None)
    return {"buffer_pool": pool, "write_back": spec.write_back}


def make_pager(spec: StackSpec) -> Pager:
    """A pager over a fresh device, configured by ``spec``."""
    return Pager(BlockDevice(spec.block_size, spec.profile), **pager_kwargs(spec))


def assemble(spec: StackSpec) -> DiskIndex:
    """The empty index of a flat ``spec`` over its own device, pool and
    pager."""
    if spec.shards:
        raise ValueError("assemble wires one flat stack; build a tier with build()")
    return make_index(spec.index, make_pager(spec), **spec.index_params)


def make_tier(spec: StackSpec, partition,
              replica_policy: str = "round_robin") -> DiskIndex:
    """The unloaded :class:`~repro.sharding.ShardedIndex` of a sharded
    ``spec``, cut by ``partition``: one shard per range over its member
    spec (the tier's storage, that shard's index name, flat).  Imported
    lazily: the sharding package assembles its members here."""
    from .sharding import Shard, ShardedIndex
    names = (spec.index if isinstance(spec.index, tuple)
             else (spec.index,) * spec.shards)
    return ShardedIndex(
        [Shard(shard_id, replace(spec, index=name, shards=0, replicas=1),
               replicas=spec.replicas, replica_policy=replica_policy)
         for shard_id, name in enumerate(names)],
        partition)


def build(spec: StackSpec, bulk_items: Sequence[KeyPayload]) -> Stack:
    """Wire ``spec``'s stack and bulk load it, owning the bulk-load
    boundary of both topologies, in order: attach the active tracer
    (flat stacks only: a tier binds none yet); time the bulk load; under
    ``write_back``, flush, charging the flush to the load; set inner
    residency; arm the WAL (the bulk image is the recovery baseline).  A
    tier's shards arm their logs as their own load ends; the logs are
    still empty at the flush, so it writes the same blocks."""
    if spec.shards:
        from .sharding import RangePartition
        index = make_tier(spec, RangePartition.from_keys(
            [key for key, _ in bulk_items], spec.shards))
    else:
        index = assemble(spec)
        if _ACTIVE_TRACER is not None:
            index.attach_tracer(_ACTIVE_TRACER)
    pager = index.pager
    device = pager.device  # a tier's fan-out device sums its members' clocks
    before_us = device.elapsed_us
    index.bulk_load(bulk_items)
    if spec.write_back:
        pager.flush()
    bulkload_us = device.elapsed_us - before_us
    if spec.inner_memory_resident:
        index.set_inner_memory_resident(True)
    if spec.group_commit and not spec.shards:
        index.attach_wal(WriteAheadLog(pager, group_commit=spec.group_commit))
    return Stack(index=index, device=device, pager=pager,
                 bulkload_us=bulkload_us, wal=index.wal)
