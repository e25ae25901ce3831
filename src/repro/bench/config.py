"""Experiment scales and shared experiment plumbing.

The paper runs 200M-key bulk loads and 10M-op workloads on real disks;
the default scale here is chosen so the *entire* table/figure suite runs
in minutes of wall-clock time while preserving every comparative result
(see DESIGN.md for the substitution argument).  Every size can be scaled
with the ``REPRO_SCALE`` environment variable or per-call overrides.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from ..core import DiskIndex, make_index
from ..datasets import REPORTED_DATASETS, dataset_names, make_dataset
from ..durability import WriteAheadLog
from ..storage import (HDD, SSD, BlockDevice, DiskProfile, Pager,
                       make_buffer_pool)
from ..workloads import WORKLOADS, build_workload, bulk_load_timed

__all__ = ["Scale", "default_scale", "IndexSetup", "fresh_index",
           "fresh_sharded_index", "PROFILES", "reported_datasets", "tracing",
           "set_active_tracer"]

PROFILES = {"hdd": HDD, "ssd": SSD}

#: When set, :func:`fresh_index` attaches this tracer to every index it
#: builds — the mechanism behind ``python -m repro.bench run X --trace``.
#: Experiments build one device per cell, so the tracer accumulates
#: totals across every device it gets bound to.
_ACTIVE_TRACER = None

def set_active_tracer(tracer) -> None:
    """Set (or clear, with None) the tracer fresh_index attaches."""
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer


@contextmanager
def tracing(tracer):
    """Attach ``tracer`` to every index built inside the block."""
    set_active_tracer(tracer)
    try:
        yield tracer
    finally:
        set_active_tracer(None)


@dataclass(frozen=True)
class Scale:
    """All experiment sizes, scaled from the paper by a constant factor.

    Paper values: 200M keys for read-only workloads (800M for the
    scalability set), 10M bulk + 10M ops for write workloads, 200K
    sampled lookups.  The default divides key counts by 1000 and op
    counts by about 20 (operations dominate Python wall-clock).
    """

    n_read: int = 200_000       # keys bulk loaded for read-only workloads
    n_write_bulk: int = 30_000  # keys bulk loaded before write workloads
    n_write_ops: int = 30_000   # operations in write / mixed workloads
    n_lookup_ops: int = 2_000   # sampled lookups (paper: 200K)
    n_scan_ops: int = 400       # scan operations (scans cost ~100x a lookup)
    scan_length: int = 100      # elements per scan (paper: 100)
    block_size: int = 4096
    seed: int = 42
    group_commit: int = 8       # WAL ops per log flush (durability experiment)

    def scaled(self, factor: float) -> "Scale":
        return replace(
            self,
            n_read=int(self.n_read * factor),
            n_write_bulk=int(self.n_write_bulk * factor),
            n_write_ops=int(self.n_write_ops * factor),
            n_lookup_ops=int(self.n_lookup_ops * factor),
            n_scan_ops=int(self.n_scan_ops * factor),
        )


def default_scale() -> Scale:
    """The default scale, honoring the ``REPRO_SCALE`` env multiplier."""
    scale = Scale()
    factor = os.environ.get("REPRO_SCALE")
    if factor:
        scale = scale.scaled(float(factor))
    return scale


def reported_datasets() -> tuple:
    """The datasets an experiment loops over unless it pins its own.

    The paper's figures report FB/OSM/YCSB and defer the remaining
    datasets to its technical report; set ``REPRO_DATASETS=all`` (or a
    comma list) to regenerate the TR-style full sweep.
    """
    override = os.environ.get("REPRO_DATASETS")
    if not override:
        return REPORTED_DATASETS
    if override.strip().lower() == "all":
        return tuple(dataset_names())
    return tuple(name.strip() for name in override.split(",") if name.strip())


@dataclass
class IndexSetup:
    """One bulk-loaded index with its device, pager and workload stream."""

    index: DiskIndex
    device: BlockDevice
    pager: Pager
    bulk_items: list
    ops: list
    bulkload_us: float
    wal: Optional[WriteAheadLog] = None


def _cell_workload(dataset: str, workload: str, scale: Scale,
                   **distribution):
    """``(bulk_items, ops)`` of one experiment cell: the workload's key
    and op counts at ``scale``, the dataset, and the stream built over it
    (``distribution``: :func:`build_workload`'s lookup-target options)."""
    spec = WORKLOADS[workload]
    if spec.bulk_all:
        n_keys = scale.n_read
        num_ops = scale.n_scan_ops if "S" in spec.round_pattern else scale.n_lookup_ops
    else:
        num_ops = scale.n_write_ops
        num_inserts = sum(
            1 for i in range(num_ops)
            if spec.round_pattern[i % len(spec.round_pattern)] == "I"
        )
        # The dataset provides the bulk-loaded keys plus the withheld
        # insert keys, so the bulk size matches the paper's setup exactly.
        n_keys = scale.n_write_bulk + num_inserts
    keys = make_dataset(dataset, n_keys, seed=scale.seed)
    return build_workload(spec, keys, num_ops, seed=scale.seed, **distribution)


def fresh_index(index_name: str, dataset: str, workload: str, scale: Scale,
                profile: DiskProfile = HDD, block_size: Optional[int] = None,
                buffer_blocks: int = 0, index_params: Optional[dict] = None,
                inner_memory_resident: bool = False,
                wal_group_commit: Optional[int] = None,
                write_back: bool = False, buffer_policy: str = "lru",
                lookup_distribution: str = "uniform",
                zipf_s: float = 0.99) -> IndexSetup:
    """Build a device + index + workload for one experiment cell.

    ``wal_group_commit`` attaches a write-ahead log (on the same device,
    as in a single-disk DBMS) after the bulk load, group-committing
    every ``wal_group_commit`` operations.  The default is no logging —
    the paper's setting.

    ``write_back`` buffers writes as dirty pool frames and flushes them
    in coalesced runs (requires ``buffer_blocks > 0``); ``buffer_policy``
    picks the pool's replacement policy.

    ``lookup_distribution`` (with ``zipf_s``) skews the workload's lookup
    and scan targets — see :data:`repro.workloads.DISTRIBUTIONS`; the
    default is the paper's uniform sampling.
    """
    bulk_items, ops = _cell_workload(
        dataset, workload, scale,
        lookup_distribution=lookup_distribution, zipf_s=zipf_s)

    device = BlockDevice(block_size or scale.block_size, profile)
    pool = (make_buffer_pool(buffer_blocks, buffer_policy)
            if buffer_blocks > 0 else None)
    pager = Pager(device, buffer_pool=pool, write_back=write_back)
    index = make_index(index_name, pager, **(index_params or {}))
    if _ACTIVE_TRACER is not None:
        # Attach before the bulk load so its I/O lands in the trace's
        # background record and the totals reconcile with device stats.
        index.attach_tracer(_ACTIVE_TRACER)
    bulkload_us = bulk_load_timed(index, bulk_items)
    if write_back:
        # Bulk load is a workload phase: its boundary flushes the dirty
        # pages, and the coalesced flush cost belongs to the bulk load.
        before_us = device.stats.elapsed_us
        pager.flush()
        bulkload_us += device.stats.elapsed_us - before_us
    if inner_memory_resident:
        index.set_inner_memory_resident(True)
    wal = None
    if wal_group_commit is not None:
        wal = WriteAheadLog(pager, group_commit=wal_group_commit)
        index.attach_wal(wal)
    return IndexSetup(index=index, device=device, pager=pager,
                      bulk_items=bulk_items, ops=ops, bulkload_us=bulkload_us,
                      wal=wal)


def fresh_sharded_index(index_names, shards: Optional[int], dataset: str,
                        workload: str, scale: Scale,
                        profile: DiskProfile = HDD,
                        block_size: Optional[int] = None,
                        buffer_blocks: int = 0, replicas: int = 1,
                        durability: bool = False,
                        wal_group_commit: Optional[int] = None,
                        lookup_distribution: str = "uniform") -> IndexSetup:
    """Build a range-partitioned :class:`repro.sharding.ShardedIndex` cell.

    Mirrors :func:`fresh_index`: same dataset, same workload stream, same
    scale — but the index is a sharded tier whose boundaries come from
    the bulk keys' quantiles, so every shard loads an equal slice.
    ``index_names`` is one registry name (uniform tier, needs ``shards``)
    or a per-shard list (divergent tier).  ``buffer_blocks`` is *per
    member*: the tier's aggregate cache grows with the shard count,
    which is the scale-out effect the ``sharding`` experiment measures.
    Replicas serve reads round-robin.
    The returned setup's ``device`` / ``pager`` / ``wal`` are the tier's
    fan-out facades, so every downstream consumer reads combined stats.
    """
    from ..core import make_sharded_index

    bulk_items, ops = _cell_workload(
        dataset, workload, scale, lookup_distribution=lookup_distribution)

    index = make_sharded_index(
        index_names, shards,
        sample_keys=[key for key, _ in bulk_items],
        replicas=replicas, durability=durability,
        group_commit=(wal_group_commit if wal_group_commit is not None
                      else scale.group_commit),
        profile=profile, block_size=block_size or scale.block_size,
        buffer_blocks=buffer_blocks)
    bulkload_us = bulk_load_timed(index, bulk_items)
    return IndexSetup(index=index, device=index.device, pager=index.pager,
                      bulk_items=bulk_items, ops=ops, bulkload_us=bulkload_us,
                      wal=index.wal)
