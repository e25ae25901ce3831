"""Experiment scales and shared experiment plumbing.

The paper runs 200M-key bulk loads and 10M-op workloads on real disks;
the default scale here is chosen so the *entire* table/figure suite runs
in minutes of wall-clock time while preserving every comparative result
(see DESIGN.md for the substitution argument).  Every size can be scaled
with the ``REPRO_SCALE`` environment variable or per-call overrides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from ..datasets import REPORTED_DATASETS, dataset_names, make_dataset
from ..stack import Stack, StackSpec, build, tracing
from ..storage import HDD, SSD
from ..workloads import WORKLOADS, build_workload

__all__ = ["Scale", "default_scale", "IndexSetup", "fresh_index",
           "PROFILES", "reported_datasets", "tracing"]

PROFILES = {"hdd": HDD, "ssd": SSD}


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
class IndexSetup(Stack):
    """One experiment cell: a bulk-loaded :class:`~repro.stack.Stack`
    plus the bulk items and the op stream it runs."""

    bulk_items: list = field(default_factory=list)
    ops: list = field(default_factory=list)


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


def fresh_index(spec: StackSpec, dataset: str, workload: str, scale: Scale,
                lookup_distribution: str = "uniform",
                zipf_s: float = 0.99) -> IndexSetup:
    """Build the stack ``spec`` describes for one experiment cell, bulk
    loaded with ``dataset``'s keys for ``workload`` at ``scale``.

    ``lookup_distribution`` (with ``zipf_s``) skews the workload's lookup
    and scan targets — see :data:`repro.workloads.DISTRIBUTIONS`; the
    default is the paper's uniform sampling.
    """
    bulk_items, ops = _cell_workload(
        dataset, workload, scale,
        lookup_distribution=lookup_distribution, zipf_s=zipf_s)
    stack = build(spec, bulk_items)
    return IndexSetup(**vars(stack), bulk_items=bulk_items, ops=ops)
