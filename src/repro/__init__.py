"""repro — disk-resident updatable learned indexes.

A ground-up Python reproduction of *"Updatable Learned Indexes Meet
Disk-Resident DBMS — From Evaluations to Design Choices"* (Lan, Bao,
Culpepper, Borovica-Gajic; SIGMOD / PACMMOD 2023).

Quick start::

    from repro import StackSpec, build

    # One stack description: index, device, pool, WAL, shards.
    stack = build(StackSpec("alex"), [(k, k + 1) for k in range(0, 1_000_000, 10)])
    stack.index.insert(5, 6)
    assert stack.index.lookup(5) == 6
    print(stack.device.stats.reads, "blocks fetched so far")

Packages:

* :mod:`repro.stack` — :class:`StackSpec`, every knob of one stack
  (flat or sharded), and :func:`build`, the one place a stack is wired
  and bulk loaded.
* :mod:`repro.storage` — simulated block device, pager, LRU buffer pool,
  HDD/SSD latency profiles.
* :mod:`repro.models` — linear models, optimal/greedy PLA segmentation,
  FMCD.
* :mod:`repro.core` — the five on-disk indexes (B+-tree, FITing-tree,
  PGM, ALEX, LIPP) and the Table 5 hybrid designs.
* :mod:`repro.datasets` — the eleven synthetic datasets + Table 3
  profiling.
* :mod:`repro.workloads` — the six workload types and the metric runner.
* :mod:`repro.durability` — write-ahead log with group commit,
  crash-fault injection, checkpoint + WAL-replay recovery, and
  WAL-assisted self-healing repair of corrupt blocks.
* :mod:`repro.obs` — op-level tracing, latency/IO histograms, and trace
  analysis (``python -m repro.obs.analyze trace.jsonl``).
* :mod:`repro.bench` — one experiment per paper table/figure
  (``python -m repro.bench all``).
"""

from .core import (
    AlexIndex,
    BTreeIndex,
    DiskIndex,
    FitingTreeIndex,
    HybridIndex,
    LippIndex,
    PgmIndex,
    PlidIndex,
    index_names,
    load_index,
    make_index,
    save_index,
)
from .datasets import dataset_names, make_dataset, profile_dataset
from .durability import (
    FaultInjector,
    SelfHealer,
    WriteAheadLog,
    recover,
    repair_blocks,
    restore_index,
    take_checkpoint,
)
from .models import LinearModel, optimal_segments, shrinking_cone_segments
from .obs import Histogram, Tracer
from .storage import (
    HDD,
    SSD,
    BlockDevice,
    BufferPool,
    ChecksumError,
    DeviceFaultModel,
    DiskProfile,
    Pager,
    PersistentIOError,
    StorageFault,
    TransientIOError,
)
from .stack import StackSpec, build
from .workloads import WORKLOADS, build_workload, run_workload

__version__ = "1.0.0"

__all__ = [
    "AlexIndex",
    "BTreeIndex",
    "BlockDevice",
    "BufferPool",
    "ChecksumError",
    "DeviceFaultModel",
    "DiskIndex",
    "DiskProfile",
    "FaultInjector",
    "FitingTreeIndex",
    "HDD",
    "Histogram",
    "HybridIndex",
    "LinearModel",
    "LippIndex",
    "Pager",
    "PersistentIOError",
    "PgmIndex",
    "PlidIndex",
    "SSD",
    "SelfHealer",
    "StackSpec",
    "StorageFault",
    "Tracer",
    "TransientIOError",
    "WORKLOADS",
    "WriteAheadLog",
    "__version__",
    "build",
    "build_workload",
    "dataset_names",
    "index_names",
    "make_dataset",
    "load_index",
    "make_index",
    "save_index",
    "optimal_segments",
    "profile_dataset",
    "recover",
    "repair_blocks",
    "restore_index",
    "run_workload",
    "shrinking_cone_segments",
    "take_checkpoint",
]
