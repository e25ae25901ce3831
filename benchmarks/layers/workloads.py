"""The `layers` workload table and the stacks it runs on.

A workload is a fixed table of *cells* (index x codec) with fixed
per-cell op counts.  Nothing here adapts at run time: ``--scale``
multiplies every size below and is recorded with the results, so two
runs at one scale execute the same operations and charge the same
simulated device time.

Stacks are assembled from the library's public pieces (device, pool,
pager, index, WAL, tier) in the order ``repro.bench.fresh_index`` uses,
but from one dataset and one op stream generated once per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import make_index, make_sharded_index
from repro.datasets import make_dataset
from repro.durability import WriteAheadLog
from repro.obs import Tracer
from repro.storage import HDD, SSD, BlockDevice, Pager, make_buffer_pool
from repro.workloads import WORKLOADS as OP_MIXES
from repro.workloads import build_workload

BLOCK_SIZE = 4096
SCAN_LENGTH = 100
GROUP_COMMIT = 8
COMMIT_TIMEOUT_US = 10_000.0
PROFILES = {"ssd": SSD, "hdd": HDD}


@dataclass(frozen=True)
class Cell:
    """One index x codec combination and its op count per pass."""

    label: str      # the <cell> part of ``index.<cell>.*`` metric names
    index: str      # registry name for ``make_index``
    ops: int        # operations per pass at ``--scale 1.0``
    codec: str = "raw"


@dataclass(frozen=True)
class Baseline:
    """The same cells on a smaller stack, timed only for a real-clock ratio.

    ``metrics`` maps a cell label to the per-layer metric that reports
    (this workload's real us/op) / (the baseline's real us/op).
    """

    workload: "Workload"
    metrics: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    profile: str
    op_mix: str               # a ``repro.workloads.WORKLOADS`` key
    keys: int                 # keys bulk loaded at ``--scale 1.0``
    cells: Tuple[Cell, ...]
    pool_blocks: int = 0      # 0 = no buffer pool
    write_back: bool = False
    group_commit: int = 0     # 0 = no WAL
    batch: int = 1
    clients: int = 1          # > 1 runs through the serving engine
    shards: int = 0           # 0 = one flat index
    replicas: int = 1
    product_tracer: bool = False
    crash_check: bool = False
    baseline: Optional[Baseline] = None

    @property
    def read_only(self) -> bool:
        return not OP_MIXES[self.op_mix].has_writes


_RAW7 = ("btree", "fiting", "pgm", "alex", "lipp", "plid", "hybrid-pgm")

# Datasets: only ycsb, wise and stack are used.  On the heavy-tailed ones
# the paper reports (fb, osm, and most others) plid, pgm and hybrid-pgm
# return None for 0.01-0.7% of bulk-loaded keys (README, known gaps), and
# a benchmark workload must be one on which no operation fails.  wise
# (gamma-distributed gaps) is the hardest clean one: LIPP bloats to
# ~1.1 KB/entry on it as it does on fb.


def _cells(names: Sequence[str], ops: int, codec: str = "raw",
           **overrides: int) -> Tuple[Cell, ...]:
    suffix = "" if codec == "raw" else f"-{codec}"
    return tuple(Cell(name + suffix, name, overrides.get(name, ops), codec)
                 for name in names)


LOOKUP_COLD = Workload(
    name="lookup_cold",
    why=("paper Fig. 3/4 setting: no cache, one lookup at a time; index "
         "search, pager and device do all the work, pool/WAL/serving none"),
    dataset="wise", profile="ssd", op_mix="lookup_only", keys=200_000,
    cells=_cells(_RAW7, 6000))

LOOKUP_BATCH_POOLED = Workload(
    name="lookup_batch_pooled",
    why=("batch=64 lookup_many over an LRU pool a third of the leaf file; "
         "vectorized path, pool hits and codec decode work here and "
         "nowhere in lookup_cold"),
    dataset="ycsb", profile="ssd", op_mix="lookup_only", keys=200_000,
    pool_blocks=256, batch=64,
    cells=(_cells(("btree", "pgm", "alex", "hybrid-pgm"), 16000)
           + _cells(("btree", "pgm", "hybrid-pgm"), 8000, codec="for")
           + _cells(("pgm",), 2000, codec="delta")))

SCAN_COLD = Workload(
    name="scan_cold",
    why=("100-entry scans on the HDD profile with no cache; leaf-chain "
         "code lookups never touch, where positioning vs sequential "
         "cost matters"),
    dataset="wise", profile="hdd", op_mix="scan_only", keys=200_000,
    cells=_cells(_RAW7, 3200, lipp=1000))

BALANCED_DURABLE = Workload(
    name="balanced_durable",
    why=("paper balanced mix (10 inserts / 10 lookups) over a write-back "
         "pool that holds the index, WAL group commit 8, crash+recover "
         "check; the write side of the index/pager/pool code"),
    dataset="ycsb", profile="ssd", op_mix="balanced", keys=100_000,
    pool_blocks=1024, write_back=True, group_commit=GROUP_COMMIT,
    crash_check=True,
    cells=_cells(("btree", "fiting", "pgm", "alex", "lipp", "plid"), 6000))

SERVING_8C = replace(
    BALANCED_DURABLE,
    name="serving_8c",
    why=("balanced_durable's stack and op stream through the serving "
         "engine with 8 virtual clients; isolates latching, snapshot "
         "reads and cross-client group commit by subtraction"),
    clients=8, crash_check=False,
    cells=_cells(("btree", "pgm", "alex", "lipp"), 6000),
    baseline=Baseline(BALANCED_DURABLE,
                      (("btree", "serving.overhead_ratio"),)))

TIER_4X2 = replace(
    SERVING_8C,
    name="tier_4x2",
    why=("the same stream through 4 shards x 2 replicas, durable, 8 "
         "clients; router, shard, replication and fan-out facades on top "
         "of serving_8c"),
    pool_blocks=128, shards=4, replicas=2,
    cells=_cells(("btree", "alex"), 12000),
    baseline=Baseline(replace(SERVING_8C, baseline=None),
                      (("btree", "sharding.overhead_ratio"),)))

_UNTRACED_BALANCED = Workload(
    name="untraced_balanced", why="ratio baseline for traced_balanced",
    dataset="ycsb", profile="ssd", op_mix="balanced", keys=100_000,
    cells=_cells(("btree", "alex", "lipp"), 8000))

TRACED_BALANCED = replace(
    _UNTRACED_BALANCED,
    name="traced_balanced",
    why=("balanced mix, flat, no pool or WAL, with the product tracer "
         "attached and exported; the tracer is a layer that --trace "
         "users pay for"),
    product_tracer=True,
    baseline=Baseline(_UNTRACED_BALANCED,
                      tuple((label, f"obs.tracer_overhead_ratio.{label}")
                            for label in ("btree", "alex", "lipp"))))

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (LOOKUP_COLD, LOOKUP_BATCH_POOLED, SCAN_COLD,
                        BALANCED_DURABLE, SERVING_8C, TIER_4X2,
                        TRACED_BALANCED)}

#: every <cell> label that appears in an ``index.<cell>.*`` metric name
CELL_LABELS: Tuple[str, ...] = tuple(dict.fromkeys(
    cell.label for w in WORKLOADS.values() for cell in w.cells))


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(count * scale))


def pool_blocks(workload: Workload, scale: float) -> int:
    """Pool frames scale with the data so the pool-to-data ratio holds."""
    if workload.pool_blocks == 0:
        return 0
    return scaled(workload.pool_blocks, scale, 4)


@dataclass
class Inputs:
    """Everything generated from ``--seed`` for one workload."""

    bulk_items: List[Tuple[int, int]]
    ops: Dict[str, list]            # cell label -> its op stream
    dataset_real_s: float
    workload_build_real_s: float


def make_inputs(workload: Workload, seed: int, scale: float) -> Inputs:
    """Generate the dataset and one op stream; cells take prefixes of it.

    ``build_workload`` draws lookup keys sequentially from one seeded
    RNG, so a shorter read-only stream is a prefix of a longer one.
    Write workloads withhold their insert keys from the bulk load, so
    every cell of one must (and does) share one op count.
    """
    mix = OP_MIXES[workload.op_mix]
    counts = {cell.label: scaled(cell.ops, scale, 20) for cell in workload.cells}
    longest = max(counts.values())
    n_bulk = scaled(workload.keys, scale, 400)
    if mix.has_writes:
        if len(set(counts.values())) != 1:
            raise ValueError(f"{workload.name}: write cells must share one op count")
        pattern = mix.round_pattern
        inserts = sum(1 for i in range(longest) if pattern[i % len(pattern)] == "I")
        n_keys = n_bulk + inserts
    else:
        n_keys = n_bulk
    started = time.perf_counter()
    keys = make_dataset(workload.dataset, n_keys, seed=seed)
    dataset_s = time.perf_counter() - started
    started = time.perf_counter()
    bulk_items, ops = build_workload(mix, keys, longest, seed=seed)
    build_s = time.perf_counter() - started
    return Inputs(bulk_items=bulk_items,
                  ops={label: ops[:count] for label, count in counts.items()},
                  dataset_real_s=dataset_s, workload_build_real_s=build_s)


@dataclass
class Stack:
    """One bulk-loaded cell: the index and the layers under it."""

    index: object
    device: object
    pager: object
    wal: object
    tracer: Optional[Tracer]
    build_real_s: float       # whole stack: construct + bulk load + attach
    bulkload_real_s: float    # ``index.bulk_load`` alone

    def pagers(self) -> list:
        """The real pagers (a tier's ``pager`` is a fan-out facade)."""
        shards = getattr(self.index, "shards", None)
        if shards is None:
            return [self.pager]
        return [member.pager for shard in shards for member in shard.members()]


def build_stack(workload: Workload, cell: Cell, inputs: Inputs,
                scale: float) -> Stack:
    """Construct, bulk load and wire one cell's stack, timing it."""
    profile = PROFILES[workload.profile]
    pool_frames = pool_blocks(workload, scale)
    params = {} if cell.codec == "raw" else {"codec": cell.codec}
    started = time.perf_counter()
    if workload.shards:
        index = make_sharded_index(
            cell.index, workload.shards,
            sample_keys=[key for key, _ in inputs.bulk_items],
            replicas=workload.replicas, replica_policy="round_robin",
            durability=workload.group_commit > 0,
            group_commit=workload.group_commit or 1,
            profile=profile, block_size=BLOCK_SIZE,
            buffer_blocks=pool_frames, write_back=workload.write_back,
            index_params=params)
        load_started = time.perf_counter()
        index.bulk_load(inputs.bulk_items)
        bulkload_s = time.perf_counter() - load_started
        return Stack(index=index, device=index.device, pager=index.pager,
                     wal=index.wal, tracer=None,
                     build_real_s=time.perf_counter() - started,
                     bulkload_real_s=bulkload_s)
    device = BlockDevice(BLOCK_SIZE, profile)
    pool = make_buffer_pool(pool_frames, "lru") if pool_frames else None
    pager = Pager(device, buffer_pool=pool, write_back=workload.write_back)
    index = make_index(cell.index, pager, **params)
    tracer = None
    if workload.product_tracer:
        # Before the bulk load, so its I/O lands in the trace's background
        # record and the totals reconcile with the device's StorageStats.
        tracer = Tracer()
        index.attach_tracer(tracer)
    load_started = time.perf_counter()
    index.bulk_load(inputs.bulk_items)
    bulkload_s = time.perf_counter() - load_started
    if workload.write_back:
        pager.flush()
    wal = None
    if workload.group_commit:
        wal = WriteAheadLog(pager, group_commit=workload.group_commit)
        index.attach_wal(wal)
    return Stack(index=index, device=device, pager=pager, wal=wal,
                 tracer=tracer, build_real_s=time.perf_counter() - started,
                 bulkload_real_s=bulkload_s)
