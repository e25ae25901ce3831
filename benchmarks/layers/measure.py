"""Run one workload: timed passes, output checks, metrics on two clocks.

Every number says which clock it is on.  ``charged_*`` / ``sim_us`` is
the simulated device clock: it comes from ``RunResult``/``StorageStats``
deltas of timed pass 1 and must repeat bit-exactly in every later pass
(a mismatch is a failed check).  ``real_*`` / ``us`` / ``s`` is host
``perf_counter`` time corrected for the host's momentary speed (see
``hostclock``): per cell the **median** pass.

Protocol.  Read-only workloads build each cell once, run one untimed
warm-up pass of the same stream, then timed passes round-robin across
cells; every pass starts with an emptied buffer pool, because what a
pass leaves in the pool depends on what it found there (coalesced span
reads insert misses out of access order) and charged stats would
otherwise repeat with period two on some seeds, not one.  Write workloads rebuild a fresh stack before every pass of every
cell; the rebuild is a ``setup_s`` sample, never part of a timed pass.
``gc.collect()`` runs before each pass and GC stays on.  Passes repeat
until ``--seconds`` of wall time has gone by (at least ``MIN_PASSES``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.durability import FaultInjector, recover, take_checkpoint
from repro.storage import make_buffer_pool
from repro.workloads import run_workload

import hostclock
import spans
from workloads import (CELL_LABELS, COMMIT_TIMEOUT_US, PROFILES, SCAN_LENGTH,
                       Cell, Inputs, Stack, Workload, build_stack, make_inputs,
                       pool_blocks)

MIN_PASSES = 3
SPAN_COLUMNS = ["id", "parent", "layer", "name", "start_ns", "end_ns"]
CHECK_KEYS = 1000        # seeded point lookups, and scan-prefix length
CRASH_AT = 0.6           # crash check: share of the op stream executed
SELF_TIME_TOLERANCE = 0.02

#: name -> (unit, better).  Order is the order metrics are printed in.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "real_ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "charged_us_per_op": ("sim_us", "lower"),
    "charged_p99_us": ("sim_us", "lower"),
    "charged_tail_mean_us": ("sim_us", "lower"),
    "blocks_per_op": ("blocks/op", "lower"),
    "bytes_per_entry": ("B/entry", "lower"),
}

_INDEX_METRICS = {
    "real_us_per_op": ("us", "lower"),
    "charged_us_per_op": ("sim_us", "lower"),
    "blocks_read_per_op": ("blocks/op", "lower"),
    "bulkload_real_s": ("s", "lower"),
    "bytes_per_entry": ("B/entry", "lower"),
    "self_us_per_op": ("us", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"index.{label}.{name}": spec
       for label in CELL_LABELS for name, spec in _INDEX_METRICS.items()},
    "device.calls_per_op": ("calls/op", "lower"),
    "device.self_us_per_op": ("us", "lower"),
    "device.real_us_per_block": ("us/block", "lower"),
    "device.positionings_per_op": ("1/op", "lower"),
    "device.coalesced_blocks_per_op": ("blocks/op", "higher"),
    "device.blocks_read_per_op": ("blocks/op", "lower"),
    "device.blocks_written_per_op": ("blocks/op", "lower"),
    "pager.calls_per_op": ("calls/op", "lower"),
    "pager.self_us_per_op": ("us", "lower"),
    "pager.flushes": ("count", "lower"),
    "pager.flushed_blocks_per_op": ("blocks/op", "lower"),
    "pager.io_retries": ("count", "lower"),
    "pool.hit_rate": ("ratio", "higher"),
    "pool.calls_per_op": ("calls/op", "lower"),
    "pool.self_us_per_op": ("us", "lower"),
    "pool.dirty_evictions_per_op": ("1/op", "lower"),
    "wal.records_per_op": ("1/op", "lower"),
    "wal.flushes_per_committed_write": ("ratio", "lower"),
    "wal.log_blocks_per_op": ("blocks/op", "lower"),
    "wal.self_us_per_op": ("us", "lower"),
    "wal.charged_us_per_op": ("sim_us", "lower"),
    "recovery.checkpoint_real_s": ("s", "lower"),
    "recovery.checkpoint_bytes": ("B", "lower"),
    "recovery.real_s": ("s", "lower"),
    "recovery.charged_us": ("sim_us", "lower"),
    "recovery.records_applied": ("count", "higher"),
    "recovery.lost_acked_writes": ("count", "lower"),
    "models.calls_per_op": ("calls/op", "lower"),
    "models.self_us_per_op": ("us", "lower"),
    "codecs.calls_per_op": ("calls/op", "lower"),
    "codecs.self_us_per_op": ("us", "lower"),
    "runner.self_us_per_op": ("us", "lower"),
    "runner.charged_p50_us": ("sim_us", "lower"),
    "runner.charged_p999_us": ("sim_us", "lower"),
    "serving.self_us_per_op": ("us", "lower"),
    "serving.overhead_ratio": ("ratio", "lower"),
    "serving.mean_commit_group": ("count", "higher"),
    "serving.latch_waits_per_op": ("1/op", "lower"),
    "serving.latch_wait_us_per_op": ("sim_us", "lower"),
    "serving.commit_wait_us_per_write": ("sim_us", "lower"),
    "serving.snapshot_suppressed_per_read": ("ratio", "lower"),
    "serving.shed_ops": ("count", "lower"),
    "serving.deadline_misses": ("count", "lower"),
    "sharding.overhead_ratio": ("ratio", "lower"),
    "sharding.router_self_us_per_op": ("us", "lower"),
    "sharding.shard_self_us_per_op": ("us", "lower"),
    "sharding.replica_writes_per_insert": ("ratio", "lower"),
    "sharding.shard_op_imbalance": ("ratio", "lower"),
    "sharding.hedged_reads": ("count", "lower"),
    "sharding.failovers": ("count", "lower"),
    "obs.tracer_overhead_ratio.btree": ("ratio", "lower"),
    "obs.tracer_overhead_ratio.alex": ("ratio", "lower"),
    "obs.tracer_overhead_ratio.lipp": ("ratio", "lower"),
    "obs.events_per_op": ("1/op", "lower"),
    "obs.export_real_s": ("s", "lower"),
    "obs.reconcile_ok": ("ratio", "higher"),
    "setup.dataset_real_s": ("s", "lower"),
    "setup.workload_build_real_s": ("s", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.host_speed": ("ratio", "higher"),
    "bench.failed_op_share": ("ratio", "lower"),
}


@dataclass
class Pass:
    """One timed run of one cell."""

    raw_ns: int               # host perf_counter_ns, as measured
    factor: float             # host-speed correction (``hostclock``)
    result: object            # repro.workloads.RunResult
    pool_hits: int
    pool_misses: int
    flushed_blocks: int

    @property
    def real_ns(self) -> float:
        return self.raw_ns * self.factor

    def signature(self) -> tuple:
        """Everything charged; must be equal across passes of one cell."""
        r = self.result
        return (r.num_ops, r.sim_elapsed_us, r.blocks_read_per_op,
                r.blocks_written_per_op, r.read_positionings,
                r.write_positionings, r.log_records, r.log_flushes,
                self.pool_hits, self.pool_misses, self.flushed_blocks,
                zlib.crc32(r.latencies_us.tobytes()))


@dataclass
class CellRun:
    """All passes and builds of one cell under one stack configuration."""

    workload: Workload
    cell: Cell
    ops: list
    stack: Optional[Stack] = None
    passes: List[Pass] = field(default_factory=list)
    build_real_s: List[float] = field(default_factory=list)
    bulkload_real_s: List[float] = field(default_factory=list)

    def median_ns(self) -> float:
        """Median corrected pass time, preferring passes timed while the
        host ran near its reference speed: the correction is exact for
        the calibration loop but off by a few percent for code with
        another instruction mix (fast state: loop 1.17x, btree 1.26x)."""
        near = [p.real_ns for p in self.passes
                if abs(p.factor - 1.0) <= hostclock.NEAR_REFERENCE]
        if len(near) >= MIN_PASSES - 1:
            return statistics.median(near)
        return statistics.median(p.real_ns for p in self.passes)


def _pool_counters(stack: Stack) -> Tuple[int, int, int]:
    hits = misses = flushed = 0
    for pager in stack.pagers():
        flushed += pager.flushed_blocks
        if pager.buffer_pool is not None:
            hits += pager.buffer_pool.hits
            misses += pager.buffer_pool.misses
    return hits, misses, flushed


def timed_pass(run: CellRun, fault_injector: Optional[FaultInjector] = None,
               recorder: Optional[spans.SpanRecorder] = None) -> Pass:
    """One pass of the cell's op stream; every lookup is checked (k -> k+1)."""
    workload, stack = run.workload, run.stack
    if workload.read_only:
        for pager in stack.pagers():
            if pager.buffer_pool is not None:
                pager.buffer_pool.clear()
    gc.collect()
    hits, misses, flushed = _pool_counters(stack)

    def call():
        return run_workload(
            stack.index, run.ops, workload=workload.name,
            scan_length=SCAN_LENGTH, keep_latencies=True, validate=True,
            fault_injector=fault_injector, batch=workload.batch,
            clients=workload.clients, commit_timeout_us=COMMIT_TIMEOUT_US)

    with hostclock.timed() as region:
        if recorder is None:
            result = call()
        else:
            with recorder.root("runner", "run_workload"):
                result = call()
    hits2, misses2, flushed2 = _pool_counters(stack)
    return Pass(raw_ns=region.raw_ns, factor=region.factor, result=result,
                pool_hits=hits2 - hits, pool_misses=misses2 - misses,
                flushed_blocks=flushed2 - flushed)


def rebuild(run: CellRun, inputs: Inputs, scale: float) -> None:
    run.stack = None    # free the old stack before the new one is built
    with hostclock.timed() as region:
        run.stack = build_stack(run.workload, run.cell, inputs, scale)
    run.build_real_s.append(run.stack.build_real_s * region.factor)
    run.bulkload_real_s.append(run.stack.bulkload_real_s * region.factor)


class Checks:
    """Counts what was attempted and what failed; collects the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, what: str, attempted: int = 1,
               failed: Optional[int] = None) -> None:
        self.attempted += attempted
        if not ok:
            self.failed += attempted if failed is None else failed
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def oracle_keys(inputs: Inputs, ops: list) -> List[int]:
    """Sorted keys the index must hold after ``ops``: the benchmark's own
    record (bulk keys plus the stream's inserts), not the program's."""
    keys = [key for key, _ in inputs.bulk_items]
    keys.extend(key for kind, key in ops if kind == "insert")
    keys.sort()
    return keys


def check_contents(run: CellRun, inputs: Inputs, seed: int,
                   checks: Checks) -> None:
    """verify() count, seeded point lookups, and a scan prefix vs the oracle."""
    index = run.stack.index
    where = f"{run.workload.name}/{run.cell.label}"
    expected = oracle_keys(inputs, run.ops)
    count = index.verify()
    checks.expect(count == len(expected),
                  f"{where}: verify() counted {count}, oracle holds {len(expected)}")
    rng = random.Random(seed)
    probe = rng.sample(expected, min(CHECK_KEYS, len(expected)))
    wrong = sum(1 for key in probe if index.lookup(key) != key + 1)
    checks.expect(wrong == 0, f"{where}: {wrong} of {len(probe)} lookups wrong",
                  attempted=len(probe), failed=wrong)
    prefix = [(key, key + 1) for key in expected[:CHECK_KEYS]]
    checks.expect(index.scan(expected[0], len(prefix)) == prefix,
                  f"{where}: scan prefix differs from the sorted oracle")


def check_tracer(run: CellRun, scratch_dir: str,
                 checks: Checks) -> Tuple[float, bool]:
    """Export the product trace and reconcile it with StorageStats;
    returns the export's host seconds and whether the totals agree."""
    stack = run.stack
    tracer = stack.tracer
    with hostclock.timed() as region:
        tracer.export_jsonl(os.path.join(scratch_dir, "product-trace.jsonl"))
    stats = stack.device.stats
    totals = tracer.totals()
    nonzero = lambda d: {k: v for k, v in d.items() if v}
    ok = (nonzero(totals["us"]) == nonzero(stats.time_by_phase)
          and nonzero(totals["reads"]) == nonzero(stats.reads_by_phase)
          and nonzero(totals["writes"]) == nonzero(stats.writes_by_phase))
    checks.expect(ok, f"{run.workload.name}/{run.cell.label}: tracer totals "
                      f"do not reconcile with StorageStats")
    return region.seconds, ok


@dataclass
class CrashOutcome:
    checkpoint_real_s: float
    checkpoint_bytes: int
    recover_real_s: float
    recovery_charged_us: float
    records_applied: int
    acked_writes: int
    lost_acked_writes: int


def crash_check(workload: Workload, cell: Cell, inputs: Inputs, scale: float,
                tamper: Optional[Callable[[object], None]] = None) -> CrashOutcome:
    """Checkpoint, crash at 60% with a torn log tail, recover, audit.

    The benchmark keeps its own record of which writes were acknowledged:
    the WAL's flush hook reports each group commit's size, and the crash
    tears the block of the last one (the flush in flight), so every
    record of the earlier flushes was durable at the crash and must read
    back from the recovered index.  ``tamper(wal)`` runs between crash
    and recovery; the self-tests use it to show the audit can fail.
    """
    run = CellRun(workload, cell, inputs.ops[cell.label])
    rebuild(run, inputs, scale)
    stack = run.stack
    flush_sizes: List[int] = []
    stack.wal.on_flush = lambda records, blocks: flush_sizes.append(records)
    with hostclock.timed() as checkpointing:
        checkpoint = take_checkpoint(stack.index, stack.wal)
    crash_at = int(len(run.ops) * CRASH_AT)
    timed_pass(run, fault_injector=FaultInjector(crash_at_op=crash_at,
                                                 torn_tail=True))
    acked = sum(flush_sizes[:-1])
    if tamper is not None:
        tamper(stack.wal)
    pool_frames = pool_blocks(workload, scale)
    with hostclock.timed() as recovering:
        recovered = recover(
            checkpoint, stack.wal, profile=PROFILES[workload.profile],
            pager_kwargs={"buffer_pool": make_buffer_pool(pool_frames, "lru"),
                          "write_back": workload.write_back})
    written = [key for kind, key in run.ops[:crash_at] if kind == "insert"]
    lost = sum(1 for key in written[:acked]
               if recovered.index.lookup(key) != key + 1)
    return CrashOutcome(
        checkpoint_real_s=checkpointing.seconds,
        checkpoint_bytes=checkpoint.size_bytes,
        recover_real_s=recovering.seconds, recovery_charged_us=recovered.recovery_us,
        records_applied=recovered.records_applied, acked_writes=acked,
        lost_acked_writes=lost)


def _percentile(latencies: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies, q))


def tail_mean(latencies: np.ndarray) -> float:
    """Mean charged latency of the slowest 0.5% of operations.

    A high percentile sits on one of a few discrete block counts and
    jumps between them from seed to seed (p99.9: by up to 19%); the mean
    of the samples beyond p99.5 moves by under 5%.  Every workload has at
    least thirty such samples at the benchmark's scale.
    """
    beyond = max(1, len(latencies) // 200)
    return float(np.sort(latencies)[-beyond:].mean())


def measure(workload: Workload, seed: int, scale: float, seconds: float,
            trace: bool, results_dir: str) -> dict:
    """Run one workload and return ``{correct, attempted, failed, metrics}``.

    Untraced (``trace=False``) the metrics are the end-to-end set, taken
    with nothing attached by the benchmark.  Traced, the timed passes get
    half the time budget (interleaved with the ratio baselines), then one
    more pass runs under the span recorder, and the metrics are the
    per-layer set.
    """
    checks = Checks()
    os.makedirs(results_dir, exist_ok=True)
    with hostclock.timed() as region:
        inputs = make_inputs(workload, seed, scale)
    inputs.dataset_real_s *= region.factor
    inputs.workload_build_real_s *= region.factor
    runs = [CellRun(workload, cell, inputs.ops[cell.label])
            for cell in workload.cells]
    baselines: Dict[str, CellRun] = {}
    if trace and workload.baseline is not None:
        for label, _metric in workload.baseline.metrics:
            cell = next(c for c in workload.cells if c.label == label)
            baselines[label] = CellRun(workload.baseline.workload, cell,
                                       inputs.ops[label])
    # Each measured cell is followed by its baseline, so slow drift of
    # the host hits both sides of a ratio alike.
    order: List[CellRun] = []
    for run in runs:
        order.append(run)
        if run.cell.label in baselines:
            order.append(baselines[run.cell.label])

    if workload.read_only:
        for run in order:
            rebuild(run, inputs, scale)
        for run in order:
            timed_pass(run)     # untimed warm-up: lazy set-up, decode caches
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for run in order:
            if not workload.read_only:
                rebuild(run, inputs, scale)
            run.passes.append(timed_pass(run))
        passes += 1

    for run in runs:
        first = run.passes[0].signature()
        same = all(p.signature() == first for p in run.passes[1:])
        checks.expect(same, f"{workload.name}/{run.cell.label}: charged "
                            f"stats differ between passes",
                      attempted=len(run.ops) * len(run.passes), failed=0)
        checks.expect(run.passes[0].result.shed_ops == 0,
                      f"{workload.name}/{run.cell.label}: ops were shed",
                      attempted=0, failed=run.passes[0].result.shed_ops)

    traced: Dict[str, Tuple[Pass, spans.Totals]] = {}
    sampled: List[dict] = []
    if trace:
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            for run in runs:
                if not workload.read_only:
                    with recorder.recording():
                        rebuild(run, inputs, scale)
                traced_pass = timed_pass(run, recorder=recorder)
                totals, cell_spans = recorder.drain()
                traced[run.cell.label] = (traced_pass, totals)
                for span in cell_spans:
                    span["cell"] = run.cell.label
                sampled.extend(cell_spans)
                checks.expect(
                    traced_pass.signature() == run.passes[0].signature(),
                    f"{workload.name}/{run.cell.label}: span recording "
                    f"changed the charged stats")
        finally:
            recorder.uninstall()

    for run in runs:
        check_contents(run, inputs, seed, checks)
    exports: List[Tuple[float, bool]] = []
    if workload.product_tracer:
        with tempfile.TemporaryDirectory(dir=results_dir) as scratch:
            exports = [check_tracer(run, scratch, checks) for run in runs]
    crashes: List[CrashOutcome] = []
    if workload.crash_check:
        for run in runs:
            run.stack = None
        for cell in workload.cells:
            outcome = crash_check(workload, cell, inputs, scale)
            crashes.append(outcome)
            checks.expect(
                outcome.lost_acked_writes == 0,
                f"{workload.name}/{cell.label}: {outcome.lost_acked_writes} "
                f"acknowledged writes lost after crash+recover",
                attempted=outcome.acked_writes, failed=outcome.lost_acked_writes)

    if trace:
        metrics = per_layer_metrics(workload, inputs, runs, baselines, traced,
                                    crashes, exports, checks)
        write_trace(results_dir, workload, seed, scale, traced, sampled)
    else:
        metrics = end_to_end_metrics(inputs, runs)
    return {"correct": checks.correct, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics,
            "problems": checks.problems, "passes": passes}


def _entries(inputs: Inputs, run: CellRun) -> int:
    return len(inputs.bulk_items) + sum(1 for kind, _ in run.ops if kind == "insert")


def end_to_end_metrics(inputs: Inputs,
                       runs: List[CellRun]) -> Dict[str, float]:
    ops = sum(len(run.ops) for run in runs)
    firsts = [run.passes[0].result for run in runs]
    latencies = np.concatenate([r.latencies_us for r in firsts])
    blocks = sum((r.blocks_read_per_op + r.blocks_written_per_op) * r.num_ops
                 for r in firsts)
    return {
        "setup_s": (inputs.dataset_real_s + inputs.workload_build_real_s
                    + sum(statistics.median(run.build_real_s) for run in runs)),
        "real_ops_per_s": ops / (sum(run.median_ns() for run in runs) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "charged_us_per_op": sum(r.sim_elapsed_us for r in firsts) / ops,
        "charged_p99_us": _percentile(latencies, 99),
        "charged_tail_mean_us": tail_mean(latencies),
        "blocks_per_op": blocks / ops,
        "bytes_per_entry": (sum(r.allocated_bytes for r in firsts)
                            / sum(_entries(inputs, run) for run in runs)),
    }


def per_layer_metrics(workload: Workload, inputs: Inputs, runs: List[CellRun],
                      baselines: Dict[str, CellRun],
                      traced: Dict[str, Tuple[Pass, spans.Totals]],
                      crashes: List[CrashOutcome],
                      exports: List[Tuple[float, bool]],
                      checks: Checks) -> Dict[str, float]:
    m = dict.fromkeys(PER_LAYER, 0.0)
    ops = sum(len(run.ops) for run in runs)
    firsts = [run.passes[0] for run in runs]
    results = [p.result for p in firsts]
    total = lambda f: sum(f(r) for r in results)
    # span self times are host time: apply each traced pass's correction
    span_totals = {label: {key: [calls, self_ns * p.factor]
                           for key, (calls, self_ns) in totals.items()}
                   for label, (p, totals) in traced.items()}

    # -- per cell ----------------------------------------------------------
    for run in runs:
        label, n = run.cell.label, len(run.ops)
        r = run.passes[0].result
        layers = spans.run_layers(span_totals[label])
        m[f"index.{label}.real_us_per_op"] = run.median_ns() / 1e3 / n
        m[f"index.{label}.charged_us_per_op"] = r.sim_elapsed_us / n
        m[f"index.{label}.blocks_read_per_op"] = r.blocks_read_per_op
        m[f"index.{label}.bulkload_real_s"] = statistics.median(run.bulkload_real_s)
        m[f"index.{label}.bytes_per_entry"] = r.allocated_bytes / _entries(inputs, run)
        m[f"index.{label}.self_us_per_op"] = layers.get("index", [0, 0])[1] / 1e3 / n

    # -- span-recorder layers (the traced pass) -----------------------------
    merged: spans.Totals = {}
    for totals in span_totals.values():
        for key, (calls, self_ns) in totals.items():
            acc = merged.setdefault(key, [0, 0])
            acc[0] += calls
            acc[1] += self_ns
    layers = spans.run_layers(merged)
    traced_ns = sum(p.real_ns for p, _ in traced.values())
    self_ns = sum(v[1] for v in layers.values())
    checks.expect(
        abs(self_ns - traced_ns) <= SELF_TIME_TOLERANCE * traced_ns,
        f"{workload.name}: layer self times sum to {self_ns:.0f} ns, the "
        f"traced passes took {traced_ns:.0f} ns")
    for layer in ("device", "pager", "pool", "wal", "models", "codecs",
                  "runner", "serving"):
        calls, layer_ns = layers.get(layer, (0, 0))
        m[f"{layer}.self_us_per_op"] = layer_ns / 1e3 / ops
        if f"{layer}.calls_per_op" in m:
            m[f"{layer}.calls_per_op"] = calls / ops
    traced_blocks = sum((p.result.blocks_read_per_op + p.result.blocks_written_per_op)
                        * p.result.num_ops for p, _ in traced.values())
    if traced_blocks:
        m["device.real_us_per_block"] = layers.get("device", [0, 0])[1] / 1e3 / traced_blocks
    m["sharding.router_self_us_per_op"] = spans.run_self_ns(
        merged, "sharding", ("ShardedIndex.", "Router.", "combine_stats")) / 1e3 / ops
    m["sharding.shard_self_us_per_op"] = spans.run_self_ns(
        merged, "sharding", ("Shard.",)) / 1e3 / ops
    m["bench.trace_overhead_ratio"] = traced_ns / sum(run.median_ns() for run in runs)

    # -- public counters (timed pass 1, nothing attached) -------------------
    m["device.positionings_per_op"] = total(
        lambda r: r.read_positionings + r.write_positionings) / ops
    m["device.coalesced_blocks_per_op"] = total(lambda r: r.coalesced_blocks) / ops
    m["device.blocks_read_per_op"] = total(lambda r: r.blocks_read_per_op * r.num_ops) / ops
    m["device.blocks_written_per_op"] = total(lambda r: r.blocks_written_per_op * r.num_ops) / ops
    m["pager.flushes"] = total(lambda r: r.flushes)
    m["pager.flushed_blocks_per_op"] = sum(p.flushed_blocks for p in firsts) / ops
    m["pager.io_retries"] = total(lambda r: r.io_retries)
    probes = sum(p.pool_hits + p.pool_misses for p in firsts)
    if probes:
        m["pool.hit_rate"] = sum(p.pool_hits for p in firsts) / probes
    m["pool.dirty_evictions_per_op"] = total(lambda r: r.dirty_evictions) / ops
    m["wal.records_per_op"] = total(lambda r: r.log_records) / ops
    writes = total(lambda r: r.committed_writes or r.log_records)
    if writes:
        m["wal.flushes_per_committed_write"] = total(lambda r: r.log_flushes) / writes
    m["wal.log_blocks_per_op"] = total(lambda r: r.log_blocks_written) / ops
    m["wal.charged_us_per_op"] = total(lambda r: r.time_by_phase_us.get("log", 0.0)) / ops
    latencies = np.concatenate([r.latencies_us for r in results])
    m["runner.charged_p50_us"] = _percentile(latencies, 50)
    m["runner.charged_p999_us"] = _percentile(latencies, 99.9)

    if workload.clients > 1:
        m["serving.mean_commit_group"] = statistics.mean(
            r.mean_commit_group for r in results)
        m["serving.latch_waits_per_op"] = total(lambda r: r.latch_waits) / ops
        m["serving.latch_wait_us_per_op"] = total(lambda r: r.latch_wait_us) / ops
        committed = total(lambda r: r.committed_writes)
        if committed:
            m["serving.commit_wait_us_per_write"] = total(lambda r: r.commit_wait_us) / committed
        reads = total(lambda r: r.snapshot_reads)
        if reads:
            m["serving.snapshot_suppressed_per_read"] = total(
                lambda r: r.snapshot_suppressed) / reads
        m["serving.shed_ops"] = total(lambda r: r.shed_ops)
        m["serving.deadline_misses"] = total(lambda r: r.deadline_misses)
    if workload.shards:
        shards = [s for r in results for s in r.per_shard.values()]
        inserts = sum(s["ops"].get("insert", 0) for s in shards)
        if inserts:
            m["sharding.replica_writes_per_insert"] = sum(
                s["shipped_records"] for s in shards) / inserts
        per_shard_ops = [sum(s["ops"].values()) for s in shards]
        m["sharding.shard_op_imbalance"] = max(per_shard_ops) / statistics.mean(per_shard_ops)
        m["sharding.hedged_reads"] = total(lambda r: r.hedged_reads)
        m["sharding.failovers"] = total(lambda r: r.failovers)

    # -- ratios against the interleaved baselines ---------------------------
    if workload.baseline is not None:
        by_label = {run.cell.label: run for run in runs}
        for label, metric in workload.baseline.metrics:
            m[metric] = by_label[label].median_ns() / baselines[label].median_ns()

    if workload.product_tracer:
        events = sum(len(run.stack.tracer.events) + run.stack.tracer.dropped_ops
                     for run in runs)
        m["obs.events_per_op"] = events / ops
        m["obs.export_real_s"] = sum(seconds for seconds, _ok in exports)
        m["obs.reconcile_ok"] = float(all(ok for _seconds, ok in exports))

    if crashes:
        m["recovery.checkpoint_real_s"] = sum(c.checkpoint_real_s for c in crashes)
        m["recovery.checkpoint_bytes"] = sum(c.checkpoint_bytes for c in crashes)
        m["recovery.real_s"] = sum(c.recover_real_s for c in crashes)
        m["recovery.charged_us"] = sum(c.recovery_charged_us for c in crashes)
        m["recovery.records_applied"] = sum(c.records_applied for c in crashes)
        m["recovery.lost_acked_writes"] = sum(c.lost_acked_writes for c in crashes)

    m["setup.dataset_real_s"] = inputs.dataset_real_s
    m["setup.workload_build_real_s"] = inputs.workload_build_real_s
    m["bench.failed_op_share"] = checks.failed / max(checks.attempted, 1)
    m["bench.host_speed"] = statistics.median(
        1 / p.factor for run in runs for p in run.passes)
    return m


def write_trace(results_dir: str, workload: Workload, seed: int, scale: float,
                traced: Dict[str, Tuple[Pass, spans.Totals]],
                sampled: List[dict]) -> str:
    """One header line, one line per accumulator, one per sampled operation
    (its span tree as ``SPAN_COLUMNS`` rows, times relative to ``t0_ns``)."""
    path = os.path.join(results_dir, f"trace-{workload.name}.jsonl")
    compact = {"separators": (",", ":")}
    with open(path, "w") as out:
        out.write(json.dumps({
            "type": "header", "workload": workload.name, "seed": seed,
            "scale": scale, "sample_every": spans.SAMPLE_EVERY,
            "clock": "perf_counter_ns, uncorrected",
            "cells": {label: {"ops": p.result.num_ops, "raw_ns": p.raw_ns,
                              "host_speed_factor": p.factor}
                      for label, (p, _) in traced.items()}}) + "\n")
        for label, (_pass, totals) in traced.items():
            for (layer, name, scope), (calls, self_ns) in sorted(totals.items()):
                out.write(json.dumps({
                    "type": "total", "cell": label, "layer": layer,
                    "name": name, "scope": scope, "calls": calls,
                    "self_ns": self_ns}, **compact) + "\n")
        trees: Dict[Tuple[str, int], List[dict]] = {}
        for span in sampled:
            trees.setdefault((span["cell"], span["op"]), []).append(span)
        for (label, op), tree in trees.items():
            t0 = min(span["start_ns"] for span in tree)
            out.write(json.dumps({
                "type": "op", "cell": label, "op": op, "kind": tree[0]["kind"],
                "t0_ns": t0, "columns": SPAN_COLUMNS,
                "spans": [[span["id"], span["parent"], span["layer"],
                           span["name"], span["start_ns"] - t0,
                           span["end_ns"] - t0] for span in tree]},
                **compact) + "\n")
    return path
