"""Workload execution and metric collection.

Runs an operation stream against a :class:`~repro.core.DiskIndex` and
collects every metric the paper reports:

* throughput (operations per simulated second) and average latency;
* tail latency — p50 / p99 / standard deviation (Figure 12);
* average fetched blocks per operation, split into inner and leaf
  components via the index's ``file_roles()`` (Table 4 / Figure 4);
* per-phase I/O time — search / insert / SMO / maintenance (Figure 6);
* bulk-load time and on-disk storage usage (Figures 7 and 10);
* write-ahead-log traffic and group-commit accounting when the index has
  a WAL attached, plus crash/recovery bookkeeping when a
  :class:`~repro.durability.FaultInjector` kills the run mid-stream.

Per-op detail beyond these is the trace: an attached
:class:`~repro.obs.Tracer` records one event per op, and attaching it
changes no field of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import DiskIndex
from ..durability.faults import CrashError, FaultInjector
from ..storage import StorageFault
from .spec import Operation

__all__ = ["RunResult", "run_workload"]

#: Per-operation cap on heal-and-retry rounds: a device corrupting one
#: operation's blocks faster than they can be repaired surfaces the fault
#: instead of spinning.
_MAX_HEAL_ATTEMPTS = 5


@dataclass
class RunResult:
    """All metrics of one workload execution."""

    workload: str
    index_name: str
    num_ops: int
    sim_elapsed_us: float
    throughput_ops_per_s: float
    mean_latency_us: float
    p50_latency_us: float
    p99_latency_us: float
    std_latency_us: float
    blocks_read_per_op: float
    blocks_written_per_op: float
    inner_blocks_per_op: float
    leaf_blocks_per_op: float
    time_by_phase_us: Dict[str, float] = field(default_factory=dict)
    reads_by_phase: Dict[str, int] = field(default_factory=dict)
    writes_by_phase: Dict[str, int] = field(default_factory=dict)
    bulkload_us: float = 0.0
    allocated_bytes: int = 0
    live_bytes: int = 0
    latencies_us: Optional[np.ndarray] = None
    # -- durability accounting (zero unless the index has a WAL attached) --
    log_records: int = 0       # logical records appended during the run
    log_flushes: int = 0       # group commits forced to the device
    log_blocks_written: int = 0  # device blocks written under the "log" phase
    crashed_at_op: Optional[int] = None  # op index a fault injector fired at
    recovery_us: float = 0.0   # filled by callers that run recovery afterwards
    # -- batched execution (see run_workload's ``batch`` argument) --
    batch: int = 1             # lookup group size the run executed with
    read_positionings: int = 0   # reads charged the random-positioning cost
    write_positionings: int = 0  # writes charged the random-positioning cost
    coalesced_runs: int = 0      # multi-block contiguous runs coalesced
    coalesced_blocks: int = 0    # blocks covered by those runs
    # -- write-back accounting (zero unless the pager buffers writes) --
    flushes: int = 0           # explicit dirty flushes that wrote
    dirty_evictions: int = 0   # dirty frames written back at eviction
    # -- self-healing storage (zero on a clean device) --
    io_retries: int = 0          # transient read errors absorbed with backoff
    checksum_failures: int = 0   # reads the checksum envelope refused to serve
    repaired_blocks: int = 0     # blocks rebuilt from checkpoint + WAL redo
    healed_faults: int = 0       # storage faults a SelfHealer absorbed
    # -- concurrent serving (defaults describe the single-client path) --
    clients: int = 1
    #: per client id: op count, latency digest, latch/commit-wait
    #: counters, snapshot counters, and the max dispatch gap — only
    #: filled by the serving path.
    per_client: Dict[int, dict] = field(default_factory=dict)
    commit_groups: int = 0       # group-commit flushes that acknowledged writers
    mean_commit_group: float = 0.0  # writers acknowledged per group
    committed_writes: int = 0    # writes acknowledged durable
    commit_waits: int = 0        # writers that blocked awaiting a group flush
    commit_wait_us: float = 0.0  # total virtual time spent blocked on commits
    latch_waits: int = 0         # writes stalled on a conflicting frame latch
    latch_wait_us: float = 0.0   # total simulated latch-stall time (writes)
    snapshot_reads: int = 0      # reads served at snapshot isolation
    snapshot_suppressed: int = 0  # snapshot reads hiding a not-yet-durable key
    # -- robustness (zero unless faults are in play) --
    shed_ops: int = 0            # ops shed on a fault no member absorbed
    deadline_misses: int = 0     # always 0: deadlines are the caller's count
    # -- sharded tier (defaults describe an unsharded index) --
    shards: int = 1              # range-partitioned shards behind the index
    replicas: int = 1            # copies per shard including the primary
    #: per shard id: index class, key range, op counts, per-member I/O
    #: and read fan-out, replication and log traffic — only filled when
    #: the index is a :class:`repro.sharding.ShardedIndex`.
    per_shard: Dict[int, dict] = field(default_factory=dict)
    # -- fault tolerance (zero unless the tier absorbed member faults) --
    failovers: int = 0           # primary promotions during the run
    hedged_reads: int = 0        # reads re-issued to another replica
    resync_blocks: int = 0       # log blocks scanned by catch-up resyncs

    @property
    def flushes_per_committed_write(self) -> float:
        """Log flushes amortized per acknowledged write (serving path)."""
        if self.committed_writes == 0:
            return 0.0
        return self.log_flushes / self.committed_writes

    def phase_latency_us(self, phase: str) -> float:
        """Average simulated time per op spent in a phase (Figure 6)."""
        if self.num_ops == 0:
            return 0.0
        return self.time_by_phase_us.get(phase, 0.0) / self.num_ops

    @property
    def positionings_per_op(self) -> float:
        """Accesses charged the random-positioning cost, per operation."""
        if self.num_ops == 0:
            return 0.0
        return (self.read_positionings + self.write_positionings) / self.num_ops


class _Meter:
    """The measurement of one run, whichever loop executes it.

    Construction reads every "before" counter off the index — its
    ``StorageStats``, per-file reads (for the inner/leaf split), log,
    pager and per-shard counters; :meth:`result` diffs them into the only
    :class:`RunResult` this module builds.  The loop in between hands
    over what only it knows: per-op latencies and the fields only it
    fills.
    """

    def __init__(self, index: DiskIndex, workload: str,
                 keep_latencies: bool) -> None:
        self.index = index
        self.workload = workload
        self.keep_latencies = keep_latencies
        self.start = index.storage_stats().snapshot()
        self.file_reads = _file_reads(index)
        self.log_records, self.log_flushes = _log_counters(index)
        self.flushes, self.dirty_evictions = _pager_counters(index)
        self.shard_view = index.per_shard_snapshot()

    def result(self, latencies: np.ndarray, **extras) -> RunResult:
        """Everything measured since construction."""
        index = self.index
        delta = index.storage_stats().diff(self.start)
        roles = index.file_roles()
        inner_reads = 0
        leaf_reads = 0
        for name, reads in _file_reads(index).items():
            file_delta = reads - self.file_reads.get(name, 0)
            if roles.get(name) == "inner":
                inner_reads += file_delta
            else:
                leaf_reads += file_delta

        executed = len(latencies)
        n = max(executed, 1)
        sim_s = delta.elapsed_us / 1e6
        # a run that executed nothing reports 0.0 for every latency scalar
        sample = latencies if executed else np.zeros(1)
        log_records, log_flushes = _log_counters(index)
        flushes, dirty_evictions = _pager_counters(index)
        devices = [pager.device for pager in index.pagers().values()]
        # a tier's fault-tolerance totals are the sums over its shards
        per_shard = index.per_shard_delta(self.shard_view)
        return RunResult(
            workload=self.workload,
            index_name=index.name,
            num_ops=executed,
            sim_elapsed_us=delta.elapsed_us,
            throughput_ops_per_s=executed / sim_s if sim_s > 0 else float("inf"),
            mean_latency_us=float(sample.mean()),
            p50_latency_us=float(np.percentile(sample, 50)),
            p99_latency_us=float(np.percentile(sample, 99)),
            std_latency_us=float(sample.std()),
            blocks_read_per_op=delta.reads / n,
            blocks_written_per_op=delta.writes / n,
            inner_blocks_per_op=inner_reads / n,
            leaf_blocks_per_op=leaf_reads / n,
            time_by_phase_us=dict(delta.time_by_phase),
            reads_by_phase=dict(delta.reads_by_phase),
            writes_by_phase=dict(delta.writes_by_phase),
            allocated_bytes=sum(device.allocated_bytes for device in devices),
            live_bytes=sum(device.live_bytes for device in devices),
            latencies_us=latencies if self.keep_latencies else None,
            log_records=log_records - self.log_records,
            log_flushes=log_flushes - self.log_flushes,
            log_blocks_written=delta.writes_by_phase.get("log", 0),
            read_positionings=delta.read_positionings,
            write_positionings=delta.write_positionings,
            coalesced_runs=delta.coalesced_runs,
            coalesced_blocks=delta.coalesced_blocks,
            flushes=flushes - self.flushes,
            dirty_evictions=dirty_evictions - self.dirty_evictions,
            io_retries=delta.io_retries,
            checksum_failures=delta.checksum_failures,
            repaired_blocks=delta.repaired_blocks,
            shards=index.num_shards,
            replicas=index.replication_factor,
            per_shard=per_shard,
            failovers=sum(s["failovers"] for s in per_shard.values()),
            hedged_reads=sum(s["hedged_reads"] for s in per_shard.values()),
            resync_blocks=sum(s["resync_blocks"] for s in per_shard.values()),
            **extras,
        )


def _file_reads(index: DiskIndex) -> Dict[str, int]:
    """Blocks read per file, under the names :meth:`file_roles` uses."""
    return {prefix + name: f.reads for prefix, pager in index.pagers().items()
            for name, f in pager.device.files.items()}


def _pager_counters(index: DiskIndex) -> Tuple[int, int]:
    """``(explicit flushes that wrote, dirty evictions)`` over the pagers."""
    pagers = index.pagers().values()
    return (sum(p.flushes for p in pagers),
            sum(p.dirty_evictions for p in pagers))


def _log_counters(index: DiskIndex) -> Tuple[int, int]:
    """``(records appended, group commits flushed)``; zeros without a WAL."""
    logs = index.logs()
    return (sum(wal.records_appended for wal in logs),
            sum(wal.flushes for wal in logs))


def run_workload(index: DiskIndex, ops: Sequence[Operation], workload: str = "",
                 scan_length: int = 100, keep_latencies: bool = False,
                 validate: bool = True,
                 fault_injector: Optional[FaultInjector] = None,
                 batch: int = 1, healer=None,
                 clients: int = 1,
                 client_ops: Optional[Sequence[Sequence[Operation]]] = None,
                 commit_timeout_us: float = 10_000.0) -> RunResult:
    """Execute ``ops`` against a loaded index and collect metrics.

    Args:
        index: a bulk-loaded index.  Its topology (``shards`` /
            ``replicas`` / ``per_shard``) and its tracer are read off it:
            ``index.attach_tracer`` is what binds a
            :class:`repro.obs.Tracer` to the device, pool and WAL it must
            observe.  Traced, each operation runs inside an op-scoped
            span; every field of the result is computed exactly as
            without.
        ops: the operation stream from :func:`build_workload`.
        workload: label recorded in the result.
        scan_length: elements per scan operation (paper: 100).
        keep_latencies: retain the raw per-op latency array.
        validate: check each lookup returns the paper's key+1 payload
            and each scan starts at its key, so a wrong answer fails the
            run instead of being archived as throughput (free on the
            charged clock).
        fault_injector: optional crash injector.  When it fires, the run
            stops at that operation, the WAL's unflushed buffer is
            dropped (and its tail block optionally torn), and the result
            covers only the executed prefix with ``crashed_at_op`` set —
            the caller then recovers via :func:`repro.durability.recover`.
        batch: group up to this many *consecutive lookups* into one
            :meth:`DiskIndex.lookup_many` call (the batched execution
            engine).  Inserts and scans flush the pending group first, so
            operation ordering — and therefore every result — is
            identical to ``batch=1``.  A group's simulated cost is shared
            equally across its operations for latency reporting.  With a
            tracer, one span covers each group.  Incompatible with
            ``fault_injector`` (crash-at-op semantics are per-op).
        healer: optional :class:`repro.durability.SelfHealer`.  A
            ``StorageFault`` escaping an operation is handed to it: after
            an in-place repair the operation is re-executed (``"retry"``),
            after a full restore of a half-applied mutation it is counted
            done (``"applied"`` — the WAL replay included it).  Repair
            I/O is charged to the device, so the healed operation's
            latency includes it.  Unhealable faults propagate.  Requires
            ``batch=1`` (fault attribution is per-op).
        clients: interleave the op stream over this many concurrent
            client sessions through the :mod:`repro.serving` engine
            (``ops`` is dealt round-robin via
            :func:`~repro.serving.split_ops`).
        client_ops: explicit per-client op streams (overrides the
            round-robin split).  ``ops`` is ignored when given.
        commit_timeout_us: the serving engine's commit timer, forwarded
            to :class:`~repro.serving.ServingEngine`.  Ignored by the
            single stream.

    Which loop runs: ``clients != 1`` or explicit ``client_ops`` (even one
    stream) selects the serving engine, all else the single stream below.
    They stay two because they charge differently: the stream commits
    asynchronously (one WAL flush per ``group_commit`` records), an
    engine client blocks on each write until its group is durable — at
    one client, one flush per write (DESIGN.md Section 13).

    On the serving path, latencies are *client-perceived*: an op's latch
    stalls and a write's group-commit wait are part of its latency, the
    result gains the serving counters (latch/commit waits, snapshot
    reads, commit-group sizes) and per-client slices in
    ``per_client``, and ``validate`` weakens for lookups to "the
    paper's payload or not-yet-visible" — under snapshot isolation a
    racing read may legitimately miss a key another client just wrote
    (the commit-order oracle test asserts exact equivalence instead).

    Mutating operations go through the ``durable_*`` log-then-apply path
    whenever the index has a WAL attached; on a clean finish the WAL's
    tail batch is flushed so the run ends fully durable, and a write-back
    pager then flushes its dirty pages in coalesced runs (the workload
    phase boundary is one of the three flush points).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch > 1 and fault_injector is not None:
        raise ValueError("fault injection is per-op; run it with batch=1")
    if batch > 1 and healer is not None:
        raise ValueError("self-healing is per-op; run it with batch=1")
    meter = _Meter(index, workload, keep_latencies)
    if clients != 1 or client_ops is not None:
        if batch > 1:
            raise ValueError("the serving engine schedules per-op; use batch=1")
        if healer is not None:
            raise ValueError("self-healing is not supported on the serving path")
        # Imported lazily: repro.serving imports this package for the
        # Operation alias, so a module-level import would be circular.
        from ..serving import ServingEngine, split_ops

        streams = client_ops if client_ops is not None else split_ops(ops, clients)
        report = ServingEngine(
            index, streams, scan_length=scan_length, validate=validate,
            fault_injector=fault_injector,
            commit_timeout_us=commit_timeout_us).run()
        return meter.result(
            report.latencies_us,
            crashed_at_op=report.crashed_at_op,
            clients=len(streams),
            per_client={s.client_id: s.digest() for s in report.sessions},
            **report.counters)
    # A flat index's clock is its device's live stats, read per unit
    # without a call; a tier's sums its members' per read.
    clock = index.clock()
    logged = bool(index.logs())
    tracer = index.tracer
    # A unit's simulated cost is written at its first op; the slots a
    # group's other lookups leave NaN say how far the unit extends.
    latencies = np.full(len(ops), np.nan)
    executed = len(ops)
    crashed_at: Optional[int] = None
    healed_faults = 0

    def execute(start: int, end: int, kind: str, key: int) -> None:
        """Run the unit ``ops[start:end]`` (one op, or a group of lookups)
        inside one trace span.  The span closes whatever the unit raises:
        left open, it fails the tracer's next run."""
        if tracer is not None:
            tracer.begin_op(kind, key, start)
        try:
            if end - start > 1:
                keys = [k for _, k in ops[start:end]]
                results = index.lookup_many(keys)
                if validate:
                    for k, result in zip(keys, results):
                        if result != k + 1:
                            raise AssertionError(
                                f"lookup({k}) returned {result}, expected {k + 1}")
            elif kind == "lookup":
                result = index.lookup(key)
                if validate and result != key + 1:
                    raise AssertionError(
                        f"lookup({key}) returned {result}, expected {key + 1}")
            elif kind == "insert":
                if logged:
                    index.durable_insert(key, key + 1)
                else:
                    index.insert(key, key + 1)
            elif kind == "scan":
                result = index.scan(key, scan_length)
                if validate and (not result or result[0][0] != key):
                    raise AssertionError(f"scan({key}) did not start at the key")
            else:
                raise ValueError(f"unknown operation kind {kind!r}")
        finally:
            if tracer is not None:
                tracer.end_op()

    try:
        # nothing charges the device between units, so one reading of its
        # clock both ends a unit and starts the next
        clock_us = clock.elapsed_us
        stream = enumerate(ops)
        for i, (kind, key) in stream:
            # A unit is one op, or up to ``batch`` consecutive lookups
            # (taken off the stream here: the loop resumes after them).
            end = i + 1
            if batch > 1 and kind == "lookup":
                limit = min(i + batch, len(ops))
                while end < limit and ops[end][0] == "lookup":
                    next(stream)
                    end += 1
            if fault_injector is not None:
                fault_injector.maybe_crash(i)
            attempts = 0
            while True:
                try:
                    execute(i, end, kind, key)
                except StorageFault as fault:
                    attempts += 1
                    action = None
                    if healer is not None and attempts <= _MAX_HEAL_ATTEMPTS:
                        action = healer.handle(fault, mutating=(kind == "insert"))
                    if action is None:
                        raise
                    healed_faults += 1
                    if action == "retry":
                        continue
                    # "applied": the full restore replayed this operation's
                    # WAL record — executing it again would double-apply
                break
            # healed ops pay for their failed attempts and the repair
            now_us = clock.elapsed_us
            latencies[i] = now_us - clock_us
            clock_us = now_us
    except CrashError as crash:
        crashed_at = executed = crash.op_index
        fault_injector.crash(index.logs(), crash.op_index,
                             pagers=index.pagers().values())
    else:
        # Phase boundary: the tail group commit becomes durable, then a
        # write-back pager flushes its dirty pages in coalesced runs, so
        # the measured run ends with the device image fully written.
        index.flush()

    # a unit's cost is shared evenly among its ops (x / 1 == x)
    starts = np.flatnonzero(~np.isnan(latencies[:executed]))
    sizes = np.diff(starts, append=executed)
    latencies = np.repeat(latencies[starts] / sizes, sizes)
    return meter.result(latencies, crashed_at_op=crashed_at, batch=batch,
                        healed_faults=healed_faults)
