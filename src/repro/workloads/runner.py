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
  :class:`~repro.durability.FaultInjector` kills the run mid-stream;
* latency histogram digests per op type (always), and — when a
  :class:`~repro.obs.Tracer` is attached — per-phase µs and per-op block
  histograms scoped from the trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import DiskIndex
from ..durability.faults import CrashError, FaultInjector
from ..obs.metrics import Histogram, io_bounds, latency_bounds
from ..storage import Pager, StorageFault
from .spec import Operation

__all__ = ["RunResult", "run_workload", "bulk_load_timed"]

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
    flushes: int = 0           # explicit/watermark dirty flushes that wrote
    dirty_evictions: int = 0   # dirty frames written back at eviction
    # -- self-healing storage (zero on a clean device) --
    io_retries: int = 0          # transient read errors absorbed with backoff
    checksum_failures: int = 0   # reads the checksum envelope refused to serve
    repaired_blocks: int = 0     # blocks rebuilt from checkpoint + WAL redo
    healed_faults: int = 0       # storage faults a SelfHealer absorbed
    # -- observability (histogram digests: count/mean/p50/p90/p99/max) --
    p90_latency_us: float = 0.0
    max_latency_us: float = 0.0
    #: per op type ("lookup"/"insert"/"scan") latency digest; always filled.
    op_latency_histograms: Dict[str, dict] = field(default_factory=dict)
    #: per phase, the per-op µs digest — only when a tracer was attached.
    phase_latency_histograms: Optional[Dict[str, dict]] = None
    #: per op type, the blocks-touched-per-op digest — only when traced.
    op_io_histograms: Optional[Dict[str, dict]] = None
    # -- concurrent serving (defaults describe the single-client path) --
    clients: int = 1
    #: per client id: op counts, latency digests (overall and per op
    #: type), latch/commit-wait counters, snapshot counters, and the
    #: max dispatch gap — only filled by the serving path.
    per_client: Dict[int, dict] = field(default_factory=dict)
    #: per client id, per phase, the per-op µs digest — only when the
    #: serving path ran with a tracer attached.
    client_phase_histograms: Optional[Dict[int, Dict[str, dict]]] = None
    commit_groups: int = 0       # group-commit flushes that acknowledged writers
    mean_commit_group: float = 0.0  # writers acknowledged per group
    committed_writes: int = 0    # writes acknowledged durable
    commit_waits: int = 0        # writers that blocked awaiting a group flush
    commit_wait_us: float = 0.0  # total virtual time spent blocked on commits
    latch_waits: int = 0         # ops stalled on a conflicting frame latch
    latch_wait_us: float = 0.0   # total simulated latch-stall time
    read_latch_wait_us: float = 0.0   # latch stalls charged to reads/scans
    write_latch_wait_us: float = 0.0  # latch stalls charged to inserts
    snapshot_reads: int = 0      # reads served at snapshot isolation
    snapshot_suppressed: int = 0  # snapshot reads hiding a not-yet-durable key
    # -- robustness (zero unless deadlines/admission/faults are in play) --
    shed_ops: int = 0            # ops rejected at admission or after retries
    deadline_misses: int = 0     # completed ops that blew their deadline
    op_retries: int = 0          # storage-fault re-executions (serving path)
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

    @property
    def ops_per_log_flush(self) -> float:
        """Average operations amortized over one group commit."""
        if self.log_flushes == 0:
            return 0.0
        return self.log_records / self.log_flushes


def bulk_load_timed(index: DiskIndex, items: Sequence[Tuple[int, int]]) -> float:
    """Bulk load and return the simulated microseconds it took."""
    stats = index.pager.stats
    before = stats.elapsed_us
    index.bulk_load(items)
    return stats.elapsed_us - before


def _lookup_groups(ops: Sequence[Operation], batch: int):
    """Yield ``(start_index, [ops])`` units: runs of consecutive lookups
    capped at ``batch``, and every other operation as a singleton — so the
    stream executes in its original order."""
    pending_start = 0
    pending: list = []
    for i, op in enumerate(ops):
        if op[0] == "lookup":
            if not pending:
                pending_start = i
            pending.append(op)
            if len(pending) >= batch:
                yield pending_start, pending
                pending = []
        else:
            if pending:
                yield pending_start, pending
                pending = []
            yield i, [op]
    if pending:
        yield pending_start, pending


def run_workload(index: DiskIndex, ops: Sequence[Operation], workload: str = "",
                 scan_length: int = 100, keep_latencies: bool = False,
                 validate: bool = False,
                 fault_injector: Optional[FaultInjector] = None,
                 tracer=None, batch: int = 1, healer=None,
                 clients: int = 1,
                 client_ops: Optional[Sequence[Sequence[Operation]]] = None,
                 snapshot_reads: bool = True,
                 commit_group: Optional[int] = None,
                 commit_timeout_us: Optional[float] = 10_000.0,
                 latching: bool = True,
                 shards: Optional[int] = None,
                 replicas: Optional[int] = None,
                 deadline_us: Optional[float] = None,
                 retry_budget: int = 0,
                 max_inflight_writes: Optional[int] = None,
                 max_queue_delay_us: Optional[float] = None) -> RunResult:
    """Execute ``ops`` against a loaded index and collect metrics.

    Args:
        index: a bulk-loaded index.
        ops: the operation stream from :func:`build_workload`.
        workload: label recorded in the result.
        scan_length: elements per scan operation (paper: 100).
        keep_latencies: retain the raw per-op latency array.
        validate: check each lookup returns the paper's key+1 payload
            (used by integration tests; benchmark runs skip it).
        fault_injector: optional crash injector.  When it fires, the run
            stops at that operation, the WAL's unflushed buffer is
            dropped (and its tail block optionally torn), and the result
            covers only the executed prefix with ``crashed_at_op`` set —
            the caller then recovers via :func:`repro.durability.recover`.
        tracer: optional :class:`repro.obs.Tracer`; defaults to the one
            attached to the index (``index.attach_tracer``), if any.
            Each operation runs inside an op-scoped trace span, and the
            result gains per-phase and per-op-type histogram digests.
            With no tracer, every pre-existing metric is computed exactly
            as before — the traced and untraced counters are identical.
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
            :func:`~repro.serving.split_ops`).  The default 1 with no
            ``client_ops`` runs the original single-stream path — every
            metric of that path is computed exactly as before.
        client_ops: explicit per-client op streams (overrides the
            round-robin split; implies the serving path even for one
            stream).  ``ops`` is ignored when given.
        snapshot_reads / commit_group / commit_timeout_us / latching:
            serving-engine knobs, forwarded to
            :class:`~repro.serving.ServingEngine`.  Ignored on the
            single-client path.
        deadline_us / retry_budget / max_inflight_writes /
        max_queue_delay_us: robustness knobs of the serving engine
            (DESIGN.md Section 17) — per-op deadlines, per-client
            storage-fault retry budgets, and the write admission gate.
            Setting any of them implies the serving path, even at
            ``clients=1`` (a deadline or retry budget silently ignored
            would be worse than a slower code path).
        shards / replicas: assert the index's sharded topology.  A
            :class:`repro.sharding.ShardedIndex` carries its own shard
            count and replication factor; passing these makes the call
            self-documenting and fails fast on a mismatch (an unsharded
            index is topology 1/1).  Either way a sharded run's result
            gains ``shards`` / ``replicas`` / ``per_shard``.

    On the serving path, latencies are *client-perceived*: an op's latch
    stalls and a write's group-commit wait are part of its latency, the
    result gains the serving counters (latch/commit waits, snapshot
    reads, commit-group sizes) and per-client digests in
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
    actual_shards = index.num_shards
    actual_replicas = index.replication_factor
    if shards is not None and shards != actual_shards:
        raise ValueError(
            f"run_workload(shards={shards}) but the index has "
            f"{actual_shards} shard(s); build it with make_sharded_index")
    if replicas is not None and replicas != actual_replicas:
        raise ValueError(
            f"run_workload(replicas={replicas}) but the index replicates "
            f"{actual_replicas}x")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch > 1 and fault_injector is not None:
        raise ValueError("fault injection is per-op; run it with batch=1")
    if batch > 1 and healer is not None:
        raise ValueError("self-healing is per-op; run it with batch=1")
    robustness = (deadline_us is not None or retry_budget
                  or max_inflight_writes is not None
                  or max_queue_delay_us is not None)
    if clients != 1 or client_ops is not None or robustness:
        if batch > 1:
            raise ValueError("the serving engine schedules per-op; use batch=1")
        if healer is not None:
            raise ValueError("self-healing is not supported on the serving path")
        return _run_serving(
            index, ops, workload=workload, scan_length=scan_length,
            keep_latencies=keep_latencies, validate=validate,
            fault_injector=fault_injector, tracer=tracer, clients=clients,
            client_ops=client_ops, snapshot_reads=snapshot_reads,
            commit_group=commit_group, commit_timeout_us=commit_timeout_us,
            latching=latching, deadline_us=deadline_us,
            retry_budget=retry_budget,
            max_inflight_writes=max_inflight_writes,
            max_queue_delay_us=max_queue_delay_us)
    pager: Pager = index.pager
    device = pager.device
    wal = index.wal
    if tracer is None:
        tracer = index.tracer
    phase_hists: Dict[str, Histogram] = {}
    io_hists: Dict[str, Histogram] = {}
    start = device.stats.snapshot()
    file_reads_before = {name: f.reads for name, f in device.files.items()}
    log_records_before = wal.records_appended if wal is not None else 0
    log_flushes_before = wal.flushes if wal is not None else 0
    flushes_before = pager.flushes
    dirty_evictions_before = (pager.buffer_pool.dirty_evictions
                              if pager.buffer_pool is not None else 0)
    shard_view = index.per_shard_snapshot()
    failovers_before = index.failovers
    hedged_before = index.hedged_reads
    resync_blocks_before = index.resync_blocks
    latencies = np.empty(len(ops), dtype=np.float64)
    executed = len(ops)
    crashed_at: Optional[int] = None
    healed_faults = 0

    def apply_op(kind: str, key: int) -> None:
        if kind == "lookup":
            result = index.lookup(key)
            if validate and result != key + 1:
                raise AssertionError(
                    f"lookup({key}) returned {result}, expected {key + 1}")
        elif kind == "insert":
            if wal is not None:
                index.durable_insert(key, key + 1)
            else:
                index.insert(key, key + 1)
        elif kind == "scan":
            result = index.scan(key, scan_length)
            if validate and (not result or result[0][0] != key):
                raise AssertionError(f"scan({key}) did not start at the key")
        else:
            raise ValueError(f"unknown operation kind {kind!r}")

    try:
        if batch == 1:
            for i, (kind, key) in enumerate(ops):
                if fault_injector is not None:
                    fault_injector.maybe_crash(i)
                before_us = device.stats.elapsed_us
                event = None
                attempts = 0
                while True:
                    if tracer is not None:
                        tracer.begin_op(kind, key, i)
                    try:
                        apply_op(kind, key)
                    except StorageFault as fault:
                        if tracer is not None:
                            tracer.end_op()  # the span the fault cut short
                        attempts += 1
                        action = None
                        if healer is not None and attempts <= _MAX_HEAL_ATTEMPTS:
                            action = healer.handle(
                                fault, mutating=(kind == "insert"))
                        if action == "retry":
                            healed_faults += 1
                            continue
                        if action == "applied":
                            # the full restore replayed this operation's
                            # WAL record — executing it again would
                            # double-apply
                            healed_faults += 1
                            break
                        raise
                    if tracer is not None:
                        event = tracer.end_op()
                    break
                # healed ops pay for their failed attempts and the repair
                latencies[i] = device.stats.elapsed_us - before_us
                if event is not None:
                    for phase, us in event["us_by_phase"].items():
                        hist = phase_hists.get(phase)
                        if hist is None:
                            hist = phase_hists[phase] = Histogram(latency_bounds())
                        hist.record(us)
                    blocks = (sum(event["reads"].values())
                              + sum(event["writes"].values()))
                    hist = io_hists.get(kind)
                    if hist is None:
                        hist = io_hists[kind] = Histogram(io_bounds())
                    hist.record(blocks)
        else:
            for unit_start, group in _lookup_groups(ops, batch):
                kind, key = group[0]
                size = len(group)
                if tracer is not None:
                    tracer.begin_op(kind, key, unit_start)
                before_us = device.stats.elapsed_us
                if kind == "lookup" and size > 1:
                    keys = [k for _, k in group]
                    results = index.lookup_many(keys)
                    if validate:
                        for k, result in zip(keys, results):
                            if result != k + 1:
                                raise AssertionError(
                                    f"lookup({k}) returned {result}, "
                                    f"expected {k + 1}")
                else:
                    apply_op(kind, key)
                # the group's simulated cost, shared evenly per op
                share = (device.stats.elapsed_us - before_us) / size
                latencies[unit_start : unit_start + size] = share
                if tracer is not None:
                    event = tracer.end_op()
                    for phase, us in event["us_by_phase"].items():
                        hist = phase_hists.get(phase)
                        if hist is None:
                            hist = phase_hists[phase] = Histogram(latency_bounds())
                        for _ in range(size):
                            hist.record(us / size)
                    blocks = (sum(event["reads"].values())
                              + sum(event["writes"].values()))
                    hist = io_hists.get(kind)
                    if hist is None:
                        hist = io_hists[kind] = Histogram(io_bounds())
                    for _ in range(size):
                        hist.record(blocks / size)
    except CrashError as crash:
        crashed_at = crash.op_index
        executed = crash.op_index
        latencies = latencies[:executed]
        fault_injector.crash(wal, crash.op_index, pager=pager)
    else:
        if wal is not None:
            wal.flush()  # make the tail group commit durable
        # Phase boundary: a write-back pager flushes its dirty pages in
        # coalesced runs (after the WAL, preserving log-before-data), so
        # the measured run ends with the device image fully written.
        pager.flush()

    delta = device.stats.diff(start)
    roles = index.file_roles()
    inner_reads = 0
    leaf_reads = 0
    for name, handle in device.files.items():
        file_delta = handle.reads - file_reads_before.get(name, 0)
        if roles.get(name) == "inner":
            inner_reads += file_delta
        else:
            leaf_reads += file_delta

    # Histogram digests per op type, from the same latency samples the
    # scalar percentiles use (so disabled-tracing runs pay one extra pass
    # over an array they already hold, and no change to existing fields).
    op_hists: Dict[str, Histogram] = {}
    for i in range(executed):
        kind = ops[i][0]
        hist = op_hists.get(kind)
        if hist is None:
            hist = op_hists[kind] = Histogram(latency_bounds())
        hist.record(float(latencies[i]))

    n = max(executed, 1)
    sim_s = delta.elapsed_us / 1e6
    return RunResult(
        workload=workload,
        index_name=index.name,
        num_ops=executed,
        sim_elapsed_us=delta.elapsed_us,
        throughput_ops_per_s=executed / sim_s if sim_s > 0 else float("inf"),
        mean_latency_us=float(latencies.mean()) if executed else 0.0,
        p50_latency_us=float(np.percentile(latencies, 50)) if executed else 0.0,
        p99_latency_us=float(np.percentile(latencies, 99)) if executed else 0.0,
        std_latency_us=float(latencies.std()) if executed else 0.0,
        blocks_read_per_op=delta.reads / n,
        blocks_written_per_op=delta.writes / n,
        inner_blocks_per_op=inner_reads / n,
        leaf_blocks_per_op=leaf_reads / n,
        time_by_phase_us=dict(delta.time_by_phase),
        reads_by_phase=dict(delta.reads_by_phase),
        writes_by_phase=dict(delta.writes_by_phase),
        allocated_bytes=device.allocated_bytes,
        live_bytes=device.live_bytes,
        latencies_us=latencies if keep_latencies else None,
        log_records=(wal.records_appended - log_records_before) if wal is not None else 0,
        log_flushes=(wal.flushes - log_flushes_before) if wal is not None else 0,
        log_blocks_written=delta.writes_by_phase.get("log", 0),
        crashed_at_op=crashed_at,
        batch=batch,
        read_positionings=delta.read_positionings,
        write_positionings=delta.write_positionings,
        coalesced_runs=delta.coalesced_runs,
        coalesced_blocks=delta.coalesced_blocks,
        flushes=pager.flushes - flushes_before,
        dirty_evictions=(
            pager.buffer_pool.dirty_evictions - dirty_evictions_before
            if pager.buffer_pool is not None else 0),
        io_retries=delta.io_retries,
        checksum_failures=delta.checksum_failures,
        repaired_blocks=delta.repaired_blocks,
        healed_faults=healed_faults,
        p90_latency_us=float(np.percentile(latencies, 90)) if executed else 0.0,
        max_latency_us=float(latencies.max()) if executed else 0.0,
        op_latency_histograms={k: h.summary() for k, h in op_hists.items()},
        phase_latency_histograms=(
            {p: h.summary() for p, h in phase_hists.items()}
            if tracer is not None else None),
        op_io_histograms=(
            {k: h.summary() for k, h in io_hists.items()}
            if tracer is not None else None),
        shards=actual_shards,
        replicas=actual_replicas,
        per_shard=index.per_shard_delta(shard_view),
        failovers=index.failovers - failovers_before,
        hedged_reads=index.hedged_reads - hedged_before,
        resync_blocks=index.resync_blocks - resync_blocks_before,
    )


def _client_digest(session, phase_hists=None) -> dict:
    """One client's slice of a serving run, as histogram digests."""
    overall = Histogram(latency_bounds())
    by_kind: Dict[str, Histogram] = {}
    for kind, us in zip(session.op_kinds, session.latencies_us):
        overall.record(us)
        hist = by_kind.get(kind)
        if hist is None:
            hist = by_kind[kind] = Histogram(latency_bounds())
        hist.record(us)
    digest = {
        "ops": session.completed,
        "latency": overall.summary(),
        "op_latency_histograms": {k: h.summary() for k, h in by_kind.items()},
        "latch_waits": session.latch_waits,
        "latch_wait_us": session.latch_wait_us,
        "commit_waits": session.commit_waits,
        "commit_wait_us": session.commit_wait_us,
        "snapshot_reads": session.snapshot_reads,
        "snapshot_suppressed": session.snapshot_suppressed,
        "committed_writes": session.committed_writes,
        "shed_ops": session.shed_ops,
        "deadline_misses": session.deadline_misses,
        "retries_used": session.retries_used,
        "max_dispatch_gap": session.max_dispatch_gap(),
    }
    if phase_hists is not None:
        digest["phase_latency_histograms"] = {
            p: h.summary() for p, h in phase_hists.items()}
    return digest


def _run_serving(index: DiskIndex, ops: Sequence[Operation], *, workload: str,
                 scan_length: int, keep_latencies: bool, validate: bool,
                 fault_injector: Optional[FaultInjector], tracer,
                 clients: int, client_ops, snapshot_reads: bool,
                 commit_group: Optional[int],
                 commit_timeout_us: Optional[float],
                 latching: bool, deadline_us: Optional[float],
                 retry_budget: int, max_inflight_writes: Optional[int],
                 max_queue_delay_us: Optional[float]) -> RunResult:
    """The multi-client branch of :func:`run_workload`.

    Deals ``ops`` into per-client streams (unless explicit ones are
    given), drives :class:`repro.serving.ServingEngine`, and folds its
    report into the common :class:`RunResult` shape plus the serving
    extras.  Latencies here are client-perceived — device time plus
    latch stalls plus group-commit waits — so tails widen with
    contention even though the device does the same work.
    """
    # Imported lazily: repro.serving imports this package for the
    # Operation alias, so a module-level import would be circular.
    from ..serving import ServingEngine, split_ops

    pager: Pager = index.pager
    device = pager.device
    wal = index.wal
    if tracer is None:
        tracer = index.tracer
    if client_ops is not None:
        streams = [list(stream) for stream in client_ops]
    else:
        streams = split_ops(ops, clients)

    start = device.stats.snapshot()
    file_reads_before = {name: f.reads for name, f in device.files.items()}
    log_records_before = wal.records_appended if wal is not None else 0
    log_flushes_before = wal.flushes if wal is not None else 0
    flushes_before = pager.flushes
    dirty_evictions_before = (pager.buffer_pool.dirty_evictions
                              if pager.buffer_pool is not None else 0)
    shard_view = index.per_shard_snapshot()
    failovers_before = index.failovers
    hedged_before = index.hedged_reads
    resync_blocks_before = index.resync_blocks

    engine = ServingEngine(
        index, streams, scan_length=scan_length, validate=validate,
        snapshot_reads=snapshot_reads, latching=latching,
        commit_group=commit_group, commit_timeout_us=commit_timeout_us,
        tracer=tracer, fault_injector=fault_injector,
        deadline_us=deadline_us, retry_budget=retry_budget,
        max_inflight_writes=max_inflight_writes,
        max_queue_delay_us=max_queue_delay_us)
    report = engine.run()

    delta = device.stats.diff(start)
    roles = index.file_roles()
    inner_reads = 0
    leaf_reads = 0
    for name, handle in device.files.items():
        file_delta = handle.reads - file_reads_before.get(name, 0)
        if roles.get(name) == "inner":
            inner_reads += file_delta
        else:
            leaf_reads += file_delta

    latencies = report.latencies_us
    executed = report.executed
    op_hists: Dict[str, Histogram] = {}
    for kind, us in zip(report.op_kinds, latencies):
        hist = op_hists.get(kind)
        if hist is None:
            hist = op_hists[kind] = Histogram(latency_bounds())
        hist.record(float(us))

    traced = tracer is not None
    client_hists = report.client_phase_hists if traced else {}
    per_client = {
        s.client_id: _client_digest(
            s, (client_hists or {}).get(s.client_id) if traced else None)
        for s in report.sessions
    }

    n = max(executed, 1)
    sim_s = delta.elapsed_us / 1e6
    return RunResult(
        workload=workload,
        index_name=index.name,
        num_ops=executed,
        sim_elapsed_us=delta.elapsed_us,
        throughput_ops_per_s=executed / sim_s if sim_s > 0 else float("inf"),
        mean_latency_us=float(latencies.mean()) if executed else 0.0,
        p50_latency_us=float(np.percentile(latencies, 50)) if executed else 0.0,
        p99_latency_us=float(np.percentile(latencies, 99)) if executed else 0.0,
        std_latency_us=float(latencies.std()) if executed else 0.0,
        blocks_read_per_op=delta.reads / n,
        blocks_written_per_op=delta.writes / n,
        inner_blocks_per_op=inner_reads / n,
        leaf_blocks_per_op=leaf_reads / n,
        time_by_phase_us=dict(delta.time_by_phase),
        reads_by_phase=dict(delta.reads_by_phase),
        writes_by_phase=dict(delta.writes_by_phase),
        allocated_bytes=device.allocated_bytes,
        live_bytes=device.live_bytes,
        latencies_us=latencies if keep_latencies else None,
        log_records=(wal.records_appended - log_records_before) if wal is not None else 0,
        log_flushes=(wal.flushes - log_flushes_before) if wal is not None else 0,
        log_blocks_written=delta.writes_by_phase.get("log", 0),
        crashed_at_op=report.crashed_at_op,
        read_positionings=delta.read_positionings,
        write_positionings=delta.write_positionings,
        coalesced_runs=delta.coalesced_runs,
        coalesced_blocks=delta.coalesced_blocks,
        flushes=pager.flushes - flushes_before,
        dirty_evictions=(
            pager.buffer_pool.dirty_evictions - dirty_evictions_before
            if pager.buffer_pool is not None else 0),
        io_retries=delta.io_retries,
        checksum_failures=delta.checksum_failures,
        repaired_blocks=delta.repaired_blocks,
        p90_latency_us=float(np.percentile(latencies, 90)) if executed else 0.0,
        max_latency_us=float(latencies.max()) if executed else 0.0,
        op_latency_histograms={k: h.summary() for k, h in op_hists.items()},
        phase_latency_histograms=(
            {p: h.summary() for p, h in report.phase_hists.items()}
            if traced else None),
        op_io_histograms=(
            {k: h.summary() for k, h in report.io_hists.items()}
            if traced else None),
        clients=len(streams),
        per_client=per_client,
        client_phase_histograms=(
            {cid: {p: h.summary() for p, h in hists.items()}
             for cid, hists in (client_hists or {}).items()}
            if traced else None),
        commit_groups=len(report.commit_groups),
        mean_commit_group=report.mean_commit_group,
        committed_writes=report.committed_writes,
        commit_waits=report.commit_waits,
        commit_wait_us=report.commit_wait_us,
        latch_waits=report.latch_waits,
        latch_wait_us=report.latch_wait_us,
        read_latch_wait_us=report.read_latch_wait_us,
        write_latch_wait_us=report.write_latch_wait_us,
        snapshot_reads=report.snapshot_reads,
        snapshot_suppressed=report.snapshot_suppressed,
        shed_ops=report.shed_ops,
        deadline_misses=report.deadline_misses,
        op_retries=report.op_retries,
        shards=index.num_shards,
        replicas=index.replication_factor,
        per_shard=index.per_shard_delta(shard_view),
        failovers=index.failovers - failovers_before,
        hedged_reads=index.hedged_reads - hedged_before,
        resync_blocks=index.resync_blocks - resync_blocks_before,
    )
