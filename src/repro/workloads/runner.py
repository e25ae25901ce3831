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
from operator import itemgetter
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import DiskIndex
from ..durability.faults import CrashError, FaultInjector
from ..obs.metrics import KeyedDigest, io_bounds, latency_bounds
from ..storage import Pager, StorageFault
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

    @property
    def ops_per_log_flush(self) -> float:
        """Average operations amortized over one group commit."""
        if self.log_flushes == 0:
            return 0.0
        return self.log_records / self.log_flushes


class _Meter:
    """The measurement of one run, whichever loop executes it.

    Construction reads every "before" counter — the device's
    ``StorageStats``, per-file reads (for the inner/leaf split), WAL,
    pager and per-shard counters; :meth:`result` diffs them into the only
    :class:`RunResult` this module builds.  The loop in between hands
    over what only it knows: per-op latencies and kinds, its trace
    digests, and the fields only it fills.
    """

    def __init__(self, index: DiskIndex, workload: str,
                 keep_latencies: bool) -> None:
        self.index = index
        self.workload = workload
        self.keep_latencies = keep_latencies
        device = index.pager.device
        self.start = device.stats.snapshot()
        self.file_reads = {name: f.reads for name, f in device.files.items()}
        self.log_records, self.log_flushes = _log_counters(index.wal)
        self.flushes = index.pager.flushes
        self.dirty_evictions = index.pager.dirty_evictions
        self.shard_view = index.per_shard_snapshot()

    def result(self, latencies: np.ndarray, kinds: Iterable[str],
               phase_digest: KeyedDigest, io_digest: KeyedDigest,
               **extras) -> RunResult:
        """Everything measured since construction.  ``kinds`` yields the
        op type of each entry of ``latencies`` (and may run on: a crashed
        stream's unexecuted tail is ignored); the two trace digests are
        reported only if the index is traced."""
        index, pager = self.index, self.index.pager
        device = pager.device
        delta = device.stats.diff(self.start)
        roles = index.file_roles()
        inner_reads = 0
        leaf_reads = 0
        for name, handle in device.files.items():
            file_delta = handle.reads - self.file_reads.get(name, 0)
            if roles.get(name) == "inner":
                inner_reads += file_delta
            else:
                leaf_reads += file_delta

        # Histogram digests per op type, from the same latency samples the
        # scalar percentiles use (so disabled-tracing runs pay array
        # passes over an array they already hold, and no change to
        # existing fields).
        op_digest = KeyedDigest(latency_bounds())
        op_digest.record_many(kinds, latencies)

        executed = len(latencies)
        n = max(executed, 1)
        sim_s = delta.elapsed_us / 1e6
        # a run that executed nothing reports 0.0 for every latency scalar
        sample = latencies if executed else np.zeros(1)
        log_records, log_flushes = _log_counters(index.wal)
        traced = index.tracer is not None
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
            allocated_bytes=device.allocated_bytes,
            live_bytes=device.live_bytes,
            latencies_us=latencies if self.keep_latencies else None,
            log_records=log_records - self.log_records,
            log_flushes=log_flushes - self.log_flushes,
            log_blocks_written=delta.writes_by_phase.get("log", 0),
            read_positionings=delta.read_positionings,
            write_positionings=delta.write_positionings,
            coalesced_runs=delta.coalesced_runs,
            coalesced_blocks=delta.coalesced_blocks,
            flushes=pager.flushes - self.flushes,
            dirty_evictions=pager.dirty_evictions - self.dirty_evictions,
            io_retries=delta.io_retries,
            checksum_failures=delta.checksum_failures,
            repaired_blocks=delta.repaired_blocks,
            p90_latency_us=float(np.percentile(sample, 90)),
            max_latency_us=float(sample.max()),
            op_latency_histograms=op_digest.summaries(),
            phase_latency_histograms=phase_digest.summaries() if traced else None,
            op_io_histograms=io_digest.summaries() if traced else None,
            shards=index.num_shards,
            replicas=index.replication_factor,
            per_shard=per_shard,
            failovers=sum(s["failovers"] for s in per_shard.values()),
            hedged_reads=sum(s["hedged_reads"] for s in per_shard.values()),
            resync_blocks=sum(s["resync_blocks"] for s in per_shard.values()),
            **extras,
        )


def _log_counters(wal) -> Tuple[int, int]:
    """``(records appended, group commits flushed)``; zeros without a WAL."""
    if wal is None:
        return 0, 0
    return wal.records_appended, wal.flushes


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
            span and the result gains per-phase and per-op-type histogram
            digests; every other field is computed exactly as without.
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
        per_client = {s.client_id: s.digest() for s in report.sessions}
        return meter.result(
            report.latencies_us, report.op_kinds, report.phase_digest,
            report.io_digest,
            crashed_at_op=report.crashed_at_op,
            clients=len(streams),
            per_client=per_client,
            client_phase_histograms=(
                {client_id: digest["phase_latency_histograms"]
                 for client_id, digest in per_client.items()
                 if "phase_latency_histograms" in digest}
                if index.tracer is not None else None),
            **report.counters)
    pager: Pager = index.pager
    device = pager.device
    wal = index.wal
    tracer = index.tracer
    phase_digest = KeyedDigest(latency_bounds())
    io_digest = KeyedDigest(io_bounds())
    # A unit's simulated cost is written at its first op; the slots a
    # group's other lookups leave NaN say how far the unit extends.
    latencies = np.full(len(ops), np.nan)
    executed = len(ops)
    crashed_at: Optional[int] = None
    healed_faults = 0

    def execute(start: int, end: int, kind: str, key: int) -> Optional[dict]:
        """Run the unit ``ops[start:end]`` (one op, or a group of lookups)
        inside one trace span and return its event.  The span closes
        whatever the unit raises: left open, it fails the tracer's next run."""
        event = None
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
        finally:
            if tracer is not None:
                event = tracer.end_op()
        return event

    try:
        # nothing charges the device between units, so one reading of its
        # clock both ends a unit and starts the next
        clock_us = device.stats.elapsed_us
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
                    event = execute(i, end, kind, key)
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
                    event = None
                break
            # healed ops pay for their failed attempts and the repair
            now_us = device.stats.elapsed_us
            latencies[i] = now_us - clock_us
            clock_us = now_us
            if event is not None:
                # a group's span is shared evenly, one sample per lookup
                # (batch=1 keeps the integer block count the trace reports)
                size = end - i
                blocks = sum(event["reads"].values()) + sum(event["writes"].values())
                if batch > 1:
                    blocks /= size
                for _ in range(size):
                    for phase, us in event["us_by_phase"].items():
                        phase_digest[phase].record(us / size)
                    io_digest[kind].record(blocks)
    except CrashError as crash:
        crashed_at = executed = crash.op_index
        fault_injector.crash(wal, crash.op_index, pager=pager)
    else:
        if wal is not None:
            wal.flush()  # make the tail group commit durable
        # Phase boundary: a write-back pager flushes its dirty pages in
        # coalesced runs (after the WAL, preserving log-before-data), so
        # the measured run ends with the device image fully written.
        pager.flush()

    # a unit's cost is shared evenly among its ops (x / 1 == x)
    starts = np.flatnonzero(~np.isnan(latencies[:executed]))
    sizes = np.diff(starts, append=executed)
    latencies = np.repeat(latencies[starts] / sizes, sizes)
    return meter.result(latencies, map(itemgetter(0), ops), phase_digest,
                        io_digest, crashed_at_op=crashed_at, batch=batch,
                        healed_faults=healed_faults)
