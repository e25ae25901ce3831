"""The multi-client scheduler: fair dispatch, cross-client group commit,
snapshot reads.

The engine interleaves N sessions' op streams over one shared index.
Ops execute serially against the simulated device (one disk serializes
the I/O anyway), but each session keeps a *virtual clock*, and the
scheduler always dispatches the session whose clock is smallest — a
minimum-virtual-time policy that is fair by construction and orders
dispatches in simulated-time order.  Three concurrency phenomena are
modeled on that virtual timeline:

**Latching.**  While a write "runs" (its virtual interval), the frames
it read are held shared and the frames it wrote exclusive
(:class:`~repro.serving.latch.LatchManager`).  A conflicting write
stalls until the hold releases; the stall is charged to the device under
the ``"latch"`` phase — simulated time, exactly like positioning — and
counted in ``StorageStats`` and the op's trace span.

**Cross-client group commit.**  A write appends its WAL record and the
session then *blocks awaiting durability* (synchronous commit: nothing
is acknowledged before it is on disk).  The scheduler keeps dispatching
other sessions, so the commit group fills with records from every
client, and one log flush acknowledges them all — flushes per committed
write fall as client count grows.  A group flushes when every live
session is blocked on it, when the oldest waiter has waited
``commit_timeout_us`` of virtual time, or at the end of the run.  (Each
session has at most one write pending, so a group never outgrows the
client count.)

**Snapshot reads.**  Lookups and scans are pinned to the WAL's durable
LSN: a key whose insert is appended but not yet durable is invisible,
and the read neither consults nor takes any latch — readers never wait
on writers, so every latch stall is a write's.

**Shedding (DESIGN.md Section 17).**  A ``StorageFault`` escaping an op
(the sharded tier only escalates one after re-issuing the read on every
healthy member and failing over, or an unreplicated index) *sheds* the
op: it is consumed and counted in ``shed_ops``, the failed attempt's
device time advances the client's clock, and nothing is acknowledged —
the run terminates instead of hanging on an unrecoverable member.
Deadlines are the caller's count over the client-perceived latencies
(``RunResult.latencies_us``).

A tracer is the one attached to the index (``index.attach_tracer``): one
span per op, latch stalls folded into it under the ``"latch"`` phase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import DiskIndex
from ..durability.faults import CrashError, FaultInjector
from ..obs.metrics import KeyedDigest, io_bounds, latency_bounds
from ..storage import StorageFault
from ..workloads.spec import Operation
from .latch import LatchManager
from .session import Session

__all__ = ["ServeReport", "ServingEngine", "split_ops"]


def split_ops(ops: Sequence[Operation], clients: int) -> List[List[Operation]]:
    """Deal one op stream round-robin to ``clients`` sessions.

    Stream order is preserved within each client, so a key is always
    inserted by exactly one session; lookups may race ahead of the
    insert that created their key — which is precisely the visibility
    question snapshot reads answer.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    return [list(ops[i::clients]) for i in range(clients)]


@dataclass
class _WaitingCommit:
    """One writer blocked awaiting group-commit durability."""

    session: Session
    seqno: int
    key: int
    payload: int
    start_v: float      # virtual time the op was dispatched
    end_v: float        # virtual time the op's device work finished
    dispatch_index: int


@dataclass
class ServeReport:
    """Everything one engine run measured, before RunResult folding."""

    sessions: List[Session]
    executed: int
    #: client-perceived µs per completed op, in dispatch order.
    latencies_us: np.ndarray
    #: op kind per completed op, aligned with ``latencies_us``.
    op_kinds: List[str]
    #: acknowledged writes as ``(seqno, key, payload)``, in commit order.
    committed: List[Tuple[int, int, int]]
    #: the serving counters of a ``RunResult``, under its field names
    #: (commit groups and waits, latch waits, snapshot reads, sheds).
    counters: Dict[str, float]
    crashed_at_op: Optional[int]
    #: per-phase per-op µs digests (empty unless the index is traced;
    #: each session holds its own client's in ``Session.phase_digest``).
    phase_digest: KeyedDigest
    #: per-op-type blocks-touched digests (empty unless traced).
    io_digest: KeyedDigest


class ServingEngine:
    """Interleave N client op streams over one shared index.

    Args:
        index: a bulk-loaded index (optionally with a WAL attached —
            required for group commit; without one, writes are
            acknowledged immediately).
        client_ops: one op stream per client.
        scan_length: elements per scan operation.
        validate: assert every lookup returns ``key + 1`` or None (the
            payload convention), and that snapshot suppression only ever
            hides genuinely not-yet-durable keys.
        commit_timeout_us: flush when the oldest pending writer has
            waited this much virtual time.
        fault_injector: optional crash injector; ``maybe_crash`` fires
            on global dispatch indices, and the crash drops the WAL
            buffer and dirty pages exactly as in the single-client
            runner — blocked writers are never acknowledged.
    """

    def __init__(self, index: DiskIndex, client_ops: Sequence[Sequence[Operation]],
                 *, scan_length: int = 100, validate: bool = False,
                 commit_timeout_us: float = 10_000.0,
                 fault_injector: Optional[FaultInjector] = None) -> None:
        if not client_ops:
            raise ValueError("need at least one client op stream")
        if commit_timeout_us <= 0:
            raise ValueError(
                f"commit_timeout_us must be positive, got {commit_timeout_us}")
        self.index = index
        self.pager = index.pager
        self.device = index.pager.device
        self.wal = index.wal
        self.scan_length = scan_length
        self.validate = validate
        self.commit_timeout_us = commit_timeout_us
        self.tracer = index.tracer
        self.fault_injector = fault_injector
        self.sessions = [Session(i, ops) for i, ops in enumerate(client_ops)]
        self.latches = LatchManager()
        #: key -> seqno of its appended-but-not-yet-durable insert.
        self._pending_keys: Dict[int, int] = {}
        self._waiting: List[_WaitingCommit] = []
        self._committed: List[Tuple[int, int, int]] = []
        self._commit_groups: List[int] = []
        self._completed: List[Tuple[int, str, float]] = []  # (dispatch, kind, us)
        self._dispatch_count = 0
        self._cur_reads: set = set()
        self._cur_writes: set = set()
        self._phase_digest = KeyedDigest(latency_bounds())
        self._io_digest = KeyedDigest(io_bounds())

    # -- footprint capture ---------------------------------------------------

    def _note_access(self, kind: str, file_name: str, block_no: int) -> None:
        """Pager hook: record the frame in the in-flight op's footprint."""
        if kind == "r":
            self._cur_reads.add((file_name, block_no))
        else:
            self._cur_writes.add((file_name, block_no))

    # -- group commit --------------------------------------------------------

    def _should_flush(self, next_start_v: float) -> bool:
        """The commit timer: the oldest waiter has waited long enough."""
        return bool(self._waiting) and (
            self._waiting[0].end_v + self.commit_timeout_us <= next_start_v)

    def _flush_group(self, trigger_v: Optional[float] = None) -> None:
        """Force the WAL durable and acknowledge every covered waiter.

        The flush's device time lands at ``max`` of the group's virtual
        end times (the disk cannot start the log write before the last
        record of the group exists) — or at ``trigger_v`` when the
        commit timer fired later than that.
        """
        if self.wal is None or not self._waiting:
            return
        base_v = max(waiter.end_v for waiter in self._waiting)
        if trigger_v is not None and trigger_v > base_v:
            base_v = trigger_v
        before_us = self.device.elapsed_us
        self.wal.flush()
        ack_v = base_v + (self.device.elapsed_us - before_us)
        durable = self.wal.durable_seqno
        acked = [w for w in self._waiting if w.seqno <= durable]
        if not acked:
            return
        self._waiting = [w for w in self._waiting if w.seqno > durable]
        self._commit_groups.append(len(acked))
        for waiter in acked:
            session = waiter.session
            wait_us = ack_v - waiter.end_v
            session.commit_waits += 1
            session.commit_wait_us += wait_us
            session.committed_writes += 1
            self._committed.append((waiter.seqno, waiter.key, waiter.payload))
            self._pending_keys.pop(waiter.key, None)
            self._complete(session, waiter.dispatch_index, "insert",
                           waiter.start_v, ack_v)

    # -- op execution --------------------------------------------------------

    def _record_event(self, event: dict, kind: str, session: Session) -> None:
        """Fold one trace event into the global and per-client digests."""
        for phase, us in event["us_by_phase"].items():
            self._phase_digest[phase].record(us)
            session.phase_digest[phase].record(us)
        blocks = sum(event["reads"].values()) + sum(event["writes"].values())
        self._io_digest[kind].record(blocks)

    def _requeue(self, session: Session) -> None:
        """Back into the dispatch heap, unless the session's queue is drained."""
        if session.remaining:
            heapq.heappush(self._heap, (session.clock_us, session.client_id))

    def _shed(self, session: Session) -> None:
        """The op in hand is consumed and counted, never completed."""
        session.shed_ops += 1
        if self.tracer is not None:
            self.tracer.shed_op()
        self._requeue(session)

    def _complete(self, session: Session, dispatch_index: int, kind: str,
                  start_v: float, end_v: float) -> None:
        """Settle a finished op: the client saw it take ``end_v - start_v``
        (latch stalls and, for a write, the group-commit wait included)."""
        latency = end_v - start_v
        session.latencies_us.append(latency)
        session.op_kinds.append(kind)
        session.clock_us = end_v
        self._completed.append((dispatch_index, kind, latency))
        self._requeue(session)

    def _dispatch(self, session: Session) -> None:
        """Execute the session's next op and settle its virtual interval."""
        g = self._dispatch_count
        if self.fault_injector is not None:
            self.fault_injector.maybe_crash(g)
        self._dispatch_count = g + 1
        session.dispatch_indices.append(g)
        kind, key = session.next_op()
        start_v = session.clock_us
        before_us = self.device.elapsed_us
        self._cur_reads.clear()
        self._cur_writes.clear()
        if self.tracer is not None:
            self.tracer.begin_op(kind, key, g)
        seqno = None
        shed = False
        try:
            try:
                if kind == "lookup":
                    result = self.index.lookup(key)
                    if key in self._pending_keys:
                        # The insert is appended but not durable:
                        # invisible at the snapshot LSN.
                        result = None
                        session.snapshot_suppressed += 1
                    if (self.validate and result is not None
                            and result != key + 1):
                        raise AssertionError(
                            f"lookup({key}) returned {result}, "
                            f"expected {key + 1}")
                elif kind == "insert":
                    if self.wal is not None:
                        seqno = self.wal.append("insert", key, key + 1)
                    self.index.insert(key, key + 1)
                elif kind == "scan":
                    pairs = self.index.scan(key, self.scan_length)
                    if self._pending_keys:
                        pairs = [p for p in pairs
                                 if p[0] not in self._pending_keys]
                else:
                    raise ValueError(f"unknown operation kind {kind!r}")
            except StorageFault:
                # A fault the tier could not absorb (every healthy member
                # and failover exhausted, or an unreplicated index).
                shed = True
            else:
                delta_us = self.device.elapsed_us - before_us
                # Latch accounting happens inside the span so the stall
                # shows up in the op's trace event under the "latch"
                # phase.
                if kind != "insert":
                    session.snapshot_reads += 1
                    begin_v = start_v
                else:
                    reads = frozenset(self._cur_reads)
                    writes = frozenset(self._cur_writes)
                    begin_v = self.latches.wait_until(
                        session.client_id, start_v, reads, writes)
                    wait_us = begin_v - start_v
                    if wait_us > 0:
                        self.device.charge_latch_wait(wait_us)
                        if self.tracer is not None:
                            self.tracer.latch_wait(wait_us)
                        self.latches.record_wait(wait_us)
                        session.latch_waits += 1
                        session.latch_wait_us += wait_us
                    self.latches.hold(session.client_id, begin_v + delta_us,
                                      reads, writes)
                    self.latches.prune(start_v)
        finally:
            if self.tracer is not None:
                event = self.tracer.end_op()
                self._record_event(event, kind, session)
        if shed:
            # The op is consumed and counted, the charged device time of
            # its failed attempt advances the client's clock, and nothing
            # is acknowledged.
            session.clock_us = start_v + (self.device.elapsed_us - before_us)
            self._shed(session)
            return
        end_v = begin_v + delta_us
        if kind == "insert" and self.wal is not None:
            # Synchronous commit: block until the group flush makes the
            # record durable.  The session leaves the heap; the flush
            # acknowledges it and puts it back.
            self._waiting.append(_WaitingCommit(
                session, seqno, key, key + 1, start_v, end_v, g))
            self._pending_keys[key] = seqno
            return
        if kind == "insert":
            # No WAL: nothing to await; the write "commits" on apply.
            session.committed_writes += 1
            self._committed.append((0, key, key + 1))
        self._complete(session, g, kind, start_v, end_v)

    # -- run -----------------------------------------------------------------

    def run(self) -> ServeReport:
        """Drain every session's queue; return the report.

        On a clean finish the WAL tail is flushed (acknowledging the last
        group) and the pager's dirty pages are written — the same two
        phase-boundary flushes the single-client runner performs.  On an
        injected crash the run stops at that dispatch, the crash's
        storage effects are applied, and blocked writers stay
        unacknowledged.
        """
        self._heap: List[Tuple[float, int]] = []
        for session in self.sessions:
            self._requeue(session)
        saved_group = None
        if self.wal is not None:
            # The engine owns the flush schedule: disable the WAL's own
            # count-based trigger for the duration.
            saved_group = self.wal.group_commit
            self.wal.group_commit = 2 ** 62
        saved_hook = self.pager.on_block_access
        self.pager.on_block_access = self._note_access
        crashed_at: Optional[int] = None
        try:
            while self._heap or self._waiting:
                if not self._heap:
                    # Every live session is blocked on the group: flush.
                    self._flush_group()
                    continue
                next_start_v, client_id = self._heap[0]
                if self._should_flush(next_start_v):
                    self._flush_group(trigger_v=next_start_v)
                    continue
                heapq.heappop(self._heap)
                self._dispatch(self.sessions[client_id])
        except CrashError as crash:
            crashed_at = crash.op_index
            self.fault_injector.crash(self.wal, crash.op_index, pager=self.pager)
        finally:
            self.pager.on_block_access = saved_hook
            if self.wal is not None and saved_group is not None:
                self.wal.group_commit = saved_group
        if crashed_at is None:
            if self.wal is not None:
                self.wal.flush()
            self.pager.flush()
        return self._report(crashed_at)

    def _report(self, crashed_at: Optional[int]) -> ServeReport:
        self._completed.sort()
        latencies = np.array([us for _, _, us in self._completed],
                             dtype=np.float64)
        kinds = [kind for _, kind, _ in self._completed]
        sessions, groups = self.sessions, self._commit_groups
        return ServeReport(
            sessions=sessions,
            executed=len(self._completed),
            latencies_us=latencies,
            op_kinds=kinds,
            committed=list(self._committed),
            counters={
                "commit_groups": len(groups),
                "mean_commit_group": sum(groups) / len(groups) if groups else 0.0,
                "committed_writes": len(self._committed),
                "commit_waits": sum(s.commit_waits for s in sessions),
                "commit_wait_us": sum(s.commit_wait_us for s in sessions),
                "latch_waits": self.latches.waits,
                "latch_wait_us": self.latches.wait_us,
                "snapshot_reads": sum(s.snapshot_reads for s in sessions),
                "snapshot_suppressed": sum(s.snapshot_suppressed for s in sessions),
                "shed_ops": sum(s.shed_ops for s in sessions),
            },
            crashed_at_op=crashed_at,
            phase_digest=self._phase_digest,
            io_digest=self._io_digest,
        )
