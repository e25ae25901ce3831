"""One shard: a primary replica group over independent devices.

A :class:`Shard` owns a *primary* :class:`ShardMember` (its own
:class:`~repro.storage.BlockDevice`, :class:`~repro.storage.Pager`,
optional buffer pool, any registered index class) plus zero or more
replica members with identical storage but independently charged I/O.
Writes go to the primary — logged through the shard's own
:class:`~repro.durability.WriteAheadLog` when durability is on — and the
same logical records are shipped synchronously to every replica.  Reads
fan out across the replica group under a pluggable policy
(``primary`` / ``round_robin`` / ``least_loaded``).

Replication model (DESIGN.md Section 14): shipping happens at *append*
time, i.e. statement-level synchronous replication of the logical WAL
record stream.  Replicas therefore never serve stale reads, but they can
be *ahead* of the primary's durable log prefix — after a primary crash,
:meth:`Shard.recover` rebuilds the replicas from the recovered primary
image, exactly like a production failover re-seeding its followers.

Fault tolerance (DESIGN.md Section 17): every member carries a
:class:`MemberHealth` state machine (healthy → suspect → quarantined)
driven by the storage faults that escape it — checksum failures strike
once (one rotten block makes a member *suspect*), exhausted
retries/whole-member crashes and any write-path fault quarantine
immediately.  Quarantined members leave the read rotation and stop
receiving shipped records; a quarantined *primary* triggers live
failover (:meth:`Shard._failover`): the freshest healthy replica is
promoted, caught up from the durable log prefix plus the in-memory
tail, and the log itself is rebuilt on the promoted member's device so
the sequence numbering — and therefore every already-issued commit
acknowledgment — continues unbroken.  A read that faults is re-issued
after the fault, on the read policy's next pick among the servable
members: one attempt at a time, each one charged.  A quarantined
member rejoins via :meth:`Shard.rejoin`: catch-up resync
replays the missed log suffix and byte-verifies the result, falling
back to PR 7's full re-seed only when the member is tainted (possible
half-applied write) or damaged.

The shard also counts its observed operation mix (lookups / inserts /
updates / deletes / scans / scanned entries), which is the input the
:class:`~repro.sharding.tuner.ShardTuner` scores against the paper's
P1-P5 rules to pick this shard's index class.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.interface import DiskIndex, KeyPayload
from ..durability.recovery import Checkpoint, RecoveryResult, recover, take_checkpoint
from ..durability.wal import LogRecord, WAL_FILE, WriteAheadLog
from ..stack import StackSpec, assemble, pager_kwargs
from ..storage import BlockDevice, Pager
from ..storage.integrity import PersistentIOError, StorageFault

__all__ = ["Shard", "ShardMember", "MemberHealth", "REPLICA_POLICIES",
           "HEALTH_STATES"]

REPLICA_POLICIES = ("primary", "round_robin", "least_loaded")

#: Health states, in escalation order.
HEALTH_STATES = ("healthy", "suspect", "quarantined")

#: Counted operation kinds, in reporting order.
OP_KINDS = ("lookup", "insert", "update", "delete", "scan")

#: Soft strikes (checksum failures escaping a read) that quarantine a
#: member; the first makes it suspect.
QUARANTINE_AFTER = 2


class MemberHealth:
    """Per-member strike counter driving healthy → suspect → quarantined.

    Soft strikes (one per checksum failure escaping a read) accumulate:
    one makes the member *suspect* — it stays in rotation, but a repeat
    offense quarantines it.  Hard strikes (exhausted retries, a
    whole-member crash, any write-path fault) jump straight to
    quarantined: the device itself, not one block, is implicated.
    """

    def __init__(self) -> None:
        self.strikes = 0
        self.faults_seen = 0

    @property
    def state(self) -> str:
        if self.strikes == 0:
            return "healthy"
        if self.strikes < QUARANTINE_AFTER:
            return "suspect"
        return "quarantined"

    def strike(self, hard: bool = False) -> None:
        self.faults_seen += 1
        if hard:
            self.strikes = max(self.strikes + 1, QUARANTINE_AFTER)
        else:
            self.strikes += 1

    def reset(self) -> None:
        """A rejoin wipes the record; faults_seen stays for reporting."""
        self.strikes = 0


class ShardMember:
    """One copy of a shard's data: the flat stack its member spec
    assembles (device + pool + pager + index), or — on the recovery
    path — an already-built ``index`` whose pager recovery rebuilt with
    the spec's :func:`~repro.stack.pager_kwargs`, so an adopted member is
    *not* silently downgraded to pass-through defaults."""

    def __init__(self, spec: StackSpec, index: Optional[DiskIndex] = None) -> None:
        self.index: DiskIndex = index if index is not None else assemble(spec)
        self.pager = self.index.pager
        self.device = self.pager.device
        #: reads served by this member (read fan-out accounting).
        self.reads_served = 0
        self.health = MemberHealth()
        #: highest shard WAL seqno whose effect this member holds.
        self.applied_seqno = 0
        #: True when the member may hold a half-applied mutation (a
        #: write-path fault, or it crashed as primary): its files can
        #: never be trusted for suffix replay, only a full re-seed.
        self.tainted = False

    def dump(self) -> List[KeyPayload]:
        """All live pairs, charged as a full scan on this member."""
        return self.index.scan_range(0, 2**64 - 1)


class Shard:
    """A keyspace slice: primary + replicas + WAL + op-mix counters.

    Args:
        shard_id: position in the owning partition (for reporting).
        spec: the flat member spec every copy is assembled from — the
            index class, the storage configuration, and ``group_commit``:
            when non-zero, mutations log through a per-shard WAL on the
            primary's device (created after bulk load, in
            :func:`repro.stack.build`'s order, so a 1-shard tier is
            byte-for-byte comparable with a flat stack).
        replicas: total copies including the primary (1 = no replicas).
        replica_policy: read-routing policy across the replica group.
    """

    def __init__(self, shard_id: int, spec: StackSpec, *, replicas: int = 1,
                 replica_policy: str = "round_robin") -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if replica_policy not in REPLICA_POLICIES:
            raise ValueError(
                f"unknown replica policy {replica_policy!r}; "
                f"available: {REPLICA_POLICIES}")
        self.shard_id = shard_id
        self.spec = spec
        self.replica_policy = replica_policy
        self.primary = self._new_member()
        self.replicas: List[ShardMember] = [
            self._new_member() for _ in range(replicas - 1)
        ]
        self.wal: Optional[WriteAheadLog] = None
        self._rr_cursor = 0
        self.op_counts: Dict[str, int] = {kind: 0 for kind in OP_KINDS}
        self.entries_scanned = 0
        self.shipped_records = 0
        # -- fault-tolerance counters (DESIGN.md Section 17) --
        self.failovers = 0
        self.hedged_reads = 0
        self.resyncs = 0
        self.resync_blocks = 0
        self.reseeds = 0
        self.member_faults = 0
        #: final stats of members replaced by a re-seed, so tier-level
        #: stat sums stay monotonic across membership changes.
        self.retired_stats: List[object] = []
        #: set by the owning tier: fired after any membership change so
        #: fan-out facades can re-install their per-member hooks.
        self.on_members_changed: Optional[Callable[[], None]] = None
        self._failover_result: object = None

    @property
    def index_name(self) -> str:
        """Registry name of the index class every member runs."""
        return self.spec.index

    def _new_member(self) -> ShardMember:
        return ShardMember(self.spec)

    def _tracer(self):
        return self.primary.pager.tracer

    def _members_changed(self) -> None:
        if self.on_members_changed is not None:
            self.on_members_changed()

    # -- membership ----------------------------------------------------------

    @property
    def replication_factor(self) -> int:
        return 1 + len(self.replicas)

    def members(self) -> List[ShardMember]:
        return [self.primary] + self.replicas

    def servable_members(self) -> List[ShardMember]:
        """Members in the read rotation (not quarantined)."""
        return [m for m in self.members() if m.health.state != "quarantined"]

    def health_states(self) -> List[str]:
        """Member health, primary first (reporting)."""
        return [m.health.state for m in self.members()]

    def devices(self) -> Iterator[BlockDevice]:
        for member in self.members():
            yield member.device

    def pagers(self) -> Iterator[Pager]:
        for member in self.members():
            yield member.pager

    # -- build ---------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        """Load every member, then arm the WAL (log-after-load, as in
        :func:`repro.stack.build`: the bulk image is the recovery
        baseline, not a replayable suffix)."""
        for member in self.members():
            member.index.bulk_load(items)
        self._ensure_wal()

    def _ensure_wal(self) -> None:
        if self.spec.group_commit and self.wal is None:
            self.wal = WriteAheadLog(self.primary.pager,
                                     group_commit=self.spec.group_commit)
            self.primary.index.attach_wal(self.wal)

    # -- read path -----------------------------------------------------------

    def _reader(self) -> ShardMember:
        """Pick the member that serves the next read.

        Only servable (non-quarantined) members rotate; with every
        member quarantined the primary is the read path of last resort —
        its fault, not a routing error, should be what the caller sees.
        """
        members = self.servable_members() or [self.primary]
        if len(members) == 1 or self.replica_policy == "primary":
            choice = members[0]
        elif self.replica_policy == "round_robin":
            choice = members[self._rr_cursor % len(members)]
            self._rr_cursor += 1
        else:
            # least_loaded: least charged time so far, reads served as
            # the tiebreak (free-I/O devices never accumulate time).
            choice = min(members, key=lambda m: (m.device.stats.elapsed_us,
                                                 m.reads_served))
        choice.reads_served += 1
        return choice

    def _serve_read(self, op: Callable[[ShardMember], object]) -> object:
        """Run one read with health-aware re-issue.

        The clean path is byte-for-byte the pre-fault-tolerance one pick
        through :meth:`_reader`.  A :class:`StorageFault` escaping the
        member strikes its health (possibly quarantining it, possibly
        failing the primary over) and re-issues the read on the next
        pick.  Both attempts' I/O stays charged — a re-issue is extra
        work, it is not free.
        """
        last_fault: Optional[StorageFault] = None
        for _ in range(self.replication_factor * QUARANTINE_AFTER + 1):
            member = self._reader()
            try:
                return op(member)
            except StorageFault as fault:
                last_fault = fault
                self._record_fault(
                    member, hard=isinstance(fault, PersistentIOError))
                self.hedged_reads += 1
                tracer = self._tracer()
                if tracer is not None:
                    tracer.hedged_read()
        raise last_fault  # every member struck out

    def lookup(self, key: int) -> Optional[int]:
        self.op_counts["lookup"] += 1
        return self._serve_read(lambda m: m.index.lookup(key))

    def lookup_many(self, keys: Iterable[int]) -> List[Optional[int]]:
        keys = list(keys)
        self.op_counts["lookup"] += len(keys)
        return self._serve_read(lambda m: m.index.lookup_many(keys))

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        self.op_counts["scan"] += 1
        out = self._serve_read(lambda m: m.index.scan(start_key, count))
        self.entries_scanned += len(out)
        return out

    def scan_range(self, low: int, high: int) -> List[KeyPayload]:
        self.op_counts["scan"] += 1
        out = self._serve_read(lambda m: m.index.scan_range(low, high))
        self.entries_scanned += len(out)
        return out

    # -- health / failover ----------------------------------------------------

    def _record_fault(self, member: ShardMember, hard: bool = False) -> None:
        """Strike a member; a quarantined primary fails over."""
        self.member_faults += 1
        member.health.strike(hard=hard)
        if member is self.primary and member.health.state == "quarantined":
            self._failover()

    @staticmethod
    def _apply_to(index: DiskIndex, op: str, key: int, payload: int) -> object:
        if op == "insert":
            return index.insert(key, payload)
        if op == "update":
            return index.update(key, payload)
        return index.delete(key)

    def _log_history(self) -> Tuple[List[LogRecord], List[LogRecord]]:
        """(durable prefix, pending tail) of the shard's log.

        The durable scan is charged log-phase I/O on the device the log
        lives on.  The model's availability assumption — same as PR 5's
        repair protocol — is that the log survives its member's faults
        (a ``DeviceFaultModel`` never faults the WAL): a single-copy log
        is the recovery source, production systems mirror it.
        """
        if self.wal is None:
            return [], []
        durable = list(self.wal.durable_records())
        pending = [LogRecord.unpack(raw) for raw in self.wal.buffer]
        return durable, pending

    def _catch_up(self, member: ShardMember,
                  records: Sequence[LogRecord]) -> object:
        """Apply every record past the member's applied prefix, in order.

        Returns the last applied record's result (the failover path uses
        it to answer the in-flight mutation).  Charged I/O on the member.
        """
        result: object = None
        for record in records:
            if record.seqno <= member.applied_seqno:
                continue
            result = self._apply_to(member.index, record.op, record.key,
                                    record.payload)
            member.applied_seqno = record.seqno
        return result

    def _rebuild_wal(self, old_wal: WriteAheadLog,
                     durable: Sequence[LogRecord],
                     pending: Sequence[LogRecord]) -> None:
        """Re-write the log on the new primary's device, seqnos unbroken.

        The durable prefix is re-appended and flushed (charged log
        writes — the cost of re-homing the log), restoring the exact
        ``durable_seqno``; the pending tail is re-appended but left
        buffered, so records that were never acknowledged stay
        unacknowledged until the next group commit — the failover moves
        the commit point to the new device without ever advancing it.
        """
        new_wal = WriteAheadLog(self.primary.pager, group_commit=1)
        new_wal.group_commit = 2**62  # flush manually during the rebuild
        new_wal.next_seqno = durable[0].seqno if durable \
            else old_wal.durable_seqno + 1
        for record in durable:
            new_wal.append(record.op, record.key, record.payload)
        new_wal.flush()
        new_wal.durable_seqno = old_wal.durable_seqno
        for record in pending:
            new_wal.append(record.op, record.key, record.payload)
        assert new_wal.next_seqno == old_wal.next_seqno, \
            "failover must preserve the shard's sequence numbering"
        # Continue the old log's counters and hooks so tier-level metrics
        # and the tracer see one unbroken log (plus the rebuild flush).
        new_wal.group_commit = old_wal.group_commit
        new_wal.records_appended = old_wal.records_appended
        new_wal.flushes = old_wal.flushes + (1 if durable else 0)
        new_wal.on_flush = old_wal.on_flush
        self.wal = new_wal
        self.primary.index.attach_wal(new_wal)

    def _failover(self) -> None:
        """Promote the freshest healthy replica over a quarantined primary.

        Commit point: the instant ``self.primary`` flips.  Before it, the
        promoted member is caught up from the durable log prefix plus the
        in-memory tail (normally a no-op — synchronous shipping keeps
        replicas current; the exception is a mutation whose primary apply
        faulted after its record was appended), and so is every other
        healthy replica.  After it, the log is rebuilt on the new
        primary's device with identical sequence numbering.  Acknowledged
        writes all live in the durable prefix, which is re-applied and
        re-written — zero are lost; the unacknowledged tail is preserved
        but stays unacknowledged.
        """
        old = self.primary
        old.tainted = True  # may hold a half-applied SMO: re-seed only
        durable, pending = self._log_history()
        history = durable + pending
        while True:
            candidates = [m for m in self.replicas
                          if m.health.state != "quarantined"]
            if not candidates:
                raise PersistentIOError(
                    f"shard{self.shard_id}", -1,
                    "primary quarantined with no healthy replica to promote")
            promote = max(candidates, key=lambda m: m.applied_seqno)
            try:
                self._failover_result = self._catch_up(promote, history)
            except StorageFault:
                promote.health.strike(hard=True)
                promote.tainted = True
                continue
            break
        for member in self.replicas:
            if member is promote or member.health.state == "quarantined":
                continue
            try:
                self._catch_up(member, history)
            except StorageFault:
                self.member_faults += 1
                member.health.strike(hard=True)
                member.tainted = True
        self.replicas.remove(promote)
        self.replicas.append(old)
        self.primary = promote
        if self.wal is not None:
            old_wal = self.wal
            self._rebuild_wal(old_wal, durable, pending)
            # The demoted member must not log or gate its page flushes on
            # the dead log; it rejoins via re-seed (tainted), never replay.
            old.index.wal = None
            old.pager.set_wal(None)
        self.failovers += 1
        tracer = self._tracer()
        if tracer is not None:
            tracer.failover()
        self._members_changed()

    # -- rejoin / resync ------------------------------------------------------

    def rejoin(self, member: ShardMember) -> str:
        """Bring a quarantined replica back into rotation.

        The caller must have cleared the member's fault condition first
        (``DeviceFaultModel.clear_crash`` / replaced the model — the
        operator swapped the enclosure).  Returns ``"resync"`` when the
        member caught up by replaying the missed WAL suffix (charged log
        reads + member writes, byte-verified against the primary) or
        ``"reseed"`` when it needed PR 7's full rebuild — a tainted
        member, media damage, or a gap the log no longer covers.
        """
        if member not in self.replicas:
            raise ValueError("can only rejoin a current replica")
        if member.health.state != "quarantined":
            raise ValueError("member is not quarantined")
        mode = "reseed"
        if self.wal is not None and not member.tainted \
                and self._try_resync(member):
            mode = "resync"
        else:
            member = self._reseed(member)
        member.health.reset()
        member.tainted = False
        member.applied_seqno = (self.wal.current_lsn
                                if self.wal is not None else 0)
        self._members_changed()
        return mode

    def _try_resync(self, member: ShardMember) -> bool:
        """Catch-up resync: replay the missed log suffix, verify bytes.

        Fails (returning False, leaving the re-seed fallback to the
        caller) when the log no longer covers the member's gap, when the
        replay itself faults, or when the byte audit finds divergence
        (media damage the replay cannot paper over).
        """
        device_stats = self.wal.pager.device.stats
        reads_before = device_stats.reads
        durable, pending = self._log_history()
        scan_blocks = device_stats.reads - reads_before
        missed = [r for r in durable + pending
                  if r.seqno > member.applied_seqno]
        # The suffix must bridge the gap exactly: applied+1 .. current.
        expect = member.applied_seqno + 1
        for record in missed:
            if record.seqno != expect:
                return False
            expect += 1
        if expect != self.wal.current_lsn + 1:
            return False
        try:
            self._catch_up(member, missed)
        except StorageFault:
            return False
        if not self._byte_identical(member):
            return False
        self.resyncs += 1
        self.resync_blocks += scan_blocks
        tracer = self._tracer()
        if tracer is not None:
            tracer.resync(scan_blocks)
        return True

    def _byte_identical(self, member: ShardMember) -> bool:
        """Free byte audit of a member's data files against the primary.

        Both sides are flushed first (WAL before data) so device bytes,
        not dirty frames, are compared; the log file is excluded — only
        the primary carries one.  Identical op streams over identical
        bulk images yield identical physical layouts, so any difference
        is damage, not drift.
        """
        if self.wal is not None:
            self.wal.flush()
        self.primary.pager.flush()
        member.pager.flush()
        ours = {name: f for name, f in self.primary.device.files.items()
                if name != WAL_FILE}
        theirs = {name: f for name, f in member.device.files.items()
                  if name != WAL_FILE}
        if set(ours) != set(theirs):
            return False
        for name, mine in ours.items():
            other = theirs[name]
            if mine.num_blocks != other.num_blocks:
                return False
            for a, b in zip(mine.blocks, other.blocks):
                if bytes(a) != bytes(b):
                    return False
        return True

    def _reseed(self, member: ShardMember) -> ShardMember:
        """PR 7 fallback: rebuild the member from a full primary scan."""
        fresh = self._new_member()
        fresh.index.bulk_load(self.primary_scan_range(0, 2**64 - 1))
        self.retired_stats.append(member.device.stats)
        self.replicas[self.replicas.index(member)] = fresh
        self.reseeds += 1
        return fresh

    # -- write path ----------------------------------------------------------

    def append_log(self, op: str, key: int, payload: int = 0) -> Optional[int]:
        """Append one logical record to this shard's WAL (if durable)."""
        self._ensure_wal()
        if self.wal is None:
            return None
        return self.wal.append(op, key, payload)

    def apply(self, op: str, key: int, payload: int = 0, *,
              log: bool = True) -> object:
        """Apply one mutation to the primary and ship it to the replicas.

        ``log=False`` is the already-logged path: the caller (the fan-out
        WAL facade or recovery replay) has appended the record itself.

        A storage fault on the primary's apply quarantines it (the write
        may be half-applied — its files are no longer trusted) and fails
        over; the in-flight record is then re-applied on the new primary
        by the failover's catch-up, so the mutation is never lost even
        though the faulted device never completed it.
        """
        if op not in ("insert", "update", "delete"):
            raise ValueError(f"unknown mutation {op!r}")
        if log:
            self.append_log(op, key, payload)
        self.op_counts[op] += 1
        seqno = self.wal.current_lsn if self.wal is not None else None
        try:
            if op == "insert":
                result: object = self.primary.index.insert(key, payload)
            elif op == "update":
                result = self.primary.index.update(key, payload)
            else:
                result = self.primary.index.delete(key)
        except StorageFault:
            self.primary.tainted = True
            self._record_fault(self.primary, hard=True)  # fails over or raises
            if seqno is not None:
                # The failover's catch-up replayed the in-flight record
                # on the new primary *and* every healthy replica — its
                # replay result answers this call, and shipping again
                # would double-apply.
                return self._failover_result
            # No log to replay from: re-apply directly, then ship.
            result = self._apply_to(self.primary.index, op, key, payload)
            self._ship(op, key, payload)
            return result
        if seqno is not None:
            self.primary.applied_seqno = seqno
        self._ship(op, key, payload)
        return result

    def _ship(self, op: str, key: int, payload: int) -> None:
        """Synchronous statement-level shipping of the logical record.

        Quarantined members are skipped — they catch up at rejoin.  A
        fault mid-apply quarantines the member as tainted (its copy may
        hold half the mutation) but never fails the write: the primary
        applied it, and that is what the client was promised.
        """
        seqno = self.wal.current_lsn if self.wal is not None else 0
        for member in self.replicas:
            if member.health.state == "quarantined":
                continue
            try:
                self._apply_to(member.index, op, key, payload)
            except StorageFault:
                member.tainted = True
                self.member_faults += 1
                member.health.strike(hard=True)
                continue
            self.shipped_records += 1
            if seqno:
                member.applied_seqno = seqno

    def flush(self) -> int:
        """WAL tail first, then every member's dirty pages."""
        if self.wal is not None:
            self.wal.flush()
        return sum(member.pager.flush() for member in self.members())

    # -- primary-only reads: re-seed and recovery copy from the primary.

    def primary_scan_range(self, low: int, high: int) -> List[KeyPayload]:
        return self.primary.index.scan_range(low, high)

    # -- observed mix --------------------------------------------------------

    def op_mix(self) -> Dict[str, int]:
        mix = dict(self.op_counts)
        mix["entries_scanned"] = self.entries_scanned
        return mix

    def reset_op_mix(self) -> None:
        self.op_counts = {kind: 0 for kind in OP_KINDS}
        self.entries_scanned = 0

    # -- crash recovery ------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Durable snapshot of the primary (flushes WAL + dirty pages)."""
        self._ensure_wal()
        return take_checkpoint(self.primary.index, self.wal)

    def recover(self, checkpoint: Checkpoint) -> RecoveryResult:
        """Failover after a primary crash: redo the durable WAL prefix
        onto the checkpoint image, adopt the result as the new primary,
        and re-seed every replica from it.

        The crashed primary's data files are never trusted (they may hold
        a half-applied SMO); replicas are rebuilt because synchronous
        shipping may have applied records past the durable prefix — acked
        to nobody, so recovery must *unapply* them, and a re-seed is how
        a follower rejoins after diverging.  The adopted primary keeps
        the member spec's storage configuration (buffer pool,
        write-back) via ``pager_kwargs``.
        """
        if self.wal is None:
            raise RuntimeError("cannot recover a shard without a WAL")
        result = recover(checkpoint, self.wal, profile=self.spec.profile,
                         pager_kwargs=pager_kwargs(self.spec))
        self.primary = ShardMember(self.spec, result.index)
        self.primary.applied_seqno = result.last_seqno
        self.wal = WriteAheadLog(self.primary.pager,
                                 group_commit=self.spec.group_commit)
        # Continue the shard's sequence numbering where the durable
        # prefix ended, so post-recovery appends extend the same history.
        self.wal.next_seqno = result.last_seqno + 1
        self.wal.durable_seqno = result.last_seqno
        self.primary.index.attach_wal(self.wal)
        if self.replicas:
            items = self.primary_scan_range(0, 2**64 - 1)
            rebuilt = []
            for _ in self.replicas:
                member = self._new_member()
                member.index.bulk_load(items)
                member.applied_seqno = result.last_seqno
                rebuilt.append(member)
            self.replicas = rebuilt
        self._members_changed()
        return result

    # -- integrity -----------------------------------------------------------

    def verify(self, key_range: Optional[Tuple[int, int]] = None) -> int:
        """Structural verify on every member, plus replica-group agreement
        and (when given the shard's ``[lo, hi)`` range) ownership checks.

        Quarantined members are exempt from the agreement check: they
        stopped receiving shipped records and are *expected* to lag
        until :meth:`rejoin` catches them up.

        Returns the primary's live entry count.
        """
        live = self.primary.index.verify()
        for member in self.replicas:
            if member.health.state == "quarantined":
                continue
            member.index.verify()
        with self.primary.index._free_io():
            contents = self.primary.index.scan_range(0, 2**64 - 1)
        if key_range is not None:
            lo, hi = key_range
            for key, _ in contents:
                assert lo <= key < hi, (
                    f"shard {self.shard_id} holds out-of-range key {key} "
                    f"(owns [{lo}, {hi}))")
        for member in self.replicas:
            if member.health.state == "quarantined":
                continue
            with member.index._free_io():
                replica_contents = member.index.scan_range(0, 2**64 - 1)
            assert replica_contents == contents, (
                f"shard {self.shard_id}: replica diverged from primary")
        return live
