"""The sharded tier: a :class:`DiskIndex` made of independent shards.

:class:`ShardedIndex` composes a :class:`~repro.sharding.partition.RangePartition`,
N :class:`~repro.sharding.shard.Shard` replica groups and a
:class:`~repro.sharding.router.Router` behind the ordinary
:class:`~repro.core.DiskIndex` interface, so every existing consumer —
the workload runner, the serving engine, the differential oracle, the
fault injector — drives a whole sharded tier exactly as it drives one
index.

That compatibility is carried by three *fan-out facades*:

* :class:`_FanoutDevice` — presents the union of every member device:
  ``stats`` sums the per-device :class:`~repro.storage.StorageStats`
  fresh on each access (so ``snapshot()``/``diff()`` keep working), and
  ``files`` merges the per-device file tables under ``s<i>:``- and
  ``s<i>r<j>:``-prefixed names.  ``charge_latch_wait`` lands on shard
  0's primary device so the serving engine's latch charges appear in
  the aggregate clock.
* :class:`_FanoutPager` — ``flush``/``flushes``/``dirty_evictions``/
  ``drop_dirty`` fan out to every member pager, and assigning
  ``on_block_access`` installs a prefixing wrapper on each member so
  the serving engine's frame latches (and any tracer hook) see distinct
  per-shard block names.
* :class:`_FanoutWal` — a tier-level log view over the per-shard WALs.
  ``append`` routes each record to the owning shard's log and assigns a
  *global* sequence number (the append order across shards);
  ``durable_seqno`` is the end of the longest global prefix whose
  per-shard records are all durable, which is exactly what group-commit
  acknowledgement needs.  Crash effects (``drop_unflushed`` /
  ``tear_tail_block``) hit every shard — whole-cluster power loss;
  single-shard crashes go through :meth:`Shard.recover` directly.

Writes route to the owning shard's primary; the plain mutation methods
stay unlogged and the ``durable_*`` paths log first, matching the base
class convention, so the runner and the serving engine both do the right
thing without knowing the index is sharded.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields as dataclass_fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.interface import DiskIndex, KeyPayload
from ..storage.device import StorageStats
from .partition import RangePartition
from .router import Router
from .shard import Shard

__all__ = ["ShardedIndex", "combine_stats", "member_prefix"]


def member_prefix(shard_id: int, member_index: int) -> str:
    """The file-name prefix of one member's device in the merged view."""
    if member_index == 0:
        return f"s{shard_id}:"
    return f"s{shard_id}r{member_index}:"


def combine_stats(stats: Iterable[StorageStats]) -> StorageStats:
    """Field-wise sum of several :class:`StorageStats` (dicts merged)."""
    total = StorageStats()
    for s in stats:
        for f in dataclass_fields(StorageStats):
            value = getattr(s, f.name)
            if isinstance(value, dict):
                merged = getattr(total, f.name)
                for key, v in value.items():
                    merged[key] = merged.get(key, 0) + v
            else:
                setattr(total, f.name, getattr(total, f.name) + value)
    return total


class _FanoutDevice:
    """Union view over every member device (see module docstring)."""

    def __init__(self, owner: "ShardedIndex") -> None:
        self._owner = owner

    def _devices(self):
        for shard in self._owner.shards:
            for member in shard.members():
                yield member.device

    def _member_stats(self):
        """Every member's stats, live ones first (shard and member
        order), then the retired ones (members replaced by a re-seed),
        which stay in the sums so the tier's aggregate counters never
        move backwards across a membership change."""
        for device in self._devices():
            yield device.stats
        for shard in self._owner.shards:
            yield from shard.retired_stats

    @property
    def stats(self) -> StorageStats:
        return combine_stats(self._member_stats())

    @property
    def elapsed_us(self) -> float:
        """``stats.elapsed_us`` without building ``stats``: the serving
        engine reads the clock around every op.  The same float
        additions in the same order as :func:`combine_stats`, so the
        value is bit-identical."""
        total = 0.0
        for stats in self._member_stats():
            total += stats.elapsed_us
        return total

    @property
    def files(self) -> Dict[str, object]:
        merged: Dict[str, object] = {}
        for shard in self._owner.shards:
            for j, member in enumerate(shard.members()):
                prefix = member_prefix(shard.shard_id, j)
                for name, handle in member.device.files.items():
                    merged[prefix + name] = handle
        return merged

    @property
    def allocated_bytes(self) -> int:
        return sum(d.allocated_bytes for d in self._devices())

    @property
    def live_bytes(self) -> int:
        return sum(d.live_bytes for d in self._devices())

    def charge_latch_wait(self, cost_us: float) -> None:
        # One canonical device carries the serving engine's latch
        # charges; the combined stats sum it in like any other member.
        self._owner.shards[0].primary.device.charge_latch_wait(cost_us)


class _FanoutPager:
    """Pager facade fanning control operations to every member pager."""

    def __init__(self, owner: "ShardedIndex") -> None:
        self._owner = owner
        self._hook = None

    def _pagers(self):
        for shard in self._owner.shards:
            for member in shard.members():
                yield member.pager

    @property
    def device(self) -> _FanoutDevice:
        return self._owner.device

    @property
    def dirty_evictions(self) -> int:
        return sum(p.dirty_evictions for p in self._pagers())

    @property
    def flushes(self) -> int:
        return sum(p.flushes for p in self._pagers())

    def flush(self, file_name: Optional[str] = None) -> int:
        if file_name is not None:
            raise ValueError("per-file flush is shard-local; flush the whole tier")
        return self._owner.flush_pages()

    def drop_dirty(self) -> int:
        return sum(p.drop_dirty() for p in self._pagers())

    # -- access hook ---------------------------------------------------------

    @property
    def on_block_access(self):
        return self._hook

    @on_block_access.setter
    def on_block_access(self, hook) -> None:
        self._hook = hook
        for shard in self._owner.shards:
            for j, member in enumerate(shard.members()):
                if hook is None:
                    member.pager.on_block_access = None
                else:
                    prefix = member_prefix(shard.shard_id, j)
                    member.pager.on_block_access = (
                        lambda mode, name, block_no, _h=hook, _p=prefix:
                        _h(mode, _p + name, block_no))


class _FanoutWal:
    """Tier-level WAL view mapping global seqnos to per-shard records."""

    def __init__(self, owner: "ShardedIndex") -> None:
        self._owner = owner
        #: global append order: entry g-1 is ``(shard_id, shard_seqno)``.
        self._records: List[Tuple[int, int]] = []
        self._durable_idx = 0

    def _wals(self):
        for shard in self._owner.shards:
            shard._ensure_wal()
            if shard.wal is not None:
                yield shard.wal

    # -- append path ---------------------------------------------------------

    def append(self, op: str, key: int, payload: int = 0) -> int:
        shard = self._owner.shards[self._owner.partition.shard_of(key)]
        shard_seqno = shard.append_log(op, key, payload)
        if shard_seqno is None:
            raise RuntimeError("append on a shard without durability")
        self._records.append((shard.shard_id, shard_seqno))
        return len(self._records)

    def flush(self) -> None:
        for wal in self._wals():
            wal.flush()

    @property
    def durable_seqno(self) -> int:
        """End of the longest globally-ordered prefix whose records are
        all durable in their shard's log."""
        shards = self._owner.shards
        while self._durable_idx < len(self._records):
            shard_id, shard_seqno = self._records[self._durable_idx]
            wal = shards[shard_id].wal
            if wal is None or wal.durable_seqno < shard_seqno:
                break
            self._durable_idx += 1
        return self._durable_idx

    @property
    def group_commit(self) -> int:
        return max((wal.group_commit for wal in self._wals()), default=1)

    @group_commit.setter
    def group_commit(self, value: int) -> None:
        for wal in self._wals():
            wal.group_commit = value

    # -- accounting ----------------------------------------------------------

    @property
    def records_appended(self) -> int:
        return sum(wal.records_appended for wal in self._wals())

    @property
    def flushes(self) -> int:
        return sum(wal.flushes for wal in self._wals())

    # -- crash surface (whole-cluster power loss) -----------------------------

    def drop_unflushed(self) -> int:
        return sum(wal.drop_unflushed() for wal in self._wals())

    def tear_tail_block(self) -> bool:
        torn = False
        for wal in self._wals():
            torn = wal.tear_tail_block() or torn
        return torn


class ShardedIndex(DiskIndex):
    """A range-partitioned, replicated tier behind the DiskIndex API.

    Build one with :func:`repro.sharding.make_sharded_index` (or the
    registry re-export) rather than by hand: the factory cuts the
    partition, builds the shards, and wires the facades.
    """

    name = "sharded"

    def __init__(self, shards: Sequence[Shard], partition: RangePartition) -> None:
        if partition.num_shards != len(shards):
            raise ValueError(
                f"partition cuts {partition.num_shards} ranges but "
                f"{len(shards)} shards given")
        self.shards = list(shards)
        self.partition = partition
        self.router = Router(partition, self.shards)
        self.device = _FanoutDevice(self)
        self.pager = _FanoutPager(self)
        self.wal = (_FanoutWal(self)
                    if any(s.spec.group_commit for s in self.shards) else None)
        self.tracer = None
        for shard in self.shards:
            shard.on_members_changed = self._on_members_changed

    def _on_members_changed(self) -> None:
        """A shard promoted/re-seeded a member: re-install per-member
        hooks (the access-hook setter is idempotent) so the new member's
        pager reports under its prefixed name like its predecessor."""
        self.pager.on_block_access = self.pager.on_block_access

    # -- topology ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def replication_factor(self) -> int:
        return max(shard.replication_factor for shard in self.shards)

    def composition(self) -> List[str]:
        """Per-shard index class names, e.g. ``["hybrid-alex", "btree"]``."""
        return [shard.index_name for shard in self.shards]

    # -- fault tolerance (DESIGN.md Section 17) -------------------------------

    @property
    def failovers(self) -> int:
        return sum(shard.failovers for shard in self.shards)

    @property
    def hedged_reads(self) -> int:
        return sum(shard.hedged_reads for shard in self.shards)

    @property
    def resyncs(self) -> int:
        return sum(shard.resyncs for shard in self.shards)

    @property
    def resync_blocks(self) -> int:
        return sum(shard.resync_blocks for shard in self.shards)

    @property
    def reseeds(self) -> int:
        return sum(shard.reseeds for shard in self.shards)

    @property
    def member_faults(self) -> int:
        return sum(shard.member_faults for shard in self.shards)

    def health_summary(self) -> Dict[int, List[str]]:
        """Member health per shard, primary first."""
        return {shard.shard_id: shard.health_states()
                for shard in self.shards}

    def rejoin_quarantined(self) -> Dict[str, int]:
        """Rejoin every quarantined *replica* (catch-up resync with
        re-seed fallback — :meth:`Shard.rejoin`).  A quarantined primary
        is not touched: it either already failed over (and sits in the
        replica list, rejoinable here) or has no healthy peer to take
        over.  Returns ``{"resync": n, "reseed": m}``.
        """
        modes = {"resync": 0, "reseed": 0}
        for shard in self.shards:
            for member in list(shard.replicas):
                if member.health.state == "quarantined":
                    modes[shard.rejoin(member)] += 1
        return modes

    def _owner(self, key: int) -> Shard:
        return self.shards[self.partition.shard_of(key)]

    # -- DiskIndex required operations ---------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        self.check_bulk_items(items)
        split: Dict[int, List[KeyPayload]] = {}
        for key, payload in items:
            split.setdefault(self.partition.shard_of(key), []).append(
                (key, payload))
        for shard in self.shards:
            shard.bulk_load(split.get(shard.shard_id, []))

    def lookup(self, key: int) -> Optional[int]:
        return self.router.lookup(key)

    def lookup_many(self, keys: Iterable[int]) -> List[Optional[int]]:
        return self.router.lookup_many(keys)

    def insert(self, key: int, payload: int) -> None:
        self._owner(key).apply("insert", key, payload, log=False)

    def update(self, key: int, payload: int) -> bool:
        return bool(self._owner(key).apply("update", key, payload, log=False))

    def delete(self, key: int) -> bool:
        return bool(self._owner(key).apply("delete", key, log=False))

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        return self.router.scan(start_key, count)

    def scan_range(self, low: int, high: int, batch: int = 256) -> List[KeyPayload]:
        return self.router.scan_range(low, high)

    # -- durability ----------------------------------------------------------

    def attach_wal(self, wal) -> None:
        raise NotImplementedError(
            "a sharded tier owns one WAL per shard; construct it with "
            "durability=True instead of attaching a log afterwards")

    def flush(self) -> int:
        return sum(shard.flush() for shard in self.shards)

    def flush_pages(self) -> int:
        """Dirty-page flush only (the pager facade's ``flush``): each
        member pager's own WAL barrier orders its log ahead of data."""
        written = 0
        for shard in self.shards:
            if shard.wal is not None:
                shard.wal.flush()
            for member in shard.members():
                written += member.pager.flush()
        return written

    # -- observability -------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        raise NotImplementedError(
            "tracer binding is per-device; attach it to a member index "
            "(shard.primary.index.attach_tracer) instead of the tier")

    # -- optional hooks ------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        for shard in self.shards:
            for member in shard.members():
                member.index.set_inner_memory_resident(resident)

    def height(self) -> int:
        return max(shard.primary.index.height() for shard in self.shards)

    def verify(self) -> int:
        """Verify every shard (structure, replica agreement, range
        ownership); returns total live entries across primaries."""
        return sum(
            shard.verify(key_range=self.partition.range_of(shard.shard_id))
            for shard in self.shards)

    def file_roles(self) -> dict:
        roles: Dict[str, str] = {}
        for shard in self.shards:
            for j, member in enumerate(shard.members()):
                prefix = member_prefix(shard.shard_id, j)
                for name, role in member.index.file_roles().items():
                    roles[prefix + name] = role
        return roles

    @contextmanager
    def _free_io(self):
        stack = []
        try:
            for shard in self.shards:
                for member in shard.members():
                    ctx = member.index._free_io()
                    ctx.__enter__()
                    stack.append(ctx)
            yield
        finally:
            for ctx in reversed(stack):
                ctx.__exit__(None, None, None)

    # -- per-shard reporting (RunResult.per_shard) ----------------------------

    def per_shard_snapshot(self) -> List[dict]:
        """Capture per-member counters; pass to :meth:`per_shard_delta`.

        Stats and read counts are keyed by member identity, not list
        position: failover reorders the member list and a re-seed swaps
        a member out entirely, and a positional diff across either would
        subtract one device's history from another's.
        """
        return [
            {
                "stats": {id(m): m.device.stats.snapshot()
                          for m in shard.members()},
                "ops": dict(shard.op_counts),
                "entries_scanned": shard.entries_scanned,
                "reads_served": {id(m): m.reads_served
                                 for m in shard.members()},
                "shipped_records": shard.shipped_records,
                "log_records": shard.wal.records_appended if shard.wal else 0,
                "log_flushes": shard.wal.flushes if shard.wal else 0,
                "failovers": shard.failovers,
                "hedged_reads": shard.hedged_reads,
                "resync_blocks": shard.resync_blocks,
            }
            for shard in self.shards
        ]

    def per_shard_delta(self, snapshot: List[dict]) -> Dict[int, dict]:
        """What each shard did since ``snapshot``, for ``RunResult``."""
        out: Dict[int, dict] = {}
        for shard, before in zip(self.shards, snapshot):
            members = shard.members()
            # Members replaced since the snapshot (re-seeds) start fresh:
            # a new device's full stats are its own delta.
            deltas = []
            for member in members:
                earlier = before["stats"].get(id(member))
                if earlier is not None:
                    deltas.append(member.device.stats.diff(earlier))
                else:
                    deltas.append(member.device.stats.snapshot())
            total = combine_stats(deltas)
            lo, hi = self.partition.range_of(shard.shard_id)
            out[shard.shard_id] = {
                "index": shard.index_name,
                "range": [lo, hi],
                "replicas": shard.replication_factor,
                "ops": {
                    kind: shard.op_counts[kind] - before["ops"].get(kind, 0)
                    for kind in shard.op_counts
                },
                "entries_scanned":
                    shard.entries_scanned - before["entries_scanned"],
                "reads": total.reads,
                "writes": total.writes,
                "elapsed_us": total.elapsed_us,
                "read_positionings": total.read_positionings,
                "write_positionings": total.write_positionings,
                "reads_served": [
                    member.reads_served
                    - before["reads_served"].get(id(member), 0)
                    for member in members
                ],
                "health": shard.health_states(),
                "failovers": shard.failovers - before.get("failovers", 0),
                "hedged_reads":
                    shard.hedged_reads - before.get("hedged_reads", 0),
                "resync_blocks":
                    shard.resync_blocks - before.get("resync_blocks", 0),
                "shipped_records":
                    shard.shipped_records - before["shipped_records"],
                "log_records":
                    (shard.wal.records_appended if shard.wal else 0)
                    - before["log_records"],
                "log_flushes":
                    (shard.wal.flushes if shard.wal else 0)
                    - before["log_flushes"],
            }
        return out
