"""The sharded tier: a :class:`DiskIndex` made of independent shards.

:class:`ShardedIndex` composes a :class:`~repro.sharding.partition.RangePartition`,
N :class:`~repro.sharding.shard.Shard` replica groups and a
:class:`~repro.sharding.router.Router` behind the ordinary
:class:`~repro.core.DiskIndex` interface, so every existing consumer —
the workload runner, the serving engine, the differential oracle, the
fault injector — drives a whole sharded tier exactly as it drives one
index.

A tier has no one pager, device or log.  What a consumer asks of the
stack below an index (:meth:`~repro.core.DiskIndex.pagers`, ``logs``,
``storage_stats``, ``clock``, the latch charge, the access hook, the
group-commit schedule) the tier answers from its members: stats sum
live members in shard and member order, then the retired ones; file
names take an ``s<i>:`` / ``s<i>r<j>:`` prefix; a record's seqno is its
shard's.  Writes route to the owning shard's primary; the plain
mutation methods stay unlogged and the ``durable_*`` paths log first,
matching the base class convention.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import fields as dataclass_fields
from typing import Dict, Iterable, List, Optional, Sequence

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


class ShardedIndex(DiskIndex):
    """A range-partitioned, replicated tier behind the DiskIndex API.

    Build one with :func:`repro.sharding.make_sharded_index` or
    :func:`repro.stack.build` rather than by hand: they cut the
    partition and build the shards.
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
        # A tier has no one device, pager or log; the layers benchmark's
        # build_stack still reads these (benchmarks/layers/workloads.py,
        # ROADMAP item 12) and never dereferences them for a tier.
        self.device = self.pager = self.wal = None
        self.tracer = None
        self._access_hook = None
        for shard in self.shards:
            shard.on_members_changed = self._install_access_hook

    def _members(self):
        """``(file-name prefix, member)`` of every live member, in shard
        and member order."""
        for shard in self.shards:
            for j, member in enumerate(shard.members()):
                yield member_prefix(shard.shard_id, j), member

    def _device_stats(self) -> List[StorageStats]:
        """Live members' stats in shard and member order, then the
        retired ones (members replaced by a re-seed), which stay in the
        sums so the tier's counters never move backwards."""
        return ([member.device.stats for shard in self.shards
                 for member in shard.members()]
                + [stats for shard in self.shards
                   for stats in shard.retired_stats])

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
    def hedged_reads(self) -> int:
        return sum(shard.hedged_reads for shard in self.shards)

    @property
    def resync_blocks(self) -> int:
        return sum(shard.resync_blocks for shard in self.shards)

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

    def _lookup_sorted(self, keys: List[int]) -> Dict[int, Optional[int]]:
        """Each shard answers its run of the sorted keys, in shard order."""
        groups: Dict[int, List[int]] = {}
        for key in keys:
            groups.setdefault(self.partition.shard_of(key), []).append(key)
        found: Dict[int, Optional[int]] = {}
        for shard_id, group in groups.items():
            found.update(zip(group, self.shards[shard_id].lookup_many(group)))
        return found

    def insert(self, key: int, payload: int) -> None:
        self._owner(key).apply("insert", key, payload, log=False)

    def update(self, key: int, payload: int) -> bool:
        return bool(self._owner(key).apply("update", key, payload, log=False))

    def delete(self, key: int) -> bool:
        return bool(self._owner(key).apply("delete", key, log=False))

    def durable_insert(self, key: int, payload: int) -> None:
        if self.logs():
            self.log("insert", key, payload)
        self.insert(key, payload)

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

    def logs(self) -> list:
        """Each shard's current log: failover and recovery replace it."""
        return [shard.wal for shard in self.shards if shard.wal is not None]

    def log(self, op: str, key: int, payload: int = 0) -> int:
        seqno = self._owner(key).append_log(op, key, payload)
        if seqno is None:
            raise RuntimeError("append on a shard without durability")
        return seqno

    def durable_seqno(self, key: int) -> int:
        return self._owner(key).wal.durable_seqno

    # -- the members' storage -------------------------------------------------

    def pagers(self) -> Dict[str, object]:
        return {prefix: member.pager for prefix, member in self._members()}

    def storage_stats(self) -> StorageStats:
        return combine_stats(self._device_stats())

    def clock(self) -> "ShardedIndex":
        """The tier itself: :attr:`elapsed_us` sums the members' clocks."""
        return self

    @property
    def elapsed_us(self) -> float:
        """``storage_stats().elapsed_us`` without building the stats: the
        same float additions in the same order, so bit-identical."""
        total = 0.0
        for stats in self._device_stats():
            total += stats.elapsed_us
        return total

    def charge_latch_wait(self, cost_us: float) -> None:
        # Shard 0's primary carries the latch charges; the sums add them.
        self.shards[0].primary.device.charge_latch_wait(cost_us)

    @contextmanager
    def access_hook(self, hook):
        saved, self._access_hook = self._access_hook, hook
        self._install_access_hook()
        try:
            yield
        finally:
            self._access_hook = saved
            self._install_access_hook()

    def _install_access_hook(self) -> None:
        """Wrap the hook per member so it sees prefixed file names; run
        again after a membership change, for the new member's pager."""
        hook = self._access_hook
        for prefix, member in self._members():
            member.pager.on_block_access = None if hook is None else (
                lambda mode, name, block_no, _p=prefix: hook(mode, _p + name, block_no))

    # -- observability -------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        raise NotImplementedError(
            "tracer binding is per-device; attach it to a member index "
            "(shard.primary.index.attach_tracer) instead of the tier")

    # -- optional hooks ------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        for _, member in self._members():
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
        return {prefix + name: role for prefix, member in self._members()
                for name, role in member.index.file_roles().items()}

    @contextmanager
    def _free_io(self):
        with ExitStack() as stack:
            for _, member in self._members():
                stack.enter_context(member.index._free_io())
            yield

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
