"""Common interface of every on-disk index in the study.

All five indexes (B+-tree, FITing-tree, PGM, ALEX, LIPP) and the hybrid
designs implement :class:`DiskIndex`.  The workload runner in
:mod:`repro.workloads` only ever talks to this interface, so any future
index can be dropped into every experiment via
:func:`repro.core.registry.make_index`.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence, Tuple

from ..storage import Pager

__all__ = ["DiskIndex", "KeyPayload", "TOMBSTONE"]

KeyPayload = Tuple[int, int]

#: Reserved payload marking a logically deleted key.  Physically removing
#: an entry from a learned index would shift positions and violate the
#: trained models' error bounds, so — like LSM systems — deletes write a
#: tombstone instead.  User payloads must stay below this value when
#: deletes are used.
TOMBSTONE = 2**64 - 1


class DiskIndex(abc.ABC):
    """An updatable, disk-resident ordered index over uint64 keys.

    Concrete indexes allocate their structure through ``pager`` so that
    every block fetch is counted and charged simulated latency.  The only
    state an index may keep in main memory is what the paper allows: the
    meta block (root address, file handles, level table) — everything
    else must round-trip through the pager.
    """

    #: registry name, e.g. ``"btree"``; set by subclasses.
    name: str = "abstract"

    #: What the workload runner reports of a tier, as one flat index
    #: answers it: one shard, one copy (and, below, no per-shard
    #: breakdown).  :class:`repro.sharding.ShardedIndex` overrides them.
    num_shards = 1
    replication_factor = 1

    def __init__(self, pager: Pager) -> None:
        self.pager = pager
        #: optional :class:`repro.durability.WriteAheadLog`; when attached,
        #: the ``durable_*`` mutation paths emit logical log records.
        self.wal = None
        #: optional :class:`repro.obs.Tracer`; when attached, the workload
        #: runner scopes one trace event to each logical operation.
        self.tracer = None

    def per_shard_snapshot(self) -> Optional[list]:
        """Per-shard counters to diff a run against; a flat index has none."""
        return None

    def per_shard_delta(self, snapshot: Optional[list]) -> dict:
        """What each shard did since ``snapshot``: nothing to break down."""
        return {}

    # -- required operations -------------------------------------------------

    @abc.abstractmethod
    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        """Build the index from key-sorted, duplicate-free ``items``."""

    @abc.abstractmethod
    def lookup(self, key: int) -> Optional[int]:
        """Return the payload stored for ``key`` or None."""

    @abc.abstractmethod
    def insert(self, key: int, payload: int) -> None:
        """Insert a new key-payload pair (key must not already exist)."""

    @abc.abstractmethod
    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        """Return up to ``count`` pairs with key >= start_key, in key order."""

    def update(self, key: int, payload: int) -> bool:
        """Overwrite the payload of an existing key; False if absent."""
        raise NotImplementedError(f"{self.name} does not support updates")

    def delete(self, key: int) -> bool:
        """Remove a key; False if absent.

        Learned indexes delete logically (a :data:`TOMBSTONE` payload or a
        cleared slot): physical removal would shift positions under the
        trained models.  Space is reclaimed by the index's own SMOs
        (resegment / node rebuild / LSM merge).
        """
        raise NotImplementedError(f"{self.name} does not support deletes")

    # -- durability ------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Route this index's mutations through a write-ahead log.

        After attaching, callers that need durability use the
        ``durable_*`` methods; the plain mutation methods stay unlogged
        (bulk loads and recovery replay go through those, since their
        effects are captured by the checkpoint / are the redo itself).
        The WAL also becomes the pager's log-before-data barrier: under
        write-back, no dirty page flushes ahead of its covering records.
        """
        self.wal = wal
        self.pager.set_wal(wal)
        if self.tracer is not None:
            self.tracer.bind_wal(wal)

    def durable_insert(self, key: int, payload: int) -> None:
        """Log-then-apply insert: the logical record enters the WAL buffer
        before the index mutates, so a durable log implies a redoable op."""
        if self.wal is not None:
            self.wal.append("insert", key, payload)
        self.insert(key, payload)

    def durable_update(self, key: int, payload: int) -> bool:
        if self.wal is not None:
            self.wal.append("update", key, payload)
        return self.update(key, payload)

    def durable_delete(self, key: int) -> bool:
        if self.wal is not None:
            self.wal.append("delete", key)
        return self.delete(key)

    def flush(self) -> int:
        """Force buffered writes to the device: WAL tail, then dirty pages.

        A no-op (returning 0) for write-through configurations; under a
        write-back pager this is the explicit flush point callers use at
        phase boundaries.  Returns the number of dirty blocks written.
        """
        if self.wal is not None:
            self.wal.flush()
        return self.pager.flush()

    # -- observability -----------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Observe this index's I/O with a :class:`repro.obs.Tracer`.

        Binds the tracer to the index's pager (device access hook, buffer
        pool probes, last-block reuse) and to its WAL if one is attached.
        The workload runner then emits one trace event per operation.
        """
        self.tracer = tracer
        tracer.bind(self.pager, wal=self.wal)

    def detach_tracer(self) -> None:
        """Remove the tracer's hooks; tracing overhead drops to zero."""
        if self.tracer is not None:
            self.tracer.unbind()
            self.tracer = None

    # -- optional hooks --------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        """Pin the index's inner structure in main memory (paper Section 6.2).

        The default raises: indexes that separate inner and leaf storage
        override this.  LIPP deliberately does not (the paper excludes it
        from the hybrid experiment because its root alone is gigabytes).
        """
        raise NotImplementedError(f"{self.name} does not support memory-resident inner nodes")

    def height(self) -> int:
        """Root-to-leaf level count, for reporting."""
        raise NotImplementedError

    def verify(self) -> int:
        """Walk the whole structure checking its invariants.

        Returns the number of live (non-deleted) entries.  Raises
        ``AssertionError`` on any structural corruption.  The walk is
        served without I/O charges so it can run between measurements.
        """
        raise NotImplementedError(f"{self.name} does not implement verify")

    @contextmanager
    def _free_io(self):
        """Serve all reads without latency/charges for the duration."""
        files = list(self.pager.device.files.values())
        saved = [handle.memory_resident for handle in files]
        for handle in files:
            handle.memory_resident = True
        try:
            yield
        finally:
            for handle, was in zip(files, saved):
                handle.memory_resident = was

    def init_params(self) -> dict:
        """Constructor parameters needed to re-instantiate this index
        over a reopened device (see :mod:`repro.core.persistence`)."""
        raise NotImplementedError(f"{self.name} does not support persistence")

    def to_meta(self) -> dict:
        """The in-memory meta-block state (root address etc.) as a
        JSON-serializable dict."""
        raise NotImplementedError(f"{self.name} does not support persistence")

    def restore_meta(self, meta: dict) -> None:
        """Adopt meta-block state captured by :meth:`to_meta`."""
        raise NotImplementedError(f"{self.name} does not support persistence")

    def file_roles(self) -> dict:
        """Map each of the index's file names to ``"inner"`` or ``"leaf"``.

        Used by the Table 4 analysis to split fetched blocks into inner
        and leaf components.  LIPP maps everything to ``"leaf"`` — it has
        a single node type (the paper reports only totals for it).
        """
        return {}

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def check_bulk_items(items: Sequence[KeyPayload]) -> None:
        """Validate bulk-load input: sorted, unique, uint64-ranged keys."""
        previous = -1
        for key, _payload in items:
            if key <= previous:
                raise ValueError(
                    f"bulk load requires strictly increasing keys; got {key} after {previous}"
                )
            if not 0 <= key < 2**64:
                raise ValueError(f"key {key} out of uint64 range")
            previous = key

    def lookup_many(self, keys: Iterable[int]) -> List[Optional[int]]:
        """Batched point lookups; results match ``[lookup(k) for k in keys]``.

        The base implementation sorts and dedups the key batch and runs
        the per-key lookups inside one :meth:`Pager.batch` pin scope, so
        blocks shared between keys (inner nodes, a shared leaf) are
        fetched once and accesses proceed in key order — physically
        adjacent leaves ride the sequential rate.  Indexes with separated
        leaf storage override this with a truly coalesced two-phase path.
        """
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        results = {}
        with self.pager.batch():
            for key in sorted(set(keys)):
                results[key] = self.lookup(key)
        return [results[key] for key in keys]

    def scan_range(self, low: int, high: int, batch: int = 256) -> List[KeyPayload]:
        """All pairs with ``low <= key <= high``, in key order.

        A convenience wrapper over :meth:`scan` that pages through the
        range in ``batch``-sized chunks.  The batch pin scope keeps the
        chunked paging from re-fetching the same inner path per chunk;
        indexes with a leaf sibling chain override this with a single
        descent followed by coalesced leaf reads.
        """
        if high < low:
            return []
        out: List[KeyPayload] = []
        start = low
        with self.pager.batch():
            while True:
                chunk = self.scan(start, batch)
                for key, payload in chunk:
                    if key > high:
                        return out
                    out.append((key, payload))
                if len(chunk) < batch:
                    return out
                start = chunk[-1][0] + 1
