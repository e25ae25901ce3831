"""Op-scoped structured tracing.

One :class:`Tracer` observes every layer of the stack at once:

* the :class:`~repro.storage.BlockDevice` per-access hook attributes each
  charged block read/write (and its simulated cost) to the operation in
  flight, by phase;
* the buffer pool reports hits and misses, the pager reports last-block
  reuse hits;
* the write-ahead log reports group-commit flushes.

Between :meth:`begin_op` and :meth:`end_op` everything accumulates into
one *span*; ``end_op`` freezes the span into an event dict and appends it
to a bounded ring buffer.  I/O observed outside any span (bulk loads,
recovery, the WAL's tail flush) accumulates into a single *background*
record, and events evicted from the ring buffer are folded into one
*evicted* record instead of being dropped — so the exported trace always
accounts for every charged access:

    sum over all exported records of reads/writes/µs per phase
        == the device's ``StorageStats`` delta since :meth:`bind`.

The tracer also keeps per-phase running totals updated access-by-access
in exactly the order the device updates ``StorageStats``, so the
``summary`` record's µs figures are bitwise identical to the device's
(same float additions in the same sequence), not merely close.

When no tracer is bound the hooks are ``None`` and every layer pays one
attribute check per access — the disabled path stays allocation-free.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

__all__ = ["Tracer", "TRACE_SCHEMA_VERSION"]

#: Bumped whenever the exported record layout changes.
#: 2: added per-span ``flushes``/``flushed_blocks``/``dirty_evictions``
#: (write-back pager events; their I/O costs flow through the per-access
#: hook as before, so the exactness invariant is unchanged).
#: 3: added per-span ``io_retries``/``checksum_failures``/``repaired_blocks``
#: (self-healing storage).  Retry backoff is charged as latency without a
#: block transfer, so :meth:`Tracer.io_retry` folds it into the span's and
#: the running ``us_by_phase`` totals directly — reconciliation stays
#: bitwise.
#: 4: added per-span ``latch_waits``/``latch_wait_us`` (concurrent
#: serving engine).  Latch stalls are charged like retry backoff — pure
#: latency under the ``"latch"`` phase, no block transferred — so
#: :meth:`Tracer.latch_wait` folds them into the span's and the running
#: ``us_by_phase`` totals the same way, keeping reconciliation bitwise.
#: 5: added per-span ``failovers``/``hedged_reads``/``resync_blocks``/
#: ``shed_ops`` (fault-tolerant sharded serving).  All four are pure
#: counters: their I/O costs (WAL redo, replayed records, re-issued
#: reads) flow through the per-access hook and the existing
#: ``io_retry`` latency path, so the exactness invariant is unchanged.
TRACE_SCHEMA_VERSION = 5


def _blank_span(type_: str) -> dict:
    return {
        "type": type_,
        "us": 0.0,
        "reads": {},
        "writes": {},
        "us_by_phase": {},
        "files": {},
        "pool_hits": 0,
        "pool_misses": 0,
        "reuse_hits": 0,
        "coalesced_runs": 0,
        "coalesced_blocks": 0,
        "wal_records": 0,
        "wal_flushes": 0,
        "flushes": 0,
        "flushed_blocks": 0,
        "dirty_evictions": 0,
        "io_retries": 0,
        "checksum_failures": 0,
        "repaired_blocks": 0,
        "latch_waits": 0,
        "latch_wait_us": 0.0,
        "failovers": 0,
        "hedged_reads": 0,
        "resync_blocks": 0,
        "shed_ops": 0,
    }


class Tracer:
    """Structured event recorder with a bounded ring buffer.

    Args:
        capacity: maximum op events retained; older events are folded
            into the ``evicted`` aggregate (their I/O is never lost, only
            their per-op identity).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: Deque[dict] = deque()
        self.dropped_ops = 0
        self._evicted = _blank_span("evicted")
        self._background = _blank_span("background")
        self._current: Optional[dict] = None
        self._wal = None
        self._wal_records_at_begin = 0
        # Per-phase running totals, accumulated access-by-access in the
        # same order as the device's StorageStats (bitwise reconciliation).
        self._total_reads: Dict[str, int] = {}
        self._total_writes: Dict[str, int] = {}
        self._total_us: Dict[str, float] = {}
        self._pagers: List[object] = []

    def __len__(self) -> int:
        return len(self.events)

    # -- wiring ------------------------------------------------------------

    def bind(self, pager, wal=None) -> None:
        """Subscribe to a pager's device, buffer pool, and optionally a WAL.

        A tracer may be bound to several pagers (a benchmark builds one
        device per experiment cell); totals then cover all of them.
        """
        if pager not in self._pagers:
            pager.device.on_access = self._on_access
            pager.device.on_run = self._on_run
            pager.device.on_fault = self._on_fault
            pager.tracer = self
            if pager.buffer_pool is not None:
                pager.buffer_pool.listener = self
            self._pagers.append(pager)
        if wal is not None:
            self.bind_wal(wal)

    def bind_wal(self, wal) -> None:
        self._wal = wal
        wal.on_flush = self._on_wal_flush

    def unbind(self) -> None:
        """Detach all hooks; the traced components return to zero overhead."""
        for pager in self._pagers:
            pager.device.on_access = None
            pager.device.on_run = None
            pager.device.on_fault = None
            pager.tracer = None
            if pager.buffer_pool is not None:
                pager.buffer_pool.listener = None
        self._pagers.clear()
        if self._wal is not None:
            self._wal.on_flush = None
            self._wal = None

    @property
    def devices(self) -> list:
        """The devices currently observed (for reconciliation checks)."""
        return [pager.device for pager in self._pagers]

    # -- span lifecycle ----------------------------------------------------

    def begin_op(self, op: str, key: int, op_index: int) -> None:
        """Open a span; all hook callbacks accumulate into it until end_op."""
        if self._current is not None:
            raise RuntimeError(
                f"op span {self._current['i']} still open; end_op it first")
        span = _blank_span("op")
        span["i"] = op_index
        span["op"] = op
        span["key"] = key
        self._current = span
        self._wal_records_at_begin = (
            self._wal.records_appended if self._wal is not None else 0)

    def end_op(self) -> dict:
        """Close the current span, ring-buffer it, and return the event."""
        span = self._current
        if span is None:
            raise RuntimeError("no op span open")
        self._current = None
        if self._wal is not None:
            span["wal_records"] = (
                self._wal.records_appended - self._wal_records_at_begin)
        span["us"] = sum(span["us_by_phase"].values())
        self.events.append(span)
        if len(self.events) > self.capacity:
            self._fold(self.events.popleft())
        return span

    @contextmanager
    def op(self, op: str, key: int, op_index: int) -> Iterator[dict]:
        """Context-manager form of begin_op/end_op."""
        self.begin_op(op, key, op_index)
        try:
            yield self._current
        finally:
            self.end_op()

    def _fold(self, event: dict) -> None:
        agg = self._evicted
        agg["us"] += event["us"]
        for field in ("reads", "writes", "files"):
            for k, v in event[field].items():
                agg[field][k] = agg[field].get(k, 0) + v
        for k, v in event["us_by_phase"].items():
            agg["us_by_phase"][k] = agg["us_by_phase"].get(k, 0.0) + v
        for field in ("pool_hits", "pool_misses", "reuse_hits",
                      "coalesced_runs", "coalesced_blocks",
                      "wal_records", "wal_flushes",
                      "flushes", "flushed_blocks", "dirty_evictions",
                      "io_retries", "checksum_failures", "repaired_blocks",
                      "latch_waits", "latch_wait_us",
                      "failovers", "hedged_reads", "resync_blocks",
                      "shed_ops"):
            agg[field] += event[field]
        self.dropped_ops += 1

    # -- hook callbacks ----------------------------------------------------

    def _on_access(self, kind: str, file_name: str, block_no: int,
                   phase: str, cost_us: float) -> None:
        """BlockDevice hook: one charged block access ("r" or "w")."""
        span = self._current if self._current is not None else self._background
        target = span["reads"] if kind == "r" else span["writes"]
        target[phase] = target.get(phase, 0) + 1
        span["us_by_phase"][phase] = span["us_by_phase"].get(phase, 0.0) + cost_us
        span["files"][file_name] = span["files"].get(file_name, 0) + 1
        totals = self._total_reads if kind == "r" else self._total_writes
        totals[phase] = totals.get(phase, 0) + 1
        self._total_us[phase] = self._total_us.get(phase, 0.0) + cost_us

    def pool_hit(self) -> None:
        span = self._current if self._current is not None else self._background
        span["pool_hits"] += 1

    def pool_miss(self) -> None:
        span = self._current if self._current is not None else self._background
        span["pool_misses"] += 1

    def reuse_hit(self) -> None:
        """Pager served the read from its one-block reuse cache."""
        span = self._current if self._current is not None else self._background
        span["reuse_hits"] += 1

    def _on_run(self, file_name: str, run_length: int) -> None:
        """BlockDevice hook: a multi-block contiguous run was coalesced."""
        span = self._current if self._current is not None else self._background
        span["coalesced_runs"] += 1
        span["coalesced_blocks"] += run_length

    def _on_wal_flush(self, records: int, blocks: int) -> None:
        span = self._current if self._current is not None else self._background
        span["wal_flushes"] += 1

    def pager_flush(self, blocks: int) -> None:
        """Write-back pager flushed ``blocks`` dirty pages in coalesced runs.

        The flush's block writes were already attributed access-by-access
        via :meth:`_on_access` (under the ``"flush"`` phase), so this only
        counts the event — typically it lands in the background record,
        as flushes happen at phase boundaries, outside any op span.
        """
        span = self._current if self._current is not None else self._background
        span["flushes"] += 1
        span["flushed_blocks"] += blocks

    def dirty_eviction(self) -> None:
        """Buffer pool evicted a dirty frame; the pager wrote it back."""
        span = self._current if self._current is not None else self._background
        span["dirty_evictions"] += 1

    def io_retry(self, phase: str, backoff_us: float) -> None:
        """Pager reissued a read after a transient device error.

        The backoff is pure latency — no block transferred — so it does
        not pass through :meth:`_on_access`; it is added to the span's
        and the running per-phase µs totals here, mirroring the order the
        device charges it, to keep reconciliation bitwise.
        """
        span = self._current if self._current is not None else self._background
        span["io_retries"] += 1
        span["us_by_phase"][phase] = span["us_by_phase"].get(phase, 0.0) + backoff_us
        self._total_us[phase] = self._total_us.get(phase, 0.0) + backoff_us

    def latch_wait(self, backoff_us: float) -> None:
        """Serving engine stalled the current op on another session's latch.

        Like :meth:`io_retry`, the stall is pure latency — no block
        transferred — so it does not pass through :meth:`_on_access`; it
        is added to the span's and the running per-phase µs totals here
        (under the ``"latch"`` phase), mirroring the order the device
        charges it, to keep reconciliation bitwise.
        """
        span = self._current if self._current is not None else self._background
        span["latch_waits"] += 1
        span["latch_wait_us"] += backoff_us
        span["us_by_phase"]["latch"] = span["us_by_phase"].get("latch", 0.0) + backoff_us
        self._total_us["latch"] = self._total_us.get("latch", 0.0) + backoff_us

    def _on_fault(self, kind: str, file_name: str, block_no: int) -> None:
        """BlockDevice hook: the read path hit an injected fault.

        ``kind`` is ``"checksum"``, ``"transient"``, or ``"persistent"``.
        Only checksum failures are counted per span — transient errors
        surface as :meth:`io_retry` calls and persistent ones as the
        exception ending the span.
        """
        if kind != "checksum":
            return
        span = self._current if self._current is not None else self._background
        span["checksum_failures"] += 1

    def blocks_repaired(self, count: int) -> None:
        """The repair path rewrote ``count`` corrupt blocks from redo."""
        span = self._current if self._current is not None else self._background
        span["repaired_blocks"] += count

    def failover(self) -> None:
        """A shard promoted a replica after quarantining its primary.

        Pure counter: the failover's WAL scan, redo and log rebuild all
        charge through :meth:`_on_access` as ordinary block I/O.
        """
        span = self._current if self._current is not None else self._background
        span["failovers"] += 1

    def hedged_read(self) -> None:
        """A read was re-issued on another healthy replica."""
        span = self._current if self._current is not None else self._background
        span["hedged_reads"] += 1

    def resync(self, blocks: int) -> None:
        """Catch-up resync replayed the missed WAL suffix from ``blocks``."""
        span = self._current if self._current is not None else self._background
        span["resync_blocks"] += blocks

    def shed_op(self) -> None:
        """The serving engine shed an op on a fault no member absorbed."""
        span = self._current if self._current is not None else self._background
        span["shed_ops"] += 1

    # -- export ------------------------------------------------------------

    def totals(self) -> dict:
        """Per-phase totals over everything observed since bind()."""
        return {
            "reads": dict(self._total_reads),
            "writes": dict(self._total_writes),
            "us": dict(self._total_us),
        }

    def iter_records(self) -> Iterator[dict]:
        """All exportable records: summary, evicted, background, then ops.

        The summary's totals are authoritative (bitwise equal to the
        device counters); summing the remaining records reproduces them.
        """
        totals = self.totals()
        yield {
            "type": "summary",
            "schema": TRACE_SCHEMA_VERSION,
            "events": len(self.events),
            "dropped_ops": self.dropped_ops,
            "reads": totals["reads"],
            "writes": totals["writes"],
            "us_by_phase": totals["us"],
        }
        if self.dropped_ops:
            record = dict(self._evicted)
            record["ops_folded"] = self.dropped_ops
            yield record
        yield dict(self._background)
        for event in self.events:
            yield event

    def export_jsonl(self, path: str) -> int:
        """Write one JSON record per line; returns the number of lines."""
        lines = 0
        with open(path, "w") as handle:
            for record in self.iter_records():
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
                lines += 1
        return lines
