"""Byte-addressed access path on top of the block device.

Indexes address their data as ``(file, byte offset)``; the pager maps
offsets to blocks and fetches exactly the covering blocks.  This is what
makes the paper's shortcoming **S1** (the learned model living in a
different block than the predicted slot) emerge naturally: a node header
at offset 0 and a slot 6000 bytes later really are two block fetches.

The pager layers three caches in front of the device:

1. *memory-resident files* — Section 6.2's "inner nodes in RAM" case;
   served free, not counted.
2. the *last fetched block* — the paper's default configuration keeps no
   buffer pool but "checks whether the last block fetched can be reused"
   (Section 6.5).  It is the one block held anywhere: an index asks
   :meth:`Pager.view` for each range it reads and keeps no block of its
   own.
3. an optional LRU :class:`~repro.storage.buffer_pool.BufferPool`
   (Section 6.6).

With ``write_back=True`` the buffer pool additionally absorbs writes:
:meth:`Pager.write_block` marks the frame dirty instead of writing
through, and dirty pages reach the device only at a dirty eviction, an
explicit :meth:`Pager.flush`, or a checkpoint — always via the device's
coalescing :meth:`~repro.storage.device.BlockDevice.write_blocks`, so a
flush charges one positioning per contiguous dirty run instead of one
per block.  Durability is preserved by a log-before-data barrier: when a
:class:`~repro.durability.WriteAheadLog` is attached (see
:meth:`set_wal`), no dirty page reaches disk before the WAL records
covering it are durable.

The pager is also where storage faults are absorbed: transient device
read errors are retried with exponential backoff (charged as simulated
latency under the current phase), :meth:`scrub` walks allocated blocks
verifying their checksum envelopes, and :meth:`quarantine` pins a
known-good copy of a suspect block in the buffer pool so it cannot be
evicted while the device copy awaits repair.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .buffer_pool import BufferPool
from .device import BlockDevice, BlockFile, _PhaseScope
from .integrity import (ChecksumError, PersistentIOError, ScrubReport,
                        TransientIOError)

__all__ = ["Pager"]

#: How many times a transient device read error is retried (with
#: exponential backoff charged as simulated latency) before it escalates
#: to ``PersistentIOError``.
MAX_READ_RETRIES = 4


class Pager:
    """Read/write path with last-block reuse and optional buffer pool.

    Args:
        device: the simulated disk.
        buffer_pool: optional LRU cache; None reproduces the paper's
            default no-buffer-management setting.
        write_back: buffer writes in the pool as dirty frames and flush
            them in coalesced runs instead of writing through.  Requires
            a buffer pool with non-zero capacity (the dirty pages live in
            its frames).

    The one-block cache of the most recently fetched block (the paper's
    Section 6.5 behaviour) is always on; :meth:`drop_last_block` empties
    it.
    """

    def __init__(
        self,
        device: BlockDevice,
        buffer_pool: Optional[BufferPool] = None,
        write_back: bool = False,
    ) -> None:
        if write_back and (buffer_pool is None or buffer_pool.capacity == 0):
            raise ValueError(
                "write_back requires a buffer pool with non-zero capacity "
                "(dirty pages live in its frames)")
        self.device = device
        #: fixed for the device's lifetime, so a plain attribute
        self.block_size = device.block_size
        self.buffer_pool = buffer_pool
        self.write_back = write_back
        #: blocks whose device copy is suspect and whose good copy is
        #: pinned in the buffer pool, as (file_name, block_no)
        self._quarantined: Set[Tuple[str, int]] = set()
        self._last: Optional[Tuple[str, int, bytes]] = None
        #: batch pin cache: while inside :meth:`batch`, every block that
        #: crosses the pager is pinned here so repeated accesses within
        #: the batch (shared inner-node descents) are free.
        self._batch_depth = 0
        self._batch_cache: Dict[Tuple[str, int], bytes] = {}
        self._batch_scope = _BatchScope(self)
        #: optional :class:`repro.obs.Tracer`, set by ``Tracer.bind``;
        #: consulted on last-block reuse hits (the one cache level the
        #: device and buffer pool cannot see) and on flush events.
        self.tracer = None
        #: optional hook ``(kind, file_name, block_no)`` with kind
        #: "r"/"w", fired for *every* block that crosses the pager —
        #: cache hits included, unlike the device's ``on_access`` —
        #: because a latch protects the frame regardless of where its
        #: bytes are served from.  Set by the serving engine
        #: (:mod:`repro.serving`) to collect each operation's frame
        #: footprint; None keeps the hot path to one attribute check.
        self.on_block_access = None
        #: optional :class:`repro.durability.WriteAheadLog` whose durable
        #: high-water mark gates dirty-page flushes (log before data).
        self._wal = None
        #: per-dirty-page covering LSN: the highest WAL seqno appended
        #: before the page was last written.  The page may only reach
        #: disk once ``wal.durable_seqno`` has caught up with it.
        self._dirty_lsn: Dict[Tuple[str, int], int] = {}
        self.flushes = 0          # explicit flush calls that wrote
        self.flushed_blocks = 0   # dirty blocks written by those flushes
        #: per-frame parsed values (DESIGN.md §15): ``(file, block)`` ->
        #: ``(bytes_ref, value)``.  Entries are validated by *object
        #: identity* against the block bytes the caller just read
        #: through the pager, so a write (which always produces a new
        #: bytes object) can never be served a stale value; the explicit
        #: invalidation below and the pool's ``on_drop`` hook are memory
        #: hygiene on top of that guarantee.
        self._meta_cache: "OrderedDict[Tuple[str, int], tuple]" = OrderedDict()
        self.meta_cache_capacity = 4096
        if write_back:
            buffer_pool.on_evict = self._flush_evicted_frame
        if buffer_pool is not None:
            buffer_pool.on_drop = self._drop_cached_keys

    @property
    def stats(self):
        return self.device.stats

    # -- phase attribution -------------------------------------------------

    def phase(self, name: str) -> "_PhaseScope":
        """Attribute all I/O inside the ``with`` block to ``name`` (see
        Figure 6); the previous phase is restored on exit, also when the
        block raises."""
        return _PhaseScope(self.device, name)

    # -- fault absorption ----------------------------------------------------

    def _retrying(self, read):
        """Run a device read, absorbing transient errors with backoff.

        Each retry charges an exponentially growing backoff (base: the
        profile's random-read positioning cost — the natural "reissue the
        request" unit) as simulated latency under the current phase and
        counts into ``stats.io_retries``.  A stalled request
        (``MemberStallError``) additionally charges the hang itself —
        the time the request sat in the device queue before timing out —
        so a stalling member is slow in virtual time.  After
        :data:`MAX_READ_RETRIES` failed retries the error escalates to
        ``PersistentIOError`` for the quarantine/repair machinery.
        ``ChecksumError`` is never retried: the damage is on the medium
        and deterministic.
        """
        retries = 0
        while True:
            try:
                return read()
            except TransientIOError as fault:
                if retries >= MAX_READ_RETRIES:
                    raise PersistentIOError(
                        fault.file_name, fault.block_no,
                        f"transient error persisted through {retries} retries",
                    ) from fault
                retries += 1
                backoff = getattr(fault, "stall_us", 0.0)
                backoff += (self.device.profile.read_positioning_us
                           * (2 ** (retries - 1)))
                self.device.stats.io_retries += 1
                self.device.charge_latency(backoff)
                if self.tracer is not None:
                    self.tracer.io_retry(self.device.phase, backoff)

    def _device_read_blocks(self, file: BlockFile, block_nos: List[int]) -> List[bytes]:
        # A transient error mid-span reissues the whole vectorized read;
        # already-transferred blocks are re-charged, as a reissued DMA
        # request would be.
        if self.device.fault_model is None:
            return self.device.read_blocks(file, block_nos)
        return self._retrying(lambda: self.device.read_blocks(file, block_nos))

    # -- block-level API -----------------------------------------------------

    def read_block(self, file: BlockFile, block_no: int) -> bytes:
        """Read one block through the cache hierarchy."""
        if self.on_block_access is not None:
            self.on_block_access("r", file.name, block_no)
        if file.memory_resident:
            # A write-back pager's dirty frames are the authoritative
            # copy — the device bytes are stale until the next flush —
            # so free reads must still see them (recency-neutral peek).
            if self.write_back:
                dirty = self.buffer_pool.peek_dirty(file.name, block_no)
                if dirty is not None:
                    return dirty
            return self.device.read_block(file, block_no)
        if self._batch_depth:
            pinned = self._batch_cache.get((file.name, block_no))
            if pinned is not None:
                if self.tracer is not None:
                    self.tracer.reuse_hit()
                return pinned
        if self._last is not None:
            name, no, data = self._last
            if name == file.name and no == block_no:
                if self.tracer is not None:
                    self.tracer.reuse_hit()
                if self._batch_depth:
                    # "Pin every block touched until exit" includes blocks
                    # served by the last-block cache: without the pin, the
                    # block would be re-charged later in the batch once
                    # another read evicts it from the one-entry cache.
                    self._batch_cache[(file.name, block_no)] = data
                return data
        if self.buffer_pool is not None:
            cached = self.buffer_pool.get(file.name, block_no)
            if cached is not None:
                self._last = (file.name, block_no, cached)
                if self._batch_depth:
                    self._batch_cache[(file.name, block_no)] = cached
                return cached
        device = self.device
        if device.fault_model is None:
            # Transient faults only come from an injected fault model;
            # without one the retry trampoline (and its per-read
            # closure) is dead weight on the hot path.
            data = device.read_block(file, block_no)
        else:
            data = self._retrying(lambda: device.read_block(file, block_no))
        if self.buffer_pool is not None:
            self.buffer_pool.put(file.name, block_no, data)
        self._last = (file.name, block_no, data)
        if self._batch_depth:
            self._batch_cache[(file.name, block_no)] = data
        return data

    def write_block(self, file: BlockFile, block_no: int, data: bytes) -> None:
        """Write one block, refreshing caches.

        Write-through (default): the block goes straight to the device.
        Write-back: the payload is cached as a dirty frame and reaches
        the device later, in a coalesced flush run.
        """
        if self.on_block_access is not None:
            self.on_block_access("w", file.name, block_no)
        if self._meta_cache:
            self._meta_cache.pop((file.name, block_no), None)
        if self.write_back and not file.memory_resident:
            self._buffer_write(file, block_no, data)
            return
        self.device.write_block(file, block_no, data)
        if file.memory_resident:
            return
        payload = bytes(data)
        if self.buffer_pool is not None:
            self.buffer_pool.put(file.name, block_no, payload)
        self._last = (file.name, block_no, payload)
        if self._batch_depth:
            self._batch_cache[(file.name, block_no)] = payload

    def _buffer_write(self, file: BlockFile, block_no: int, data: bytes) -> None:
        """Absorb one write into the pool as a dirty frame (write-back)."""
        if not 0 <= block_no < file.num_blocks:
            raise ValueError(
                f"block {block_no} out of range for file {file.name!r} "
                f"({file.num_blocks} blocks)")
        if len(data) != self.block_size:
            raise ValueError(
                f"write must be exactly one block ({self.block_size} bytes), "
                f"got {len(data)}")
        payload = bytes(data)
        key = (file.name, block_no)
        # The covering LSN: the index logs before it applies, so the
        # highest seqno appended so far covers the page as written now.
        # It is stamped before the frame enters the pool: when every
        # other frame is pinned the pool evicts this one at once, and
        # its write-back must find the LSN (log before data).
        wal = self._wal
        self._dirty_lsn[key] = 0 if wal is None else wal.next_seqno - 1
        self.buffer_pool.put_dirty(key, payload)
        self._last = (file.name, block_no, payload)
        if self._batch_depth:
            self._batch_cache[key] = payload

    def write_blocks(
        self,
        file: BlockFile,
        writes: Iterable[Tuple[int, bytes]],
        through: bool = False,
    ) -> None:
        """Write several blocks of one file, coalescing contiguous runs.

        In write-through mode (or with ``through=True``, which forces
        the device path even under write-back — e.g. a WAL flush that
        must be durable *now*), the sorted pairs go to the device in one
        :meth:`BlockDevice.write_blocks` call charging one positioning
        per contiguous run.  In write-back mode the pairs become dirty
        frames, exactly as per-block :meth:`write_block` calls would.
        """
        pairs = sorted(writes)
        if not pairs:
            return
        if self.on_block_access is not None:
            for block_no, _data in pairs:
                self.on_block_access("w", file.name, block_no)
        for block_no, _data in pairs:
            self._drop_cached_keys(file.name, block_no)
        if self.write_back and not through and not file.memory_resident:
            for block_no, data in pairs:
                self._buffer_write(file, block_no, data)
            return
        self.device.write_blocks(file, pairs)
        if file.memory_resident:
            return
        payloads = {no: bytes(data) for no, data in pairs}
        if self.buffer_pool is not None:
            if through and self.write_back:
                # A forced write-through supersedes any buffered dirty
                # copy of the same blocks: refresh and clean the frames.
                self.buffer_pool.put_many(file.name, payloads)
                keys = [(file.name, no) for no in payloads]
                self.buffer_pool.mark_clean(keys)
                for key in keys:
                    self._dirty_lsn.pop(key, None)
            else:
                self.buffer_pool.put_many(file.name, payloads)
        top = pairs[-1][0]
        self._last = (file.name, top, payloads[top])
        if self._batch_depth:
            for no, payload in payloads.items():
                self._batch_cache[(file.name, no)] = payload

    # -- write-back flushing -------------------------------------------------

    def set_wal(self, wal) -> None:
        """Attach the write-ahead log whose durability gates page flushes.

        After this, no dirty page reaches the device before the WAL
        records covering it (appended up to the page's last write) are
        durable — the classic log-before-data rule.
        """
        self._wal = wal

    def _ensure_wal_durable(self, lsn: int) -> None:
        """Force the WAL durable up to ``lsn`` before data hits disk."""
        if lsn and self._wal is not None and self._wal.durable_seqno < lsn:
            self._wal.flush()

    @property
    def dirty_blocks(self) -> int:
        """Number of dirty pages currently buffered (0 unless write-back)."""
        if self.buffer_pool is None:
            return 0
        return self.buffer_pool.dirty_count

    @property
    def dirty_evictions(self) -> int:
        """Dirty frames written back at eviction so far (0 without a pool)."""
        if self.buffer_pool is None:
            return 0
        return self.buffer_pool.dirty_evictions

    def flush(self, file_name: Optional[str] = None) -> int:
        """Write all dirty pages (optionally of one file) in coalesced runs.

        Called at workload phase boundaries, at checkpoints, and before
        handing a file's device image to anyone who will read it without
        this pager (e.g. :func:`~repro.storage.persist.save_device`).
        Charges I/O under the ``"flush"`` phase: one positioning per
        contiguous dirty run plus sequential transfers.  Returns the
        number of blocks written.
        """
        if self.buffer_pool is None:
            return 0
        dirty = self.buffer_pool.dirty_items(file_name)
        if not dirty:
            return 0
        self._ensure_wal_durable(
            max(self._dirty_lsn.get(key, 0) for key in dirty))
        by_file: Dict[str, List[Tuple[int, bytes]]] = {}
        for (fname, block_no), data in dirty.items():
            by_file.setdefault(fname, []).append((block_no, data))
        written = 0
        previous = self.device.set_phase("flush")
        try:
            for fname, pairs in sorted(by_file.items()):
                pairs.sort()
                self.device.write_blocks(self.device.get_file(fname), pairs)
                written += len(pairs)
        finally:
            self.device.set_phase(previous)
        self.buffer_pool.mark_clean(dirty.keys())
        for key in dirty:
            self._dirty_lsn.pop(key, None)
        self.flushes += 1
        self.flushed_blocks += written
        if self.tracer is not None:
            self.tracer.pager_flush(written)
        return written

    def _flush_evicted_frame(self, file_name: str, block_no: int,
                             data: bytes) -> None:
        """Write back one dirty frame the pool just evicted.

        Invoked by the pool *after* the frame left it, so the WAL flush
        forced by the log-before-data barrier (which may itself touch the
        pool) cannot recurse into this eviction.
        """
        key = (file_name, block_no)
        self._ensure_wal_durable(self._dirty_lsn.pop(key, 0))
        previous = self.device.set_phase("flush")
        try:
            self.device.write_blocks(self.device.get_file(file_name),
                                     [(block_no, data)])
        finally:
            self.device.set_phase(previous)
        if self.tracer is not None:
            self.tracer.dirty_eviction()

    def drop_dirty(self) -> int:
        """Discard every dirty page without writing it (simulated crash).

        The frames are *removed* from the pool — after a crash the only
        trustworthy copy is the device's, and recovery must re-read it.
        Returns the number of pages dropped.
        """
        if self.buffer_pool is None:
            return 0
        dirty = list(self.buffer_pool.dirty_items())
        for fname, block_no in dirty:
            self.buffer_pool.invalidate(fname, block_no)
            if (self._last is not None and self._last[0] == fname
                    and self._last[1] == block_no):
                self._last = None
            self._batch_cache.pop((fname, block_no), None)
            self._drop_cached_keys(fname, block_no)
        self._dirty_lsn.clear()
        return len(dirty)

    # -- batched API ---------------------------------------------------------

    def batch(self) -> "_BatchScope":
        """Pin every block touched until exit (re-entrant).

        Inside the ``with`` block, any block that crosses the pager stays
        addressable for free, so a batch of lookups shares one fetch of
        each inner node instead of re-reading it per key.  Writes refresh
        the pinned copy, keeping results byte-identical to unbatched
        execution.  The pin cache is dropped when the outermost batch
        exits.  The scope keeps no state of its own (the depth lives on
        the pager), so one object serves every entry.
        """
        return self._batch_scope

    def read_span(self, file: BlockFile, block_nos: Iterable[int]) -> Dict[int, bytes]:
        """Read a set of blocks, coalescing cache misses into runs.

        Sorts and dedups ``block_nos``, serves what it can from the
        last-block cache and buffer pool, fetches the misses in one
        vectorized :meth:`BlockDevice.read_blocks` call (contiguous
        misses are charged one positioning cost per run), back-fills the
        pool, and returns ``{block_no: data}``.
        """
        wanted = sorted(set(block_nos))
        if not wanted:
            return {}
        if self.on_block_access is not None:
            for block_no in wanted:
                self.on_block_access("r", file.name, block_no)
        if file.memory_resident:
            if self.write_back:
                return {
                    no: (self.buffer_pool.peek_dirty(file.name, no)
                         or self.device.read_block(file, no))
                    for no in wanted
                }
            return {no: self.device.read_block(file, no) for no in wanted}
        out: Dict[int, bytes] = {}
        misses = []
        for block_no in wanted:
            if self._batch_depth:
                pinned = self._batch_cache.get((file.name, block_no))
                if pinned is not None:
                    if self.tracer is not None:
                        self.tracer.reuse_hit()
                    out[block_no] = pinned
                    continue
            # The one-block reuse cache can only serve the lowest block of
            # the span: a serial ascending loop overwrites ``_last`` before
            # reaching any later block, and the span must charge exactly
            # what that loop would (cost-model parity, Section 6.5).
            if self._last is not None and block_no == wanted[0]:
                name, no, data = self._last
                if name == file.name and no == block_no:
                    if self.tracer is not None:
                        self.tracer.reuse_hit()
                    out[block_no] = data
                    continue
            misses.append(block_no)
        if misses and self.buffer_pool is not None:
            hits = self.buffer_pool.get_many(file.name, misses)
            if hits:
                out.update(hits)
                misses = [no for no in misses if no not in hits]
        if misses:
            payloads = self._device_read_blocks(file, misses)
            fetched = dict(zip(misses, payloads))
            out.update(fetched)
            if self.buffer_pool is not None:
                self.buffer_pool.put_many(file.name, fetched)
            top = misses[-1]
            self._last = (file.name, top, fetched[top])
        if self._batch_depth:
            for block_no, data in out.items():
                self._batch_cache[(file.name, block_no)] = data
        return out

    def prefetch(self, file: BlockFile, block_nos: Iterable[int]) -> int:
        """Warm the caches with ``block_nos``; returns blocks fetched from disk."""
        before = self.device.stats.reads
        self.read_span(file, block_nos)
        return self.device.stats.reads - before

    # -- byte-level API ------------------------------------------------------

    def view(self, file: BlockFile, offset: int, length: int) -> Tuple[bytes, int]:
        """The bytes holding ``[offset, offset + length)`` of ``file``
        and where the range starts in them: ``(data, start)``.

        The one held block (DESIGN.md Section 15): a range inside one
        block is served from the copy the pager already holds — the pin
        cache inside :meth:`batch`, else the last block fetched — when
        no access hook must see the read and the file has no free
        resident read to prefer; this is the only place those guards are
        evaluated.  Any other one-block range is a :meth:`read_block`,
        a longer one a :meth:`read_span` of its blocks, joined.  Either
        way the request is charged exactly as :meth:`read_block` /
        :meth:`read_span` would charge it, so a caller holds no block of
        its own: it asks again and the pager says whether that is free.
        """
        bs = self.block_size
        first = offset // bs
        start = offset - first * bs
        if start + length <= bs:
            if self.on_block_access is None and not file.memory_resident:
                if self._batch_depth:
                    data = self._batch_cache.get((file.name, first))
                else:
                    held = self._last
                    data = (held[2] if held is not None and held[1] == first
                            and held[0] == file.name else None)
                if data is not None:
                    if self.tracer is not None:
                        self.tracer.reuse_hit()
                    return data, start
            return self.read_block(file, first), start
        blocks = range(first, (offset + length - 1) // bs + 1)
        span = self.read_span(file, blocks)
        return b"".join(map(span.__getitem__, blocks)), start

    def read_bytes(self, file: BlockFile, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset``: :meth:`view`'s
        range, cut out.  A multi-block range that misses every cache is
        charged one positioning plus sequential transfers rather than a
        seek per block."""
        if length < 0 or offset < 0:
            raise ValueError(f"invalid byte range offset={offset} length={length}")
        if length == 0:
            return b""
        data, start = self.view(file, offset, length)
        return data[start : start + length]

    def write_bytes(self, file: BlockFile, offset: int, data: bytes) -> None:
        """Write bytes at ``offset``; partially covered blocks are read-modified."""
        if offset < 0:
            raise ValueError(f"invalid byte offset {offset}")
        if not data:
            return
        bs = self.block_size
        block_no = offset // bs
        in_block = offset - block_no * bs
        end = in_block + len(data)
        if end <= bs and len(data) < bs:
            # Inside one block, not filling it: every slot or header
            # patch of an index node, into the image :meth:`view` holds.
            current, _start = self.view(file, offset, len(data))
            self.write_block(file, block_no,
                             b"".join((current[:in_block], data, current[end:])))
            return
        remaining = memoryview(bytes(data))
        pos = offset
        while remaining:
            block_no = pos // bs
            in_block = pos - block_no * bs
            take = min(bs - in_block, len(remaining))
            if take == bs:
                self.write_block(file, block_no, bytes(remaining[:take]))
            else:
                current = bytearray(self.read_block(file, block_no))
                current[in_block : in_block + take] = remaining[:take]
                self.write_block(file, block_no, bytes(current))
            remaining = remaining[take:]
            pos += take

    # -- per-frame parse cache ---------------------------------------------------

    @property
    def _pooled(self) -> bool:
        """Whether a block read now can be handed out again later as the
        same bytes object: only a pool frame outlives a read."""
        return self.buffer_pool is not None and self.buffer_pool.capacity > 0

    def cached_meta(self, file: BlockFile, block_no: int, data, build):
        """A cached ``build(data)`` result for one frame.

        ``data`` must be the block bytes the caller just obtained through
        this pager (so the charged I/O already happened); the cache only
        replaces the *parse*.  A hit requires the stored bytes object to
        be identical (``is``) to ``data``: blocks are immutable bytes and
        any write path stores a new object, so a stale value is
        unreachable by construction — the eviction hooks (write paths,
        :meth:`invalidate_file`, the buffer pool's ``on_drop``) just
        bound memory.  Without a buffer pool, only the blocks pinned by
        the current batch, and outside one the last block, are certain
        to come back as the same object, so only those are kept.  Holds
        the raw image of a compressed leaf and decoded fence pages.
        """
        cache_key = (file.name, block_no)
        entry = self._meta_cache.get(cache_key)
        if entry is not None and entry[0] is data:
            return entry[1]
        value = build(data)
        if not self._pooled and not self._batch_depth:
            # No pool frame and no batch pin holds ``data``: only the
            # last-block copy can come back as this very object, so that
            # is the one entry worth keeping.
            self._meta_cache.clear()
            if self._last is None or self._last[2] is not data:
                return value
        self._meta_cache[cache_key] = (data, value)
        while len(self._meta_cache) > self.meta_cache_capacity:
            self._meta_cache.popitem(last=False)
        return value

    def cached_decode(self, file: BlockFile, block_no: int, data, codec,
                      offset: int = 0):
        """Frame-cached codec decode: ``(keys, payloads)`` uint64 arrays.

        :meth:`cached_meta` over ``codec.decode_arrays`` (DESIGN.md
        Section 16).  Decoding is pure CPU over bytes already charged by
        the caller's read, so cache hits never change ``StorageStats``.
        """
        return self.cached_meta(file, block_no, data,
                                lambda raw: codec.decode_arrays(raw, offset))

    def _drop_cached_keys(self, file_name: str, block_no: int) -> None:
        self._meta_cache.pop((file_name, block_no), None)

    # -- cache hygiene ---------------------------------------------------------

    def invalidate_file(self, file_name: str) -> None:
        """Drop cached blocks of a file (call before/after deleting it)."""
        if self._last is not None and self._last[0] == file_name:
            self._last = None
        if self._batch_cache:
            for key in [k for k in self._batch_cache if k[0] == file_name]:
                del self._batch_cache[key]
        if self._meta_cache:
            for key in [k for k in self._meta_cache if k[0] == file_name]:
                del self._meta_cache[key]
        if self.buffer_pool is not None:
            self.buffer_pool.invalidate_file(file_name)

    def drop_last_block(self) -> None:
        """Forget the one-block reuse cache (e.g. between measured queries)."""
        self._last = None

    # -- quarantine & scrubbing ----------------------------------------------

    @property
    def quarantined_blocks(self):
        return frozenset(self._quarantined)

    def quarantine(self, file_name: str, block_no: int, data: bytes) -> bool:
        """Pin a known-good copy of a suspect block in the buffer pool.

        While quarantined the frame is exempt from eviction, so every
        read is served from RAM and the suspect device copy is never
        consulted.  Returns False when no pool (or a zero-capacity pool)
        is available to hold the frame — callers then rely on the device
        copy having been repaired in place.
        """
        if self.buffer_pool is None or self.buffer_pool.capacity == 0:
            return False
        payload = bytes(data)
        self.buffer_pool.put(file_name, block_no, payload)
        self.buffer_pool.pin(file_name, block_no)
        self._quarantined.add((file_name, block_no))
        self._last = (file_name, block_no, payload)
        return True

    def release_quarantine(self, file_name: str, block_no: int) -> None:
        """Unpin a quarantined frame (its device copy verified clean again)."""
        key = (file_name, block_no)
        if key in self._quarantined:
            self._quarantined.discard(key)
            if self.buffer_pool is not None:
                self.buffer_pool.unpin(file_name, block_no)

    def scrub(self, file_names: Optional[Iterable[str]] = None) -> ScrubReport:
        """Walk allocated blocks verifying their checksum envelopes.

        Reads every block of the given files (default: all non-resident
        files) straight from the device — deliberately bypassing the
        caches, since the point is to audit the *medium* — under the
        ``"scrub"`` phase, riding the sequential rate within each file.
        Transient errors are retried like any other read.  Blocks that
        fail verification (or are persistently unreadable) are collected
        in the report; quarantined blocks whose device copy now verifies
        clean are released.
        """
        device = self.device
        names = sorted(file_names) if file_names is not None else sorted(device.files)
        report = ScrubReport()
        start_us = device.stats.elapsed_us
        previous = device.set_phase("scrub")
        try:
            for name in names:
                handle = device.get_file(name)
                if handle.memory_resident:
                    continue
                for block_no in range(handle.num_blocks):
                    report.blocks_scanned += 1
                    try:
                        self._retrying(lambda: device.read_block(handle, block_no))
                    except (ChecksumError, PersistentIOError):
                        report.bad_blocks.append((name, block_no))
        finally:
            device.set_phase(previous)
        bad = set(report.bad_blocks)
        scanned_files = set(names)
        for key in sorted(self._quarantined):
            if key[0] in scanned_files and key not in bad:
                self.release_quarantine(*key)
                report.released.append(key)
        report.elapsed_us = device.stats.elapsed_us - start_us
        return report


class _BatchScope:
    """``with pager.batch()``: one pin-scope level (see :meth:`Pager.batch`)."""

    __slots__ = ("_pager",)

    def __init__(self, pager: Pager) -> None:
        self._pager = pager

    def __enter__(self) -> None:
        self._pager._batch_depth += 1

    def __exit__(self, *exc) -> None:
        pager = self._pager
        pager._batch_depth -= 1
        if pager._batch_depth == 0:
            pager._batch_cache.clear()
            if not pager._pooled:
                # what was parsed from the pins went with them
                pager._meta_cache.clear()
            # The last-block cache is a one-entry pin: inside a batch
            # its final value depends on which probe happened to miss
            # last, an accident of how a batch orders its probes.
            # Dropping it with the pin cache makes the post-batch
            # charge state a function of the batch's block set alone,
            # whatever mutations follow.
            pager._last = None
