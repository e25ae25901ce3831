"""Block buffer pools.

Section 6.6 of the paper studies how many blocks each index fetches from
disk when an LRU cache of 0..512 blocks sits in front of it.  LRU is the
paper's (and our default) policy; CLOCK and FIFO are provided for
replacement-policy ablations.

Pools are write-through by default: a write updates the cached copy and
still goes to disk, so eviction never needs to write back.  Under the
pager's *write-back* mode every policy additionally tracks a per-frame
dirty bit: :meth:`BufferPool.put_dirty` stores a frame whose contents
are newer than the device copy, and eviction of a dirty frame hands the
frame to the ``on_evict`` callback (the pager's single-frame flush)
before the frame is dropped.  Clean evictions never call back — they cost nothing.

Frames can additionally be *pinned* (:meth:`BufferPool.pin`): eviction
skips pinned frames under every policy, overflowing the capacity bound
if everything else is pinned.  The pager's quarantine uses this to keep
a known-good copy of a suspect block resident while the device copy
awaits repair.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

__all__ = ["BufferPool", "ClockBufferPool", "FifoBufferPool", "make_buffer_pool"]

_Key = Tuple[str, int]


class BufferPool:
    """A write-through LRU cache of disk blocks.

    Args:
        capacity: maximum number of cached blocks; 0 disables caching
            (every probe misses), which matches the paper's default
            "no buffer management" configuration.
    """

    policy = "lru"

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._blocks: "OrderedDict[_Key, bytes]" = OrderedDict()
        self._dirty: set = set()
        self._pinned: set = set()
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0
        #: optional observer with ``pool_hit()``/``pool_miss()`` methods
        #: (a :class:`repro.obs.Tracer`); None keeps probes hook-free.
        self.listener = None
        #: optional callback ``(file_name, block_no, data)`` invoked when a
        #: *dirty* frame is evicted, after the frame has left the pool —
        #: the pager uses it to flush exactly that frame to the device.
        self.on_evict = None
        #: optional callback ``(file_name, block_no)`` invoked whenever a
        #: frame leaves the pool for *any* reason (clean or dirty
        #: eviction, invalidation, clear).  The pager uses it to drop the
        #: frame's cached numpy key array (DESIGN.md §15) — that cache is
        #: identity-validated, so this hook is memory hygiene, not a
        #: correctness requirement.
        self.on_drop = None

    def __len__(self) -> int:
        return len(self._blocks)

    # All three policies funnel their probe outcomes through these two
    # helpers, so the hit/miss counters and the tracer hook can never
    # disagree across policies.  LRU ``get`` and ``get_many``, the
    # pooled read paths' probes, inline ``_record_hit``'s two statements.
    def _record_hit(self) -> None:
        self.hits += 1
        if self.listener is not None:
            self.listener.pool_hit()

    def _record_miss(self) -> None:
        self.misses += 1
        if self.listener is not None:
            self.listener.pool_miss()

    # All three policies funnel evictions through this helper, so dirty
    # write-back and the eviction counters can never disagree either.
    # Called *after* the frame has been removed from ``_blocks`` (the
    # callback may re-enter the pool, e.g. a WAL flush forced by the
    # pager's log-before-data barrier).
    def _evicted(self, key: _Key, data: bytes) -> None:
        if key in self._dirty:
            self._dirty.discard(key)
            self.dirty_evictions += 1
            if self.on_evict is not None:
                self.on_evict(key[0], key[1], data)
        else:
            self.clean_evictions += 1
        if self.on_drop is not None:
            self.on_drop(key[0], key[1])

    # -- dirty tracking ------------------------------------------------------

    def put_dirty(self, key: _Key, data: bytes) -> None:
        """Insert or refresh a frame newer than the device copy (the
        write-back pager's one call per buffered write).

        The dirty bit is set *before* the eviction pass: when every other
        frame is pinned, the pass evicts this very frame, and it must
        leave through ``on_evict`` (written back) rather than clean.
        """
        self._dirty.add(key)
        blocks = self._blocks
        blocks[key] = data
        blocks.move_to_end(key)
        if len(blocks) > self.capacity:
            self._evict_overflow()

    def is_dirty(self, file_name: str, block_no: int) -> bool:
        return (file_name, block_no) in self._dirty

    def peek_dirty(self, file_name: str, block_no: int) -> Optional[bytes]:
        """The frame's payload iff it is cached *and dirty*, else None.

        Does not touch recency, hit counters or the listener: the caller
        is consulting the authoritative copy of a not-yet-flushed block
        (a memory-resident read under a write-back pager), not probing
        the cache.
        """
        key = (file_name, block_no)
        if key in self._dirty:
            return self._blocks[key]
        return None

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def dirty_items(self, file_name: Optional[str] = None) -> Dict[_Key, bytes]:
        """Dirty frames (optionally of one file) as ``{(file, no): data}``.

        Does not touch recency or hit counters — flushing is not an
        access under any replacement policy.
        """
        return {
            key: self._blocks[key] for key in self._dirty
            if file_name is None or key[0] == file_name
        }

    def mark_clean(self, keys) -> None:
        """Clear dirty bits after the caller flushed ``keys`` to disk.

        The frames stay cached — a freshly flushed page is still the
        newest copy and keeps serving reads.
        """
        for key in keys:
            self._dirty.discard(key)

    # -- pinning -------------------------------------------------------------

    def pin(self, file_name: str, block_no: int) -> None:
        """Exempt a cached frame from eviction (quarantine support)."""
        key = (file_name, block_no)
        if key not in self._blocks:
            raise KeyError(f"cannot pin absent frame {key!r}")
        self._pinned.add(key)

    def unpin(self, file_name: str, block_no: int) -> None:
        self._pinned.discard((file_name, block_no))

    def is_pinned(self, file_name: str, block_no: int) -> bool:
        return (file_name, block_no) in self._pinned

    def _evict_overflow(self) -> None:
        """Evict in policy order until within capacity, skipping pinned
        frames (the pool may stay over capacity if everything is pinned)."""
        blocks, pinned = self._blocks, self._pinned
        while len(blocks) > self.capacity:
            for victim in blocks:
                if victim not in pinned:
                    break
            else:
                break
            self._evicted(victim, blocks.pop(victim))

    def get(self, file_name: str, block_no: int) -> Optional[bytes]:
        """Return the cached block or None, updating recency and hit counters."""
        key = (file_name, block_no)
        data = self._blocks.get(key)
        if data is None:
            self._record_miss()
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        if self.listener is not None:
            self.listener.pool_hit()
        return data

    def put(self, file_name: str, block_no: int, data: bytes) -> None:
        """Insert or refresh a block, evicting the least recently used one."""
        if self.capacity == 0:
            return
        key = (file_name, block_no)
        blocks = self._blocks
        blocks[key] = data
        blocks.move_to_end(key)
        if len(blocks) > self.capacity:
            self._evict_overflow()

    # -- bulk API -----------------------------------------------------------
    # ``read_span`` probes and back-fills whole runs at once; these do the
    # hit bookkeeping per block (the counters must stay exact) but apply
    # the policy bookkeeping in one pass per call instead of per probe.

    def _touch(self, key: _Key) -> None:
        """Policy bookkeeping for a bulk hit (LRU: refresh recency)."""
        self._blocks.move_to_end(key)

    def get_many(self, file_name: str, block_nos) -> Dict[int, bytes]:
        """Probe several blocks at once; returns ``{block_no: data}`` hits."""
        hits: Dict[int, bytes] = {}
        for block_no in block_nos:
            data = self._blocks.get((file_name, block_no))
            if data is None:
                self._record_miss()
            else:
                hits[block_no] = data
                self.hits += 1
                if self.listener is not None:
                    self.listener.pool_hit()
        for block_no in hits:
            self._touch((file_name, block_no))
        return hits

    def put_many(self, file_name: str, blocks: Dict[int, bytes]) -> None:
        """Insert or refresh several blocks, then run one eviction pass."""
        if self.capacity == 0 or not blocks:
            return
        for block_no, data in blocks.items():
            key = (file_name, block_no)
            self._blocks[key] = data
            self._blocks.move_to_end(key)
        self._evict_overflow()

    def invalidate(self, file_name: str, block_no: int) -> None:
        """Drop one block if present (e.g. the extent holding it was freed).

        Dirty contents are *discarded*, not flushed — invalidation means
        the caller no longer wants the bytes on disk either.
        """
        key = (file_name, block_no)
        present = self._blocks.pop(key, None) is not None
        self._dirty.discard(key)
        self._pinned.discard(key)
        if present and self.on_drop is not None:
            self.on_drop(key[0], key[1])

    def invalidate_file(self, file_name: str) -> None:
        """Drop every cached block of a file (e.g. a deleted PGM level)."""
        stale = [key for key in self._blocks if key[0] == file_name]
        for key in stale:
            del self._blocks[key]
            self._dirty.discard(key)
            self._pinned.discard(key)
            if self.on_drop is not None:
                self.on_drop(key[0], key[1])

    def clear(self) -> None:
        dropped = list(self._blocks) if self.on_drop is not None else ()
        self._blocks.clear()
        self._dirty.clear()
        self._pinned.clear()
        for key in dropped:
            self.on_drop(key[0], key[1])

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FifoBufferPool(BufferPool):
    """First-in-first-out replacement: recency of access is ignored."""

    policy = "fifo"

    def get(self, file_name: str, block_no: int) -> Optional[bytes]:
        data = self._blocks.get((file_name, block_no))
        if data is None:
            self._record_miss()
            return None
        self._record_hit()  # no move_to_end: insertion order decides eviction
        return data

    def put(self, file_name: str, block_no: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        key = (file_name, block_no)
        if key in self._blocks:
            self._blocks[key] = data  # refresh contents, keep queue position
            return
        self._blocks[key] = data
        self._evict_overflow()

    def put_dirty(self, key: _Key, data: bytes) -> None:
        self._dirty.add(key)  # before ``put``'s eviction pass, as LRU
        self.put(key[0], key[1], data)

    def _touch(self, key: _Key) -> None:
        """FIFO ignores recency — a bulk hit needs no bookkeeping."""

    def put_many(self, file_name: str, blocks: Dict[int, bytes]) -> None:
        if self.capacity == 0 or not blocks:
            return
        for block_no, data in blocks.items():
            # assignment keeps an existing key's queue position (FIFO refresh)
            self._blocks[(file_name, block_no)] = data
        self._evict_overflow()


class ClockBufferPool(BufferPool):
    """Second-chance (CLOCK) replacement: an approximation of LRU that
    real buffer managers use to avoid per-access reordering."""

    policy = "clock"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._referenced: Dict[_Key, bool] = {}
        self._ring: List[_Key] = []
        self._hand = 0

    def get(self, file_name: str, block_no: int) -> Optional[bytes]:
        key = (file_name, block_no)
        data = self._blocks.get(key)
        if data is None:
            self._record_miss()
            return None
        self._referenced[key] = True
        self._record_hit()
        return data

    def put(self, file_name: str, block_no: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        key = (file_name, block_no)
        if key in self._blocks:
            self._blocks[key] = data
            self._referenced[key] = True
            return
        while len(self._blocks) >= self.capacity:
            if all(k in self._pinned for k in self._ring):
                break  # every frame quarantined: overflow rather than evict
            victim = self._ring[self._hand]
            if victim in self._pinned:
                self._hand = (self._hand + 1) % len(self._ring)
                continue
            if self._referenced.get(victim, False):
                self._referenced[victim] = False
                self._hand = (self._hand + 1) % len(self._ring)
                continue
            victim_data = self._blocks.pop(victim)
            del self._referenced[victim]
            self._ring[self._hand] = key
            self._blocks[key] = data
            self._referenced[key] = False
            self._hand = (self._hand + 1) % len(self._ring)
            self._evicted(victim, victim_data)
            return
        self._ring.append(key)
        self._blocks[key] = data
        self._referenced[key] = False

    def put_dirty(self, key: _Key, data: bytes) -> None:
        self._dirty.add(key)  # before ``put``'s eviction pass, as LRU
        self.put(key[0], key[1], data)

    def _touch(self, key: _Key) -> None:
        """CLOCK marks the frame referenced; the hand does the rest."""
        self._referenced[key] = True

    def put_many(self, file_name: str, blocks: Dict[int, bytes]) -> None:
        # CLOCK eviction advances the hand one frame at a time, so bulk
        # insertion is inherently per-frame; the bulk entry point still
        # saves the per-block call overhead on the read_span path.
        for block_no, data in blocks.items():
            self.put(file_name, block_no, data)

    def invalidate(self, file_name: str, block_no: int) -> None:
        key = (file_name, block_no)
        if key in self._blocks:
            del self._blocks[key]
            self._dirty.discard(key)
            self._pinned.discard(key)
            self._referenced.pop(key, None)
            if self.on_drop is not None:
                self.on_drop(key[0], key[1])
            if key in self._ring:
                index = self._ring.index(key)
                self._ring.pop(index)
                if self._hand > index:
                    self._hand -= 1
                if self._ring:
                    self._hand %= len(self._ring)
                else:
                    self._hand = 0

    def invalidate_file(self, file_name: str) -> None:
        for key in [k for k in list(self._blocks) if k[0] == file_name]:
            self.invalidate(*key)

    def clear(self) -> None:
        super().clear()
        self._referenced.clear()
        self._ring.clear()
        self._hand = 0


_POLICIES = {"lru": BufferPool, "fifo": FifoBufferPool, "clock": ClockBufferPool}


def make_buffer_pool(capacity: int, policy: str = "lru") -> BufferPool:
    """Construct a buffer pool by policy name (``lru``/``fifo``/``clock``)."""
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown buffer policy {policy!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(capacity)
