"""PGM-index on disk (static components + LSM-style dynamic index).

Static component
    A multi-level PGM built with the optimal streaming PLA.  The sorted
    data lives in ``<name>.data``; every upper level is an array of
    24-byte segment descriptors ``(first_key, slope, intercept)`` in
    ``<name>.levels``.  A descriptor's model predicts positions *in the
    level below* — PGM stores models in the parent, so shortcoming S1
    does not apply.  The root descriptor and the per-level offset table
    are meta-block state kept in memory, as the paper allows.

Dynamic index (Arbitrary Insert, Figure 1(b) of the paper)
    An LSM over static components: inserts go to a small fixed-size
    sorted buffer on disk (the paper observes 585 entries ≈ 3 blocks);
    when full it is merged with the leading run of components whose
    cumulative size exceeds the target level capacity.  Each component
    is a separate pair of files and a merged component's files are
    deleted from disk — which is why PGM has the smallest storage
    footprint in the paper's Figure 10.

    Lookups probe the buffer and then every component from newest to
    oldest until the key is found — the access pattern behind O10 (PGM
    degrades as the read ratio grows).

How a key is routed through descriptor levels is decided once, by the
module functions :func:`build_levels` and :func:`descend` (DESIGN.md
Section 18); a component calls them over its block-aligned ``.levels``
file, PLID (:mod:`.plid`) over its own directory extent.

Nothing fetched is unpacked on a point path (DESIGN.md Section 15): a
descriptor window, a data window and the insert buffer are bisected as
the bytes the pager returned (:mod:`.serial`), a hit decodes one record,
and a buffer insert writes back ``record + tail`` sliced from the bytes
it read.  There is one lookup routine per class — :meth:`StaticPgm.lookup`
over :func:`descend`, :meth:`PgmIndex._lookup_raw` — behind
``lookup``, ``lookup_many``, the ``update`` / ``delete`` probes and scan
positioning; compressed pages are always searched through the pager's
frame-cached decode.  Which pager calls are made, in which order, and the
bytes written are pinned by ``tests/golden/learned_pages.json``.
"""

from __future__ import annotations

import bisect
import heapq
import struct
from functools import partial
from itertools import islice
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models import optimal_segments
from ..storage import BlockFile, Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload, TOMBSTONE
from .serial import (ENTRY_SIZE, bisect_left, bisect_right, find_entry,
                     iter_entries, pack_entries, pack_entry, splice,
                     unpack_entries)

__all__ = ["StaticPgm", "PgmIndex", "build_levels", "descend"]

_DESCRIPTOR = struct.Struct("<Qdd")  # first_key, slope, intercept
_ENTRY = struct.Struct("<QQ")
DESCRIPTOR_SIZE = _DESCRIPTOR.size  # 24

Descriptor = Tuple[int, float, float]


def build_levels(keys: Sequence[int],
                 epsilon: int) -> Tuple[Descriptor, List[bytes]]:
    """The PLA levels over sorted unique ``keys``: the root descriptor
    (meta-block state) and, bottom-up, the packed descriptor array of
    every level under it.  Level 0 predicts positions in ``keys``, every
    other level positions in the level below; one segment over ``keys``
    means no stored level at all."""
    if not keys:
        raise ValueError("cannot build PLA levels over no keys")
    levels: List[bytes] = []
    while True:
        descriptors = [(seg.first_key, seg.model.slope, seg.model.intercept)
                       for seg in optimal_segments(keys, epsilon)]
        if len(descriptors) == 1:
            return descriptors[0], levels
        levels.append(b"".join(_DESCRIPTOR.pack(*d) for d in descriptors))
        keys = [d[0] for d in descriptors]


def _window(descriptor: Descriptor, successor: Optional[float], key: int,
            epsilon: int, count: int) -> Tuple[int, int]:
    """The inclusive slot window ``descriptor`` predicts for ``key``
    among ``count`` slots.  The model is evaluated anchored (the integer
    subtraction keeps the float multiply within the segment's span) and
    capped by the successor descriptor's intercept: past its segment's
    last key a model extrapolates, while no key routed to it lies beyond
    the successor's first position.  One slot of slack per side absorbs
    float rounding at the PLA bound."""
    first_key, slope, intercept = descriptor
    pred = slope * float(int(key) - int(first_key)) + intercept
    if successor is not None and successor < pred:
        pred = successor
    center = int(pred)
    lo = max(0, min(center - epsilon - 1, count - 1))
    return lo, max(lo, min(center + epsilon + 1, count - 1))


def descend(view: Callable[[int, int], Tuple[bytes, int]], root: Descriptor,
            level_table: Sequence[Tuple[int, int]], count: int, key: int,
            epsilon: int) -> Tuple[int, int]:
    """Route ``key`` from ``root`` through the descriptor levels to the
    inclusive window ``(lo, hi)`` of the ``count`` bottom slots that
    holds its floor and, unless the window ends on the floor, its
    ceiling (the contract, DESIGN.md Section 18).

    ``level_table`` lists ``(byte offset, descriptor count)`` per level,
    bottom-up, in the address space of ``view(offset, length)``, which
    returns the bytes holding the range and where it starts in them (as
    :meth:`~repro.storage.Pager.view` does).  Each level's window is
    fetched one descriptor longer and bisected as bytes: the floor
    descriptor decodes, and so does the intercept of its successor, if
    it has one."""
    descriptor, successor = root, None
    for base, level_count in reversed(level_table):
        lo, hi = _window(descriptor, successor, key, epsilon, level_count)
        span = min(hi + 2, level_count) - lo
        data, at = view(base + lo * DESCRIPTOR_SIZE, span * DESCRIPTOR_SIZE)
        slot = max(bisect_right(data, key, span, at, DESCRIPTOR_SIZE) - 1, 0)
        descriptor = _DESCRIPTOR.unpack_from(data, at + slot * DESCRIPTOR_SIZE)
        successor = (_DESCRIPTOR.unpack_from(
            data, at + (slot + 1) * DESCRIPTOR_SIZE)[2] if slot + 1 < span else None)
    return _window(descriptor, successor, key, epsilon, count)


class StaticPgm:
    """One immutable PGM component over a sorted entry array.

    Args:
        pager: storage access path.
        name: file-name prefix; creates ``<name>.data`` and ``<name>.levels``.
        items: key-sorted unique entries.
        epsilon: PLA error bound (paper default 64).
        levels_memory_resident: pin the descriptor levels in RAM
            (Section 6.2 hybrid case).
        codec: leaf-page codec (DESIGN.md Section 16).  Raw keeps the
            byte-identical PR 1-8 layout; a compressed codec packs the
            data into self-framing codec pages (one per block) and
            replaces the PLA descriptor levels with a LeCo-style
            :class:`~repro.models.zonemap.FenceZonemap` over the data
            pages' max keys, stored in the same ``.levels`` file.
    """

    def __init__(self, pager: Pager, name: str, items: Sequence[KeyPayload],
                 epsilon: int = 64, levels_memory_resident: bool = False,
                 codec="raw") -> None:
        if not items:
            raise ValueError("a static PGM component cannot be empty")
        if epsilon < 1:
            raise ValueError(f"epsilon must be >= 1, got {epsilon}")
        self.pager = pager
        self.name = name
        self.epsilon = epsilon
        self.codec = get_codec(codec)
        self.count = len(items)
        self.min_key = items[0][0]
        self.max_key = items[-1][0]
        device = pager.device
        self.data_file: BlockFile = device.get_or_create_file(f"{name}.data")
        self.levels_file: BlockFile = device.get_or_create_file(f"{name}.levels")
        self.levels_file.memory_resident = levels_memory_resident
        # Meta: per-level (byte offset in levels file, descriptor count),
        # ordered bottom-up; level 0 predicts into the data array.
        self.level_table: List[Tuple[int, int]] = []
        self.root: Optional[Descriptor] = None
        # Compressed layout: data-page position table + fence zonemap.
        self.page_starts: List[int] = []
        self.zonemap = None
        self.data_base = 0
        if self.codec.is_raw:
            self._build(items)
        else:
            self._build_compressed(items)

    @classmethod
    def attach(cls, pager: Pager, meta: dict) -> "StaticPgm":
        """Reconstruct a component over an already-loaded device image."""
        from ..models.zonemap import FenceZonemap

        component = cls.__new__(cls)
        component.pager = pager
        component.name = meta["name"]
        component.epsilon = meta["epsilon"]
        component.codec = get_codec(meta.get("codec", "raw"))
        component.count = meta["count"]
        component.min_key = meta["min_key"]
        component.max_key = meta["max_key"]
        component.data_file = pager.device.get_file(f"{meta['name']}.data")
        component.levels_file = pager.device.get_file(f"{meta['name']}.levels")
        component.level_table = [tuple(entry) for entry in meta["level_table"]]
        component.root = tuple(meta["root"]) if meta["root"] is not None else None
        component.page_starts = list(meta.get("page_starts", []))
        component.data_base = meta.get("data_base", 0)
        component.zonemap = None
        if meta.get("zonemap") is not None:
            component.zonemap = FenceZonemap.attach(
                pager, component.levels_file, component.codec, meta["zonemap"])
        return component

    def to_meta(self) -> dict:
        return {"name": self.name, "epsilon": self.epsilon, "count": self.count,
                "codec": self.codec.name,
                "min_key": self.min_key, "max_key": self.max_key,
                "level_table": [list(entry) for entry in self.level_table],
                "root": list(self.root) if self.root is not None else None,
                "page_starts": list(self.page_starts),
                "data_base": self.data_base,
                "zonemap": self.zonemap.to_meta() if self.zonemap is not None
                else None}

    # -- construction --------------------------------------------------------

    def _build_compressed(self, items: Sequence[KeyPayload]) -> None:
        """Greedy-pack the sorted entries into codec pages, one page per
        block, and build the fence zonemap over the page max keys."""
        from ..models.zonemap import FenceZonemap

        bs = self.pager.block_size
        codec = self.codec
        entries = np.asarray(items, dtype=np.uint64)  # (count, 2)
        pages: List[bytes] = []
        page_lasts: List[int] = []
        pos = 0
        while pos < self.count:
            take = codec.pack_greedy(entries, pos, bs)
            self.page_starts.append(pos)
            page_lasts.append(items[pos + take - 1][0])
            pages.append(codec.encode(entries[pos : pos + take]))
            pos += take
        start = self.data_file.allocate(len(pages))
        self.pager.write_blocks(self.data_file, [
            (start + i, page + b"\x00" * (bs - len(page)))
            for i, page in enumerate(pages)])
        self.data_base = start
        self.zonemap = FenceZonemap.build(
            self.pager, self.levels_file, page_lasts, codec)

    def _build(self, items: Sequence[KeyPayload]) -> None:
        blocks = (self.count * ENTRY_SIZE + self.pager.block_size - 1) // self.pager.block_size
        start = self.data_file.allocate(blocks)
        self.pager.write_bytes(self.data_file, start * self.pager.block_size,
                               pack_entries(items))
        self.root, levels = build_levels([key for key, _ in items],
                                         self.epsilon)
        for raw in levels:  # each level starts on a block boundary
            nblocks = (len(raw) + self.pager.block_size - 1) // self.pager.block_size
            blk = self.levels_file.allocate(nblocks)
            self.pager.write_bytes(self.levels_file, blk * self.pager.block_size, raw)
            self.level_table.append((blk * self.pager.block_size,
                                     len(raw) // DESCRIPTOR_SIZE))

    @property
    def num_levels(self) -> int:
        """Levels including the data level and the in-memory root."""
        if self.zonemap is not None:
            # Compressed: data pages + fence pages + the in-memory
            # page-boundary array standing in for the root.
            return 3
        return len(self.level_table) + 2

    # -- search ------------------------------------------------------------------

    def _decoded_page(self, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """One charged read of a compressed data page; its ``(keys,
        payloads)`` columns, decoded once per frame by the pager."""
        block = self.data_base + page
        return self.pager.cached_decode(
            self.data_file, block,
            self.pager.read_block(self.data_file, block), self.codec)

    def _data_window(self, key: int) -> Tuple[int, int, bytes, int]:
        """Descend to the data window that must hold ``key``: its first
        position, its entry count, and its bytes as
        :meth:`~repro.storage.Pager.view` holds them — the data and
        where the window starts in it."""
        lo, hi = descend(partial(self.pager.view, self.levels_file),
                         self.root, self.level_table, self.count, key,
                         self.epsilon)
        span = hi - lo + 1
        return (lo, span, *self.pager.view(
            self.data_file, lo * ENTRY_SIZE, span * ENTRY_SIZE))

    def lookup(self, key: int) -> Optional[int]:
        if key < self.min_key or key > self.max_key:
            return None
        if self.zonemap is not None:
            # Zonemap route (1 fence block) + 1 data page.
            keys, payloads = self._decoded_page(self.zonemap.route(key))
            slot = int(np.searchsorted(keys, np.uint64(key), side="left"))
            if slot < len(keys) and int(keys[slot]) == key:
                return int(payloads[slot])
            return None
        _lo, span, data, at = self._data_window(key)
        return find_entry(data, key, span, at)[1]

    def ceiling_position(self, key: int) -> int:
        """Index of the first entry with key >= ``key`` (may equal count)."""
        if key <= self.min_key:
            return 0
        if key > self.max_key:
            return self.count
        if self.zonemap is not None:
            # The routed page is the first whose max key >= key, so every
            # earlier page holds only smaller keys: the global ceiling is
            # the in-page ceiling offset by the page's start position.
            page = self.zonemap.route(key)
            keys, _payloads = self._decoded_page(page)
            return self.page_starts[page] + int(
                np.searchsorted(keys, np.uint64(key), side="left"))
        lo, span, data, at = self._data_window(key)
        return lo + bisect_left(data, key, span, at)

    def iterate_from(self, position: int) -> Iterator[KeyPayload]:
        """Yield entries sequentially starting at a data position.

        Entries decode from the fetched block one at a time as the
        consumer pulls them, so a take-1 scan (the hybrid's routing
        pattern) does not pay for parsing the whole block."""
        if self.zonemap is not None:
            yield from self._iterate_compressed(position)
            return
        bs = self.pager.block_size
        end = self.count * ENTRY_SIZE
        pos = position * ENTRY_SIZE
        while pos < end:
            # The entries from ``pos`` to the end of its block, or the one
            # entry lying across that end (block sizes that are not a
            # multiple of 16), read as one range.
            taken = max((min((pos // bs + 1) * bs, end) - pos) // ENTRY_SIZE, 1)
            data, at = self.pager.view(self.data_file, pos, taken * ENTRY_SIZE)
            yield from iter_entries(data, taken, at)
            pos += taken * ENTRY_SIZE

    def _iterate_compressed(self, position: int) -> Iterator[KeyPayload]:
        """Sequential walk over codec pages from a data position.

        One charged block read per page; each page decodes to (count)
        entries — the per-block entry yield that makes compressed scans
        fetch proportionally fewer blocks.
        """
        num_pages = len(self.page_starts)
        page = max(bisect.bisect_right(self.page_starts, position) - 1, 0)
        while page < num_pages:
            keys, payloads = self._decoded_page(page)
            skip = max(0, position - self.page_starts[page])
            yield from zip(keys[skip:].tolist(), payloads[skip:].tolist())
            page += 1
            position = self.page_starts[page] if page < num_pages else self.count

    def destroy(self) -> None:
        """Delete both files from disk (after an LSM merge)."""
        self.pager.invalidate_file(self.data_file.name)
        self.pager.invalidate_file(self.levels_file.name)
        self.pager.device.delete_file(self.data_file.name)
        self.pager.device.delete_file(self.levels_file.name)


class PgmIndex(DiskIndex):
    """The dynamic (LSM-style) disk-resident PGM-index.

    Args:
        pager: storage access path.
        epsilon: PLA error bound for every component (paper default 64).
        buffer_capacity: entries in the sorted insert buffer (paper: 585).
        level_ratio: LSM size ratio between adjacent levels.
        codec: leaf-page codec for static components (Section 16).  The
            insert buffer always stays raw: it is tiny (a few blocks),
            rewritten in place on every upsert, and probed with 16-byte
            point reads — compressing it would buy nothing and cost a
            decode per probe.  LSM merges rebuild components through the
            codec, so flushed data is compressed from the first merge.
    """

    name = "pgm"

    def __init__(self, pager: Pager, epsilon: int = 64, buffer_capacity: int = 585,
                 level_ratio: int = 2, file_prefix: str = "pgm",
                 codec: str = "raw") -> None:
        super().__init__(pager)
        if buffer_capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {buffer_capacity}")
        if level_ratio < 2:
            raise ValueError(f"level ratio must be >= 2, got {level_ratio}")
        self.epsilon = epsilon
        self.buffer_capacity = buffer_capacity
        self.level_ratio = level_ratio
        self.file_prefix = file_prefix
        self.codec = get_codec(codec)
        self._buffer_file = pager.device.get_or_create_file(f"{file_prefix}.buffer")
        if self._buffer_file.num_blocks == 0:
            self._buffer_file.allocate(
                (buffer_capacity * ENTRY_SIZE + pager.block_size - 1) // pager.block_size)
        self.buffer_count = 0  # meta-block state
        self.components: List[Optional[StaticPgm]] = []  # index = LSM level
        self._generation = 0
        self._levels_resident = False
        self.num_merges = 0

    # -- helpers ------------------------------------------------------------------

    def _level_capacity(self, level: int) -> int:
        return self.buffer_capacity * (self.level_ratio ** (level + 1))

    def _new_component(self, items: Sequence[KeyPayload]) -> StaticPgm:
        self._generation += 1
        return StaticPgm(self.pager, f"{self.file_prefix}.c{self._generation}",
                         items, epsilon=self.epsilon,
                         levels_memory_resident=self._levels_resident,
                         codec=self.codec)

    def _buffer_bytes(self) -> bytes:
        """The sorted insert buffer, as stored."""
        return self.pager.read_bytes(self._buffer_file, 0,
                                     self.buffer_count * ENTRY_SIZE)

    # -- bulk load -------------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self.num_components or self.buffer_count:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            if not items:
                return
            level = 0
            while self._level_capacity(level) < len(items):
                level += 1
            self.components.extend([None] * (level + 1 - len(self.components)))
            self.components[level] = self._new_component(items)

    # -- lookup ----------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            found = self._lookup_raw(key)
        return None if found == TOMBSTONE else found

    def _lookup_raw(self, key: int) -> Optional[int]:
        """Newest-wins lookup that surfaces tombstone payloads."""
        if self.buffer_count:
            found = _find_in_region(self.pager.view, self._buffer_file,
                                    self.buffer_count, key)
            if found is not None:
                return found
        for component in self.components:
            if component is None:
                continue
            result = component.lookup(key)
            if result is not None:
                return result
        return None

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Batched lookups inside one pin scope: the insert buffer's
        blocks and every component's upper descriptor levels are fetched
        once for the whole sorted batch instead of once per key."""
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        results = {}
        with self.pager.phase("search"), self.pager.batch():
            for key in sorted(set(keys)):
                results[key] = self._lookup_raw(key)
        return [None if results[key] == TOMBSTONE else results[key]
                for key in keys]

    # -- insert -----------------------------------------------------------------------

    def insert(self, key: int, payload: int) -> None:
        self._buffer_put(key, payload, reject_live=True)

    def update(self, key: int, payload: int) -> bool:
        """LSM upsert: the newest value shadows older components."""
        with self.pager.phase("search"):
            current = self._lookup_raw(key)
        if current is None or current == TOMBSTONE:
            return False
        self._buffer_put(key, payload)
        return True

    def delete(self, key: int) -> bool:
        """LSM delete: a tombstone run entry; dropped when a merge reaches
        the bottommost level (the paper's compaction-time reclamation)."""
        with self.pager.phase("search"):
            current = self._lookup_raw(key)
        if current is None or current == TOMBSTONE:
            return False
        self._buffer_put(key, TOMBSTONE)
        return True

    def _buffer_put(self, key: int, payload: int,
                    reject_live: bool = False) -> None:
        """Write (key, payload) into the sorted buffer — over a buffered
        entry for the key, which ``reject_live`` allows only for a
        tombstone (re-insert after a buffered delete) — and flush the
        buffer when full.  The buffer is bisected and spliced as bytes:
        what is written back is the record plus the shifted tail."""
        with self.pager.phase("insert"):
            count = self.buffer_count
            raw = self._buffer_bytes()
            slot, held = find_entry(raw, key, count)
            record = pack_entry(key, payload)
            if held is not None:
                if reject_live and held != TOMBSTONE:
                    raise KeyError(f"duplicate key {key}")
                self.pager.write_bytes(self._buffer_file, slot * ENTRY_SIZE,
                                       record)
                return
            tail = splice(raw, slot, record, count)
            self.buffer_count = count + 1
            self.pager.write_bytes(self._buffer_file, slot * ENTRY_SIZE, tail)
        if self.buffer_count >= self.buffer_capacity:
            with self.pager.phase("smo"):
                self._flush_buffer(unpack_entries(
                    raw[: slot * ENTRY_SIZE] + tail, self.buffer_count))

    def _flush_buffer(self, buffered: List[KeyPayload]) -> None:
        """Merge the full buffer down the LSM hierarchy (the PGM 'SMO')."""
        self.num_merges += 1
        carry = list(buffered)
        merged_components: List[StaticPgm] = []
        target = 0
        total = len(carry)
        while target < len(self.components) and self.components[target] is not None:
            component = self.components[target]
            total += component.count
            merged_components.append(component)
            self.components[target] = None
            if total <= self._level_capacity(target):
                break
            target += 1
        # Read every merged component sequentially and k-way merge in memory.
        runs = [carry] + [list(c.iterate_from(0)) for c in merged_components]
        merged = _merge_runs(runs)
        while target < len(self.components) and self._level_capacity(target) < len(merged):
            target += 1
        if target >= len(self.components):
            self.components.extend([None] * (target + 1 - len(self.components)))
        is_bottom = all(self.components[i] is None
                        for i in range(target + 1, len(self.components)))
        if is_bottom:
            # Nothing older can be shadowed: tombstones can be dropped.
            merged = [entry for entry in merged if entry[1] != TOMBSTONE]
        if merged:
            self.components[target] = self._new_component(merged)
        for component in merged_components:
            component.destroy()
        self.buffer_count = 0

    # -- scan --------------------------------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        if count <= 0:
            return []
        with self.pager.phase("scan"):
            iters: List[Iterator[KeyPayload]] = []
            buffered = self.buffer_count
            if buffered:
                raw = self._buffer_bytes()
                slot = bisect_left(raw, start_key, buffered)
                iters.append(iter_entries(raw, buffered - slot,
                                          slot * ENTRY_SIZE))
            for component in self.components:
                if component is None:
                    continue
                pos = component.ceiling_position(start_key)
                if pos < component.count:
                    iters.append(component.iterate_from(pos))
            return _merge_iters_take(iters, count)

    # -- misc ---------------------------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        """Pin descriptor levels of all (current and future) components."""
        self._levels_resident = resident
        for component in self.components:
            if component is not None:
                component.levels_file.memory_resident = resident

    def verify(self) -> int:
        """Check buffer/component sortedness, level capacities, that every
        component entry is what a point lookup of its key returns, and
        the newest-wins visibility of every key."""
        with self._free_io():
            buffered = unpack_entries(self._buffer_bytes(), self.buffer_count)
            buffer_keys = [k for k, _ in buffered]
            assert buffer_keys == sorted(set(buffer_keys)), "insert buffer unsorted"
            assert len(buffered) < self.buffer_capacity, "buffer overfull"
            seen = {}
            for k, p in buffered:
                seen.setdefault(k, p)
            for level, component in enumerate(self.components):
                if component is None:
                    continue
                assert component.count <= self._level_capacity(level), (
                    f"component at level {level} over capacity")
                previous = -1
                walked = 0
                for k, p in component.iterate_from(0):
                    assert k > previous, "component data unsorted"
                    assert component.lookup(k) == p, (
                        f"key {k} of level {level} is unreachable")
                    previous = k
                    walked += 1
                    seen.setdefault(k, p)
                assert walked == component.count, "component count mismatch"
            return sum(1 for p in seen.values() if p != TOMBSTONE)

    def init_params(self) -> dict:
        return {"epsilon": self.epsilon, "buffer_capacity": self.buffer_capacity,
                "level_ratio": self.level_ratio, "file_prefix": self.file_prefix,
                "codec": self.codec.name}

    def to_meta(self) -> dict:
        return {"buffer_count": self.buffer_count,
                "generation": self._generation,
                "levels_resident": self._levels_resident,
                "num_merges": self.num_merges,
                "components": [c.to_meta() if c is not None else None
                               for c in self.components]}

    def restore_meta(self, meta: dict) -> None:
        self.buffer_count = meta["buffer_count"]
        self._generation = meta["generation"]
        self._levels_resident = meta["levels_resident"]
        self.num_merges = meta["num_merges"]
        self.components = [
            StaticPgm.attach(self.pager, c) if c is not None else None
            for c in meta["components"]
        ]

    def file_roles(self) -> dict:
        roles = {self._buffer_file.name: "leaf"}
        for component in self.components:
            if component is not None:
                roles[component.levels_file.name] = "inner"
                roles[component.data_file.name] = "leaf"
        return roles

    def height(self) -> int:
        heights = [c.num_levels for c in self.components if c is not None]
        return max(heights) if heights else 1

    @property
    def num_components(self) -> int:
        return sum(1 for c in self.components if c is not None)


# -- module helpers -------------------------------------------------------------


def _find_in_region(view, file, count: int, key: int) -> Optional[int]:
    """Binary search a sorted on-disk entry region, probing entry by entry.

    Each probe is one 16-byte entry of ``file`` read through ``view``
    (:meth:`Pager.view`), which serves a probe into the block it holds
    free: the search is charged for the distinct blocks its probes land
    in — one or two for a 3-block buffer, matching the paper's Figure 6
    analysis.  The probe sequence (it stops on the hit) is part of the
    charged cost, which is why this is not a bisect over one fetched
    range.
    """
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        mid_key, payload = _ENTRY.unpack_from(*view(file, mid * ENTRY_SIZE, ENTRY_SIZE))
        if mid_key == key:
            return payload
        if mid_key < key:
            lo = mid + 1
        else:
            hi = mid
    return None


def _merge_runs(runs: List[List[KeyPayload]]) -> List[KeyPayload]:
    """Merge key-sorted runs; on duplicate keys the earliest run wins."""
    heap: List[Tuple[int, int, int]] = []  # key, run index, position
    for run_index, run in enumerate(runs):
        if run:
            heap.append((run[0][0], run_index, 0))
    heapq.heapify(heap)
    out: List[KeyPayload] = []
    while heap:
        key, run_index, pos = heapq.heappop(heap)
        if not out or out[-1][0] != key:
            out.append(runs[run_index][pos])
        if pos + 1 < len(runs[run_index]):
            heapq.heappush(heap, (runs[run_index][pos + 1][0], run_index, pos + 1))
    return out


def _merge_iters_take(iters: List[Iterator[KeyPayload]], count: int) -> List[KeyPayload]:
    """Take the first ``count`` live entries of the merged iterators.

    Iterators are ordered newest-first; on duplicate keys the newest run
    wins, and keys whose newest value is a tombstone are skipped.  Every
    entry taken from a run is followed by a pull of that run's next one
    (the merge needs it to order the runs), the last entry of the scan
    included — the block that pull may fetch is part of a scan's charge.
    """
    heap: List[Tuple[int, int, int, Iterator[KeyPayload]]] = []
    for i, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], i, first[1], it))
    heapq.heapify(heap)
    out: List[KeyPayload] = []
    last_key: Optional[int] = None
    while len(heap) > 1 and len(out) < count:
        key, i, payload, it = heapq.heappop(heap)
        if key != last_key:
            last_key = key
            if payload != TOMBSTONE:
                out.append((key, payload))
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], i, nxt[1], it))
    if heap and len(out) < count:
        # One run left, nothing to order it against: its head (which a
        # newer run may have shadowed), then slices of what the scan
        # still needs — keys within a run are distinct.
        key, _i, payload, it = heap[0]
        if key != last_key and payload != TOMBSTONE:
            out.append((key, payload))
        while len(out) < count:
            wanted = count - len(out)
            entries = list(islice(it, wanted))
            out.extend([entry for entry in entries if entry[1] != TOMBSTONE])
            if len(entries) < wanted:
                return out  # the run ended
        next(it, None)
    return out
