"""FITing-tree on disk (Delta Insert Strategy).

Port of Galakatos et al.'s FITing-tree following Section 4.2 of the
paper, which makes three changes to the original in-memory design:

1. the greedy segmentation is replaced with PGM's optimal streaming
   algorithm (:func:`repro.models.optimal_segments`);
2. an extra one-block *head buffer* holds keys smaller than the current
   minimum key (the original cannot insert below the first segment);
3. each segment carries sibling links and its item count in a small
   header, so scans can walk segments like linked B+-tree leaves.

Structure on disk:

* ``<prefix>.idx.inner`` / ``<prefix>.idx.leaf`` — a B+-tree over
  segment descriptors.  The descriptor stores the segment's linear model,
  so the model lives *in the parent* (the paper's S1 shortcoming does not
  apply to the FITing-tree).
* ``<prefix>.data`` — block 0 is the head buffer; segments follow as
  contiguous extents: a 64-byte header, the sorted data region, then a
  sorted delta buffer of ``buffer_capacity`` entries.

Inserts go to the segment's delta buffer; a full buffer triggers the
*resegment* SMO: data + buffer are merged, re-segmented with the error
bound, and the descriptor tree is patched.

The structure changes through one routine (DESIGN.md Section 19):
:meth:`FitingTreeIndex._write_run` segments a sorted run, writes the
extents, yields their directory records and links them into the chain;
bulk load, head-buffer flush and resegment are its three callers.  A
segment's first key is its directory key: a resegment carries that entry
over dead or alive, so the first new segment takes over the old record.

Nothing fetched is unpacked on a point path (DESIGN.md Section 15): the
predicted data window, the delta buffer and the head buffer are bisected
as the bytes the pager returned (:mod:`.serial`), a hit decodes one
entry, and a buffer insert writes back ``record + tail`` sliced from the
bytes it read; scans decode from the start key on.  One routine,
:meth:`FitingTreeIndex._lookup_in_segment`, serves ``lookup`` and
``lookup_many``, and ``update`` / ``delete`` / ``scan`` follow its
precedence (a live data-region entry wins; the delta buffer counts only
on a miss or over a tombstone).  Only the SMOs and ``verify`` build
entry lists.  Pager calls and written bytes are pinned by
``tests/golden/learned_pages.json`` (data side) and
``tests/golden/btree_pages.json`` (descriptor tree).
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

from ..models import optimal_segments, shrinking_cone_segments
from ..storage import Pager
from .btree import BPlusTree
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload, TOMBSTONE
from .serial import (ENTRY_SIZE, NULL_BLOCK, bisect_left, find_entry,
                     iter_entries, pack_entries, pack_entry, splice,
                     unpack_entries)

__all__ = ["FitingTreeIndex"]

_SEG_HEADER = struct.Struct("<IIIIII QQ dd")
# item_count, buffer_count, left_sib, right_sib, data_capacity, buffer_capacity,
# first_key, reserved, slope, intercept
SEG_HEADER_SIZE = 64

_DESCRIPTOR = struct.Struct("<IIII dd")
# seg_block, extent_blocks, data_capacity, buffer_capacity, slope, intercept
DESCRIPTOR_SIZE = _DESCRIPTOR.size  # 32

_HEAD_HEADER = struct.Struct("<I12x")  # count; head buffer occupies block 0
HEAD_HEADER_SIZE = _HEAD_HEADER.size  # 16


class _SegmentHeader:
    __slots__ = ("item_count", "buffer_count", "left_sib", "right_sib",
                 "data_capacity", "buffer_capacity", "first_key", "slope", "intercept")

    def __init__(self, item_count: int, buffer_count: int, left_sib: int, right_sib: int,
                 data_capacity: int, buffer_capacity: int, first_key: int,
                 slope: float, intercept: float) -> None:
        self.item_count = item_count
        self.buffer_count = buffer_count
        self.left_sib = left_sib
        self.right_sib = right_sib
        self.data_capacity = data_capacity
        self.buffer_capacity = buffer_capacity
        self.first_key = first_key
        self.slope = slope
        self.intercept = intercept

    def pack(self) -> bytes:
        out = bytearray(SEG_HEADER_SIZE)
        _SEG_HEADER.pack_into(out, 0, self.item_count, self.buffer_count,
                              self.left_sib, self.right_sib,
                              self.data_capacity, self.buffer_capacity,
                              self.first_key, 0, self.slope, self.intercept)
        return bytes(out)



class FitingTreeIndex(DiskIndex):
    """Disk-resident FITing-tree with the Delta Insert Strategy.

    Args:
        pager: storage access path.
        error_bound: PLA error bound epsilon (paper default 64).
        buffer_capacity: delta-buffer entries per segment (paper default 256).
    """

    name = "fiting"

    def __init__(self, pager: Pager, error_bound: int = 64, buffer_capacity: int = 256,
                 segmentation: str = "streaming", file_prefix: str = "fiting",
                 codec: str = "raw") -> None:
        super().__init__(pager)
        # The FITing-tree addresses segment data through per-segment
        # linear models whose predictions are fixed-stride slot offsets,
        # so compressed leaf pages (Section 16) do not apply: the codec
        # name is validated, then the raw layout is kept.
        get_codec(codec)
        if error_bound < 1:
            raise ValueError(f"error bound must be >= 1, got {error_bound}")
        if buffer_capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {buffer_capacity}")
        if segmentation not in ("streaming", "greedy"):
            raise ValueError(
                f"segmentation must be 'streaming' or 'greedy', got {segmentation!r}")
        self._file_prefix = file_prefix
        self.error_bound = error_bound
        self.buffer_capacity = buffer_capacity
        # Section 4.2 of the paper replaces the original greedy algorithm
        # with PGM's optimal streaming one; "greedy" restores the original
        # shrinking-cone for ablations.
        self.segmentation = segmentation
        self._segment_fn = (optimal_segments if segmentation == "streaming"
                            else shrinking_cone_segments)
        device = pager.device
        self._idx_inner = device.get_or_create_file(f"{file_prefix}.idx.inner")
        self._idx_leaf = device.get_or_create_file(f"{file_prefix}.idx.leaf")
        self._data = device.get_or_create_file(f"{file_prefix}.data")
        self.directory = BPlusTree(pager, self._idx_inner, self._idx_leaf,
                                   data_size=DESCRIPTOR_SIZE)
        # Meta-block state, allowed in main memory per the paper.
        self.global_min: Optional[int] = None
        self.first_segment_block: int = NULL_BLOCK
        self.num_segments = 0
        self.num_resegments = 0
        self._head_capacity = (pager.block_size - HEAD_HEADER_SIZE) // ENTRY_SIZE

    # -- low-level segment access ---------------------------------------------

    def _extent_blocks(self, data_capacity: int, buffer_capacity: int) -> int:
        nbytes = SEG_HEADER_SIZE + (data_capacity + buffer_capacity) * ENTRY_SIZE
        return (nbytes + self.pager.block_size - 1) // self.pager.block_size

    def _read_header(self, seg_block: int) -> _SegmentHeader:
        fields = _SEG_HEADER.unpack_from(*self.pager.view(
            self._data, seg_block * self.pager.block_size, SEG_HEADER_SIZE))
        return _SegmentHeader(*fields[:7], *fields[8:])  # less the reserved word

    def _write_header(self, seg_block: int, header: _SegmentHeader) -> None:
        self.pager.write_bytes(self._data, seg_block * self.pager.block_size, header.pack())

    def _data_offset(self, seg_block: int, slot: int) -> int:
        return seg_block * self.pager.block_size + SEG_HEADER_SIZE + slot * ENTRY_SIZE

    def _buffer_offset(self, seg_block: int, data_capacity: int, slot: int) -> int:
        return (seg_block * self.pager.block_size + SEG_HEADER_SIZE
                + (data_capacity + slot) * ENTRY_SIZE)

    def _data_view(self, seg_block: int, lo: int, count: int) -> Tuple[bytes, int]:
        """``count`` entries from slot ``lo`` of the segment's data region,
        as :meth:`~repro.storage.Pager.view` holds them: the data and
        where entry ``lo`` starts in it (nothing is read for none)."""
        if count <= 0:
            return b"", 0
        bs = self.pager.block_size  # _data_offset, inlined on the lookup path
        return self.pager.view(self._data, seg_block * bs + SEG_HEADER_SIZE + lo * ENTRY_SIZE,
                               count * ENTRY_SIZE)

    def _buffer_view(self, seg_block: int, header: _SegmentHeader) -> Tuple[bytes, int]:
        """The segment's sorted delta buffer, as :meth:`_data_view` holds
        the data region."""
        if not header.buffer_count:
            return b"", 0
        return self.pager.view(
            self._data, self._buffer_offset(seg_block, header.data_capacity, 0),
            header.buffer_count * ENTRY_SIZE)

    def _read_head(self) -> Tuple[bytes, int]:
        """The head-buffer block and its entry count."""
        raw = self.pager.read_block(self._data, 0)
        return raw, _HEAD_HEADER.unpack_from(raw)[0]

    def _write_head(self, count: int, run: bytes = b"") -> None:
        self.pager.write_block(
            self._data, 0,
            (_HEAD_HEADER.pack(count) + run).ljust(self.pager.block_size, b"\x00"))

    # -- bulk load -------------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self._data.num_blocks:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            self._bulk_load(items)

    def _bulk_load(self, items: Sequence[KeyPayload]) -> None:
        # Block 0 of the data file is the head buffer.
        self._data.allocate(1)
        self._write_head(0)
        self.directory.bulk_load(list(self._write_run(items, NULL_BLOCK, NULL_BLOCK)))
        if items:
            self.global_min = items[0][0]

    def _write_run(self, entries: Sequence[KeyPayload], left: int,
                   right: int) -> Iterator[Tuple[int, bytes]]:
        """The one structural operation: cut a sorted run into epsilon-bounded
        segments, write each as an extent and yield its ``(first key,
        descriptor)`` directory record as soon as it is written; once the
        caller has taken the last record, link the new extents to each other
        and to the segments at ``left`` and ``right`` (``NULL_BLOCK``: none)."""
        blocks: List[int] = []
        for seg in self._segment_fn([key for key, _ in entries], self.error_bound):
            slope, intercept = seg.model.slope, seg.model.intercept - seg.first_pos
            extent = self._extent_blocks(seg.length, self.buffer_capacity)
            block = self._data.allocate(extent)
            blocks.append(block)
            header = _SegmentHeader(
                item_count=seg.length, buffer_count=0,
                left_sib=NULL_BLOCK, right_sib=NULL_BLOCK,
                data_capacity=seg.length, buffer_capacity=self.buffer_capacity,
                first_key=seg.first_key, slope=slope, intercept=intercept)
            self.pager.write_bytes(
                self._data, block * self.pager.block_size, header.pack() + pack_entries(
                    entries[seg.first_pos : seg.first_pos + seg.length]))
            yield seg.first_key, _DESCRIPTOR.pack(
                block, extent, seg.length, self.buffer_capacity, slope, intercept)
        if not blocks:
            return  # an empty bulk load
        # Each link is a header read-modify-write (DESIGN.md Section 19:
        # the read-backs are charged, ROADMAP item 5 audits them).
        for i, block in enumerate(blocks):
            self._link(block, left=blocks[i - 1] if i else None,
                       right=blocks[i + 1] if i + 1 < len(blocks) else None)
        if left == NULL_BLOCK:
            self.first_segment_block = blocks[0]
        else:
            self._link(left, right=blocks[0])
            self._link(blocks[0], left=left)
        if right != NULL_BLOCK:
            self._link(right, left=blocks[-1])
            self._link(blocks[-1], right=right)
        self.num_segments += len(blocks)

    def _link(self, seg_block: int, left: Optional[int] = None,
              right: Optional[int] = None) -> None:
        """Set a segment's sibling links (``None``: leave as stored)."""
        header = self._read_header(seg_block)
        if left is not None:
            header.left_sib = left
        if right is not None:
            header.right_sib = right
        self._write_header(seg_block, header)

    # -- lookup ---------------------------------------------------------------------

    def _predict_range(self, first_key: int, slope: float, intercept: float, key: int,
                       item_count: int) -> Tuple[int, int]:
        """The [pred - eps, pred + eps] window inside a segment.

        The model is anchored at the segment's first key; the integer
        subtraction keeps float evaluation exact within the segment.
        """
        pred = int(slope * float(int(key) - int(first_key)) + intercept)
        # One extra slot of slack on each side: float associativity can
        # truncate a boundary prediction down by one, and the PLA bound
        # only holds in exact arithmetic.
        lo = max(0, pred - self.error_bound - 1)
        hi = min(item_count - 1, pred + self.error_bound + 1)
        return lo, hi

    def _locate_descriptor(self, key: int) -> Optional[Tuple[int, Tuple]]:
        """Floor-search the directory; returns (first_key, descriptor tuple)."""
        record = self.directory.floor_record(key)
        if record is None:
            return None
        first_key, data = record
        return first_key, _DESCRIPTOR.unpack(data)

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            return self._lookup(key)

    def _lookup(self, key: int) -> Optional[int]:
        if self.global_min is None or key < self.global_min:
            return self._head_buffer_lookup(key)
        located = self._locate_descriptor(key)
        if located is None:
            return self._head_buffer_lookup(key)
        first_key, descriptor = located
        return self._lookup_in_segment(key, first_key, descriptor)

    def _lookup_in_segment(self, key: int, first_key: int,
                           descriptor: Tuple) -> Optional[int]:
        seg_block, _extent, data_cap, _buf_cap, slope, intercept = descriptor
        # The descriptor carries everything the data-region probe needs
        # (the data region is immutable between SMOs), so the segment
        # header is only fetched on a miss, when the delta buffer must be
        # consulted — this is why the paper's FITing-tree averages ~1.2
        # leaf blocks per lookup.
        lo, hi = self._predict_range(first_key, slope, intercept, key, data_cap)
        count = max(hi - lo + 1, 0)
        data, at = self._data_view(seg_block, lo, count)
        found = find_entry(data, key, count, at)[1]
        if found is not None and found != TOMBSTONE:
            return found
        # Miss or tombstoned: the delta buffer may hold the key (a
        # re-insert after a delete shadows the tombstone).
        header = self._read_header(seg_block)
        data, at = self._buffer_view(seg_block, header)
        buffered = find_entry(data, key, header.buffer_count, at)[1]
        return None if buffered == TOMBSTONE else buffered

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Batched lookups: one coalesced descent through the descriptor
        tree for the whole sorted batch (:meth:`BPlusTree.floor_records`),
        then per-segment probes inside a pin scope so keys sharing a
        segment share its fetched range/header/buffer blocks."""
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        unique = sorted(set(keys))
        results = {}
        with self.pager.phase("search"), self.pager.batch():
            routable = ([key for key in unique if key >= self.global_min]
                        if self.global_min is not None else [])
            located = self.directory.floor_records(routable) if routable else {}
            for key in unique:
                record = located.get(key)
                if record is None:
                    results[key] = self._head_buffer_lookup(key)
                    continue
                first_key, data = record
                results[key] = self._lookup_in_segment(
                    key, first_key, _DESCRIPTOR.unpack(data))
        return [results[key] for key in keys]

    def _head_buffer_lookup(self, key: int) -> Optional[int]:
        raw, count = self._read_head()
        found = find_entry(raw, key, count, HEAD_HEADER_SIZE)[1]
        return None if found == TOMBSTONE else found

    # -- insert ------------------------------------------------------------------------

    def insert(self, key: int, payload: int) -> None:
        if self.global_min is None or key < self.global_min:
            self._head_buffer_insert(key, payload)
            return
        with self.pager.phase("search"):
            located = self._locate_descriptor(key)
            if located is None:
                raise RuntimeError("index not bulk-loaded")
            seg_block = located[1][0]
            header = self._read_header(seg_block)
            data, at = self._buffer_view(seg_block, header)
        with self.pager.phase("insert"):
            slot, tail, count = self._buffer_splice(
                data, header.buffer_count, at, key, payload)
            if count <= header.buffer_capacity:
                # Rewrite the buffer tail from the insertion point and bump the
                # header count (the extra block write the paper attributes to
                # the FITing-tree's insert step in Figure 6).
                self.pager.write_bytes(
                    self._data,
                    self._buffer_offset(seg_block, header.data_capacity, slot),
                    tail,
                )
                header.buffer_count = count
                self._write_header(seg_block, header)
                return
        with self.pager.phase("smo"):
            self._resegment(seg_block, header, unpack_entries(
                data[at : at + slot * ENTRY_SIZE] + tail, count))

    @staticmethod
    def _buffer_splice(raw: bytes, count: int, offset: int, key: int,
                       payload: int) -> Tuple[int, bytes, int]:
        """Put (key, payload) into a sorted buffer of ``count`` entries
        at ``offset`` of ``raw`` — a new entry, or over the key's
        tombstone (re-insert after a delete): the slot, the buffer's
        bytes from that slot on, and the new count."""
        slot, held = find_entry(raw, key, count, offset)
        if held is not None and held != TOMBSTONE:
            raise KeyError(f"duplicate key {key}")
        replace = held is not None
        return (slot,
                splice(raw, slot, pack_entry(key, payload), count, offset, replace),
                count + (not replace))

    def _head_buffer_insert(self, key: int, payload: int) -> None:
        with self.pager.phase("insert"):
            raw, count = self._read_head()
            slot, tail, count = self._buffer_splice(
                raw, count, HEAD_HEADER_SIZE, key, payload)
            run = raw[HEAD_HEADER_SIZE : HEAD_HEADER_SIZE + slot * ENTRY_SIZE] + tail
            if count <= self._head_capacity:
                self._write_head(count, run)
                return
        with self.pager.phase("smo"):
            self._flush_head_buffer(unpack_entries(run, count))

    def _flush_head_buffer(self, entries: List[KeyPayload]) -> None:
        """Turn a full head buffer into leading segments of the index."""
        for first_key, descriptor in self._write_run(entries, NULL_BLOCK,
                                                     self.first_segment_block):
            self.directory.insert(first_key, descriptor)
        self.global_min = entries[0][0]
        self._write_head(0)  # reset the head buffer

    def _resegment(self, seg_block: int, header: _SegmentHeader,
                   buffered: List[KeyPayload]) -> None:
        """The FITing-tree SMO: merge data + buffer, re-segment, patch the
        tree.  Every tombstone is dropped except at the segment's first
        key: that is its directory key, so the entry survives dead or
        alive and the first new segment takes over the old record."""
        self.num_resegments += 1
        data, at = self._data_view(seg_block, 0, header.item_count)
        data_entries = unpack_entries(data, header.item_count, at)
        merged = [entry for entry in _merge_sorted(data_entries, buffered)
                  if entry[1] != TOMBSTONE or entry[0] == header.first_key]
        records = list(self._write_run(merged, header.left_sib, header.right_sib))
        self._data.free(seg_block, self._extent_blocks(header.data_capacity,
                                                       header.buffer_capacity))
        self.num_segments -= 1
        replaced = self.directory.update(*records[0])
        assert replaced, "a segment's first key is its directory key"
        for first_key, descriptor in records[1:]:
            self.directory.insert(first_key, descriptor)

    # -- update / delete ---------------------------------------------------------------

    def update(self, key: int, payload: int) -> bool:
        with self.pager.phase("insert"):
            return self._write_payload(key, payload)

    def delete(self, key: int) -> bool:
        """Logical delete: a tombstone payload; space is reclaimed when the
        segment's next resegment SMO filters tombstones out."""
        with self.pager.phase("insert"):
            return self._write_payload(key, TOMBSTONE)

    def _write_payload(self, key: int, payload: int) -> bool:
        """Overwrite an existing key's payload in place (data region,
        delta buffer, or head buffer); False if the key is absent."""
        record = pack_entry(key, payload)
        if self.global_min is None or key < self.global_min:
            raw, count = self._read_head()
            slot, held = find_entry(raw, key, count, HEAD_HEADER_SIZE)
            if held is None or held == TOMBSTONE:
                return False
            self.pager.write_bytes(self._data,
                                   HEAD_HEADER_SIZE + slot * ENTRY_SIZE, record)
            return True
        located = self._locate_descriptor(key)
        if located is None:
            return False
        first_key, (seg_block, _extent, data_cap, _buf_cap, slope, intercept) = located
        # Mirror the lookup's precedence exactly: a live data-region entry
        # is the copy readers see, so it is the copy updates and deletes
        # must hit; the delta buffer is consulted only when the data
        # region misses or holds a tombstone.
        lo, hi = self._predict_range(first_key, slope, intercept, key, data_cap)
        count = max(hi - lo + 1, 0)
        data, at = self._data_view(seg_block, lo, count)
        pos, held = find_entry(data, key, count, at)
        in_data = held is not None and held != TOMBSTONE
        if in_data:
            self.pager.write_bytes(self._data,
                                   self._data_offset(seg_block, lo + pos), record)
        header = self._read_header(seg_block)
        data, at = self._buffer_view(seg_block, header)
        slot, held = find_entry(data, key, header.buffer_count, at)
        # After a data-region hit, write through to a buffered duplicate
        # (a shadowing insert) so every copy a reader could reach carries
        # the same payload — otherwise tombstoning the data copy would
        # expose a stale buffered one.  Otherwise the buffered entry is
        # the key's only live copy, unless it is a tombstone (deleted).
        if held is not None and (in_data or held != TOMBSTONE):
            self.pager.write_bytes(
                self._data,
                self._buffer_offset(seg_block, header.data_capacity, slot), record)
            return True
        return in_data

    # -- scan ---------------------------------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        with self.pager.phase("scan"):
            return self._scan(start_key, count)

    def _scan(self, start_key: int, count: int) -> List[KeyPayload]:
        out: List[KeyPayload] = []
        if count <= 0:
            return out
        # Head buffer first: it holds the globally smallest keys.
        if self.global_min is None or start_key < self.global_min:
            raw, head_count = self._read_head()
            slot = bisect_left(raw, start_key, head_count, HEAD_HEADER_SIZE)
            for entry in iter_entries(raw, head_count - slot,
                                      HEAD_HEADER_SIZE + slot * ENTRY_SIZE):
                if entry[1] != TOMBSTONE:
                    out.append(entry)
                    if len(out) >= count:
                        return out
        located = self._locate_descriptor(start_key)
        if located is None:
            if self.first_segment_block == NULL_BLOCK:
                return out
            seg_block = self.first_segment_block
        else:
            seg_block = located[1][0]
        while seg_block != NULL_BLOCK and len(out) < count:
            header = self._read_header(seg_block)
            lo = 0
            if located is not None and seg_block == located[1][0]:
                # Entries before pred - epsilon cannot be >= start_key, so the
                # first fetch can skip them; later segments read from slot 0.
                lo, _ = self._predict_range(located[0], located[1][4], located[1][5],
                                            start_key, header.item_count)
            data, at = self._buffer_view(seg_block, header)
            slot = bisect_left(data, start_key, header.buffer_count, at)
            buffered = unpack_entries(data, header.buffer_count - slot,
                                      at + slot * ENTRY_SIZE)
            self._scan_segment(seg_block, header, lo, start_key, buffered, count, out)
            seg_block = header.right_sib
            located = None  # subsequent segments are read from the start
        return out

    def _scan_segment(self, seg_block: int, header: _SegmentHeader, lo: int,
                      start_key: int, buffered: List[KeyPayload], count: int,
                      out: List[KeyPayload]) -> None:
        """Stream a segment's data region in small chunks, merging the
        delta buffer's entries from ``start_key`` on in key order.

        Reading only as many entries as the scan still needs keeps the
        fetched block count proportional to the scan length, matching the
        paper's FITing-tree scan costs (rather than the whole segment).
        """
        buf_pos = 0
        pos = lo
        while pos < header.item_count and len(out) < count:
            # A chunk sized to the remaining need (+ slack for entries
            # below start_key inside the first fetched range).
            chunk_len = min(count - len(out) + self.error_bound,
                            header.item_count - pos)
            data, at = self._data_view(seg_block, pos, chunk_len)
            skip = bisect_left(data, start_key, chunk_len, at)
            for key, payload in iter_entries(data, chunk_len - skip,
                                             at + skip * ENTRY_SIZE):
                while (buf_pos < len(buffered) and buffered[buf_pos][0] < key):
                    if buffered[buf_pos][1] != TOMBSTONE:
                        out.append(buffered[buf_pos])
                        if len(out) >= count:
                            return
                    buf_pos += 1
                if buf_pos < len(buffered) and buffered[buf_pos][0] == key:
                    # The lookup's precedence: a live data-region entry
                    # wins over a buffered duplicate (a shadowing insert);
                    # the buffered one counts only over a tombstone (a
                    # re-insert after a delete).
                    if payload == TOMBSTONE:
                        payload = buffered[buf_pos][1]
                    buf_pos += 1
                if payload != TOMBSTONE:
                    out.append((key, payload))
                    if len(out) >= count:
                        return
            pos += chunk_len
        # Data exhausted: drain the remaining buffered entries.
        while buf_pos < len(buffered) and len(out) < count:
            if buffered[buf_pos][1] != TOMBSTONE:
                out.append(buffered[buf_pos])
            buf_pos += 1

    # -- misc --------------------------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        self._idx_inner.memory_resident = resident
        self._idx_leaf.memory_resident = resident

    def verify(self) -> int:
        """Check the head buffer, sortedness, the sibling chain against the
        directory (record by record: neither holds a segment the other
        lacks) and read every live key back through the point path."""
        with self._free_io():
            # Head buffer: sorted, strictly below the global minimum.
            raw, head_count = self._read_head()
            stored = dict(unpack_entries(raw, head_count, HEAD_HEADER_SIZE))
            assert list(stored) == sorted(stored) and len(stored) == head_count, (
                "head buffer unsorted")
            if self.global_min is not None and stored:
                assert max(stored) < self.global_min, "head buffer overlaps segments"
            count = self._read_back(stored)
            # Segment chain vs directory.
            directory = list(self.directory.iterate_from(0))
            assert len(directory) == self.num_segments, "segment count mismatch"
            seg_block = self.first_segment_block
            previous_key = -1
            for first_key, data in directory:
                descriptor = _DESCRIPTOR.unpack(data)
                assert seg_block == descriptor[0], "sibling chain diverges from directory"
                header = self._read_header(seg_block)
                assert header.first_key == first_key, "header/descriptor key mismatch"
                assert header.item_count == descriptor[2], "stale descriptor capacity"
                region, at = self._data_view(seg_block, 0, header.item_count)
                entries = unpack_entries(region, header.item_count, at)
                keys = [k for k, _ in entries]
                assert keys == sorted(set(keys)), "segment data unsorted"
                assert keys[0] == first_key, "segment first key mismatch"
                assert keys[0] > previous_key, "segments out of order"
                previous_key = keys[-1]
                region, at = self._buffer_view(seg_block, header)
                buffered = unpack_entries(region, header.buffer_count, at)
                buffer_keys = [k for k, _ in buffered]
                assert buffer_keys == sorted(set(buffer_keys)), "delta buffer unsorted"
                # The lookup's precedence: a live data-region entry wins.
                stored = dict(buffered)
                stored.update(entry for entry in entries if entry[1] != TOMBSTONE)
                count += self._read_back(stored)
                seg_block = header.right_sib
            assert seg_block == NULL_BLOCK, "sibling chain longer than directory"
            return count

    def _read_back(self, stored: dict) -> int:
        """``verify``: every live entry of ``stored``, through the point path."""
        live = [entry for entry in stored.items() if entry[1] != TOMBSTONE]
        for key, payload in live:
            assert self._lookup(key) == payload, f"key {key} is unreachable"
        return len(live)

    def init_params(self) -> dict:
        return {"error_bound": self.error_bound,
                "buffer_capacity": self.buffer_capacity,
                "segmentation": self.segmentation,
                "file_prefix": self._file_prefix}

    def to_meta(self) -> dict:
        return {"global_min": self.global_min,
                "first_segment_block": self.first_segment_block,
                "num_segments": self.num_segments,
                "num_resegments": self.num_resegments,
                "directory": {"root_block": self.directory.root_block,
                              "root_is_leaf": self.directory.root_is_leaf,
                              "num_levels": self.directory.num_levels,
                              "num_records": self.directory.num_records}}

    def restore_meta(self, meta: dict) -> None:
        self.global_min = meta["global_min"]
        self.first_segment_block = meta["first_segment_block"]
        self.num_segments = meta["num_segments"]
        self.num_resegments = meta["num_resegments"]
        directory = meta["directory"]
        self.directory.root_block = directory["root_block"]
        self.directory.root_is_leaf = directory["root_is_leaf"]
        self.directory.num_levels = directory["num_levels"]
        self.directory.num_records = directory["num_records"]

    def file_roles(self) -> dict:
        return {self._idx_inner.name: "inner", self._idx_leaf.name: "inner",
                self._data.name: "leaf"}

    def height(self) -> int:
        return self.directory.num_levels + 1


def _merge_sorted(a: List[KeyPayload], b: List[KeyPayload]) -> List[KeyPayload]:
    """Merge two key-sorted entry lists; on equal keys a *live* ``a``
    (data region) entry wins — the copy lookups serve — while a
    tombstoned one yields to ``b`` (the delta buffer), so a buffered
    re-insert after a delete still shadows the dead data entry."""
    out: List[KeyPayload] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        elif a[i][0] > b[j][0]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i] if a[i][1] != TOMBSTONE else b[j])
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out
