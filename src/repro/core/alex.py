"""ALEX on disk.

The paper's Section 4.1 uses ALEX as its running example because it is
the hardest index to port: variable-size nodes crossing blocks, bitmaps,
gapped arrays, per-node statistics, and structure-modifying operations.
This implementation follows that section:

* **Layout#2** (default): inner nodes in one file, data nodes in another
  — the paper measures 0.5%-30% speedup over Layout#1 (a single file)
  because several small inner nodes share a block.  Both layouts are
  implemented; pass ``layout=1`` for the single-file variant.
* The first "block" of metadata (root pointer) lives in memory, as the
  paper's meta-block convention allows.
* A node's extent is contiguous; a data node's linear model sits in the
  node header, so the header and a predicted slot can land in different
  blocks — shortcoming **S1** measured in Table 4.
* Gap slots hold a copy of the nearest real entry on their left (the
  first entry for leading gaps), so lookups never touch the bitmap; the
  price is the forward gap-overwrite on inserts — shortcoming **S5**.
* Scans must skip gaps with the bitmap, loading it block by block —
  shortcoming **S3**.
* Every insert updates the node-header statistics, an extra block write
  the paper charges to the *maintenance* step in Figure 6.

There is one search (DESIGN.md Section 15): :meth:`AlexIndex._descend`
walks the inner nodes and :meth:`AlexIndex._search_node` runs the
exponential search inside a data node, for ``lookup``, ``lookup_many``,
the probes of ``insert`` / ``update`` / ``delete`` and the start slot of
``scan`` alike.  Each probe is one :meth:`~repro.storage.Pager.view` of
its 16 bytes, decoded in place; the pager serves a probe into the block
it holds free, so what the device and the buffer pool are asked, and
every charged number, is what one ``read_bytes`` per probe produces.
The write side (bitmap bits, gap runs, SMOs) and the scan's bitmap walk
go to the pager call by call: those are the S3/S5 and maintenance costs
above.  What a scan, an SMO and ``verify`` do with a fetched bitmap
chunk and entry group is array work: :func:`_set_slots` turns bitmap
bytes into the set slots in one pass, and a group of entries is
filtered as two columns.

The one deliberate simplification: ALEX's workload-statistics cost model
for choosing between node expansion and splitting is replaced with the
deterministic policy "expand until the maximum node size, then split
sideways".  The I/O profile of each mechanism is modelled faithfully;
only the *choice* is simplified (documented in DESIGN.md).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models import LinearModel, anchored_diff
from ..storage import Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload, TOMBSTONE
from .serial import ENTRY_SIZE, NULL_BLOCK, pack_entries, unpack_entries

__all__ = ["AlexIndex"]

_ENTRY = struct.Struct("<QQ")
_U64 = struct.Struct("<Q")

_INNER_HEADER = struct.Struct("<BxxxIddQ")  # type, fanout, slope, intercept, anchor
_DATA_HEADER = struct.Struct("<BxxxIIddQIIII")
# type, capacity, num_keys, slope, intercept, anchor, prev, next, num_inserts, num_shifts
HEADER_SIZE = 64
_IS_DATA = 1 << 63
_PTR_MASK = (1 << 40) - 1
# A pointer's value field holds a *block number* for data nodes (data
# extents are block aligned) and a *byte offset* for inner nodes — in
# Layout#2 several small inner nodes are packed into one block, which is
# exactly the advantage the paper measures for that layout.


def _partition_point(items: Sequence[KeyPayload], is_left: "callable") -> int:
    """First index whose key fails the monotone ``is_left`` predicate."""
    lo, hi = 0, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if is_left(items[mid][0]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _pack_ptr(is_data: bool, block: int) -> int:
    return (_IS_DATA if is_data else 0) | block


def _ptr_is_data(ptr: int) -> bool:
    return bool(ptr & _IS_DATA)


def _ptr_block(ptr: int) -> int:
    return ptr & _PTR_MASK


def _predict_slot(slope: float, intercept: float, anchor: int, key: int,
                  size: int) -> int:
    """``LinearModel(slope, intercept, anchor).predict_clamped(key, size)``
    on the fields of a node header as unpacked: the same integer
    subtraction, float multiply-add and truncation, no model object."""
    pos = int(slope * float(int(key) - anchor) + intercept)
    return 0 if pos < 0 else min(pos, size - 1)


def _predict_slots(model: LinearModel, keys: np.ndarray, size: int) -> np.ndarray:
    """``model.predict_clamped(key, size)`` of every key of a uint64
    array: the same exact subtraction and float multiply-add
    (:func:`anchored_diff`), clamped before the truncation."""
    pos = model.slope * anchored_diff(keys, np.uint64(model.anchor)) + model.intercept
    return np.clip(pos, 0, size - 1).astype(np.int64)


def _entry_array(items: Sequence[KeyPayload]) -> np.ndarray:
    """``(key, payload)`` pairs as the ``(n, 2)`` uint64 array the node
    builders take (through the struct packer: half the time of
    ``np.asarray`` on a list of tuples)."""
    return np.frombuffer(pack_entries(items), dtype="<u8").reshape(-1, 2)


def _set_slots(bitmap: bytes, first_slot: int, start_slot: int,
               capacity: int) -> np.ndarray:
    """The slots in ``[start_slot, capacity)`` whose bit is set, in
    order; ``bitmap`` is a run of a node's bitmap bytes whose first bit
    is slot ``first_slot`` (slot ``s`` is bit ``s & 7`` of byte
    ``s >> 3``)."""
    bits = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8), bitorder="little")
    skip = max(start_slot - first_slot, 0)
    return np.flatnonzero(bits[skip:capacity - first_slot]) + (first_slot + skip)


class _DataHeader:
    __slots__ = ("capacity", "num_keys", "slope", "intercept", "anchor", "prev", "next",
                 "num_inserts", "num_shifts")

    def __init__(self, capacity: int, num_keys: int, slope: float, intercept: float,
                 anchor: int = 0, prev: int = NULL_BLOCK, next_: int = NULL_BLOCK,
                 num_inserts: int = 0, num_shifts: int = 0) -> None:
        self.capacity = capacity
        self.num_keys = num_keys
        self.slope = slope
        self.intercept = intercept
        self.anchor = anchor
        self.prev = prev
        self.next = next_
        self.num_inserts = num_inserts
        self.num_shifts = num_shifts

    def pack(self) -> bytes:
        out = bytearray(HEADER_SIZE)
        _DATA_HEADER.pack_into(out, 0, 1, self.capacity, self.num_keys,
                               self.slope, self.intercept, self.anchor,
                               self.prev, self.next,
                               self.num_inserts, self.num_shifts)
        return bytes(out)


class AlexIndex(DiskIndex):
    """Disk-resident ALEX (updatable adaptive learned index).

    Args:
        pager: storage access path.
        layout: 2 (default) for separate inner/data files, 1 for a
            single shared file (the paper's Layout#1 ablation).
        max_data_node_entries: capacity cap of a data node's gapped
            array (the paper's in-memory ALEX caps nodes at 16 MiB; the
            default 4096 entries = 16 blocks keeps the same multi-block
            geometry at our scaled-down N).
        init_density / full_density: gapped-array densities at node
            creation and at the SMO trigger (ALEX defaults 0.7 / 0.8).
    """

    name = "alex"

    def __init__(self, pager: Pager, layout: int = 2, max_data_node_entries: int = 4096,
                 init_density: float = 0.7, full_density: float = 0.8,
                 max_fanout: int = 4096, file_prefix: str = "alex",
                 codec: str = "raw") -> None:
        super().__init__(pager)
        # ALEX's gapped arrays address slots in place through the node
        # model (fixed 16-byte stride, exponential search around the
        # prediction), which a variable-width codec page cannot provide;
        # the codec name is validated, then the raw layout is kept.
        get_codec(codec)
        if layout not in (1, 2):
            raise ValueError(f"layout must be 1 or 2, got {layout}")
        if not 0.0 < init_density < full_density <= 1.0:
            raise ValueError("need 0 < init_density < full_density <= 1")
        if max_data_node_entries < 16:
            raise ValueError("max_data_node_entries must be >= 16")
        self._file_prefix = file_prefix
        self.layout = layout
        self.max_data_node_entries = max_data_node_entries
        self.init_density = init_density
        self.full_density = full_density
        self.max_fanout = max_fanout
        device = pager.device
        if layout == 2:
            self._inner_file = device.get_or_create_file(f"{file_prefix}.inner")
            self._data_file = device.get_or_create_file(f"{file_prefix}.data")
        else:
            shared = device.get_or_create_file(f"{file_prefix}.all")
            self._inner_file = shared
            self._data_file = shared
        self.root_ptr: Optional[int] = None  # meta block, in memory
        self._inner_tail = 0  # bump allocator position for Layout#2 inner nodes
        self.num_expands = 0
        self.num_splits = 0
        self.num_split_downs = 0

    # -- geometry ------------------------------------------------------------

    def _bitmap_bytes(self, capacity: int) -> int:
        return (capacity + 7) // 8

    def _data_extent_blocks(self, capacity: int) -> int:
        nbytes = HEADER_SIZE + self._bitmap_bytes(capacity) + capacity * ENTRY_SIZE
        return (nbytes + self.pager.block_size - 1) // self.pager.block_size

    def _alloc_inner(self, nbytes: int) -> int:
        """Allocate inner-node space; returns a byte offset.

        Layout#2 bump-allocates inside the dedicated inner file, packing
        several small inner nodes per block (the paper's reason Layout#2
        wins 0.5%-30% on lookups).  Layout#1 shares one file with data
        nodes, so inner nodes are block aligned and interleaved.
        """
        bs = self.pager.block_size
        if self.layout == 2:
            offset = self._inner_tail
            end_block = (offset + nbytes + bs - 1) // bs
            if end_block > self._inner_file.num_blocks:
                self._inner_file.allocate(end_block - self._inner_file.num_blocks)
            self._inner_tail = offset + nbytes
            return offset
        block = self._inner_file.allocate((nbytes + bs - 1) // bs)
        return block * bs

    def _entries_offset(self, block: int, capacity: int, slot: int) -> int:
        return (block * self.pager.block_size + HEADER_SIZE
                + self._bitmap_bytes(capacity) + slot * ENTRY_SIZE)

    def _bitmap_offset(self, block: int, byte_index: int) -> int:
        return block * self.pager.block_size + HEADER_SIZE + byte_index

    # -- data node construction ----------------------------------------------------

    def _initial_capacity(self, num_keys: int) -> int:
        capacity = max(16, int(num_keys / self.init_density) + 1)
        return min(capacity, self.max_data_node_entries)

    def _build_data_node(self, entries: np.ndarray,
                         capacity: Optional[int] = None,
                         prev: int = NULL_BLOCK, next_: int = NULL_BLOCK) -> int:
        """Write a fresh data node over an ``(n, 2)`` array of sorted
        entries; returns its extent start block.

        Each key goes to the slot its model predicts, pushed right past
        the key before it and held left far enough that the keys after it
        still fit: ``slot[i] = min(max(pred[i], slot[i - 1] + 1),
        capacity - (n - i))``.  Written for ``slot[i] - i`` that is a
        running maximum of ``pred[i] - i`` capped at ``capacity - n``,
        which is how it is computed (DESIGN.md Section 20).
        """
        n = len(entries)
        if capacity is None:
            capacity = self._initial_capacity(n)
        if n > capacity:
            raise ValueError(f"{n} items exceed capacity {capacity}")
        bits = np.zeros(capacity, dtype=np.uint8)  # one per slot: a key lives there
        if n:
            keys = entries[:, 0]
            rank = np.arange(n)
            model = LinearModel.fit_least_squares(
                keys, (rank * capacity / n).astype(np.int64))
            slots = np.minimum(
                np.maximum.accumulate(_predict_slots(model, keys, capacity) - rank),
                capacity - n) + rank
            bits[slots] = 1
            # A gap holds a copy of the entry before it (of the first
            # entry, ahead of it).
            filled = entries[np.maximum(np.cumsum(bits, dtype=np.int64) - 1, 0)]
        else:
            model = LinearModel(0.0, 0.0)
            filled = np.zeros((capacity, 2), dtype=np.uint64)
        header = _DataHeader(capacity, n, model.slope, model.intercept, model.anchor,
                             prev, next_)
        block = self._data_file.allocate(self._data_extent_blocks(capacity))
        payload_bytes = (header.pack() + np.packbits(bits, bitorder="little").tobytes()
                         + filled.tobytes())
        self.pager.write_bytes(self._data_file, block * self.pager.block_size, payload_bytes)
        return block

    # -- bulk load -------------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self.root_ptr is not None:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            self.root_ptr = self._bulk_build(_entry_array(list(items)))
            self._link_leaves()

    def _bulk_build(self, entries: np.ndarray) -> int:
        n = len(entries)
        max_initial = int(self.max_data_node_entries * self.init_density)
        if n <= max_initial:
            return _pack_ptr(True, self._build_data_node(entries))
        # Inner node: pick a power-of-two fanout targeting well-filled children.
        fanout = 2
        while fanout < self.max_fanout and n / fanout > max_initial / 2:
            fanout *= 2
        keys = entries[:, 0]
        model = LinearModel.fit_least_squares(
            keys, (np.arange(n) * fanout / n).astype(np.int64))
        partitions = self._partition(entries, model, fanout)
        if max(len(p) for p in partitions) >= n:
            # Degenerate fit: fall back to a min-max model, which always
            # separates the first and last key.
            model = LinearModel.fit_min_max(int(keys[0]), int(keys[-1]), fanout)
            partitions = self._partition(entries, model, fanout)
        maybe_ptrs: List[Optional[int]] = []
        last_ptr: Optional[int] = None
        for partition in partitions:
            if len(partition):
                last_ptr = self._bulk_build(partition)
                maybe_ptrs.append(last_ptr)
            else:
                # Repeated pointer: an empty model range shares its left
                # neighbour's child (ALEX semantics).
                maybe_ptrs.append(last_ptr)
        # Leading empty ranges before the first child point at it.
        first_real = next(ptr for ptr in maybe_ptrs if ptr is not None)
        pointers = [ptr if ptr is not None else first_real for ptr in maybe_ptrs]
        return _pack_ptr(False, self._write_inner(fanout, model, pointers))

    @staticmethod
    def _partition(entries: np.ndarray, model: LinearModel,
                   fanout: int) -> List[np.ndarray]:
        """The sorted ``entries`` cut into the runs ``model`` routes to
        each of ``fanout`` children (predictions never decrease along
        sorted keys, so each child's keys are one run)."""
        cuts = np.searchsorted(_predict_slots(model, entries[:, 0], fanout),
                               np.arange(fanout + 1)).tolist()
        return [entries[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def _write_inner(self, fanout: int, model: LinearModel, pointers: List[int]) -> int:
        """Write an inner node; returns its byte offset in the inner file."""
        nbytes = HEADER_SIZE + fanout * 8
        offset = self._alloc_inner(nbytes)
        out = bytearray(HEADER_SIZE)
        _INNER_HEADER.pack_into(out, 0, 0, fanout, model.slope, model.intercept,
                                model.anchor)
        raw = bytes(out) + struct.pack(f"<{fanout}Q", *pointers)
        self.pager.write_bytes(self._inner_file, offset, raw)
        return offset

    def _link_leaves(self) -> None:
        """Chain data nodes left-to-right after a bulk load."""
        leaves: List[int] = []
        self._collect_leaves(self.root_ptr, leaves)
        for i, block in enumerate(leaves):
            header = self._read_data_header(block)
            header.prev = leaves[i - 1] if i > 0 else NULL_BLOCK
            header.next = leaves[i + 1] if i + 1 < len(leaves) else NULL_BLOCK
            self._write_data_header(block, header)

    def _collect_leaves(self, ptr: int, out: List[int]) -> None:
        if _ptr_is_data(ptr):
            if not out or out[-1] != _ptr_block(ptr):
                out.append(_ptr_block(ptr))
            return
        offset = _ptr_block(ptr)
        fanout, _model = self._read_inner_header(offset)
        seen: Optional[int] = None
        for slot in range(fanout):
            child = self._read_child_ptr(offset, slot)
            if child != seen:
                self._collect_leaves(child, out)
                seen = child

    # -- node access ---------------------------------------------------------------

    def _read_inner_header(self, offset: int) -> Tuple[int, LinearModel]:
        raw = self.pager.read_bytes(self._inner_file, offset, HEADER_SIZE)
        _type, fanout, slope, intercept, anchor = _INNER_HEADER.unpack_from(raw, 0)
        return fanout, LinearModel(slope, intercept, anchor)

    def _read_child_ptr(self, offset: int, slot: int) -> int:
        raw = self.pager.read_bytes(self._inner_file,
                                    offset + HEADER_SIZE + slot * 8, 8)
        return struct.unpack("<Q", raw)[0]

    def _data_header_fields(self, block: int) -> tuple:
        """A data node's header as ``_DATA_HEADER`` unpacks it."""
        return _DATA_HEADER.unpack_from(self.pager.read_bytes(
            self._data_file, block * self.pager.block_size, HEADER_SIZE))

    def _read_data_header(self, block: int) -> _DataHeader:
        return _DataHeader(*self._data_header_fields(block)[1:])

    def _write_data_header(self, block: int, header: _DataHeader) -> None:
        self.pager.write_bytes(self._data_file, block * self.pager.block_size, header.pack())

    def _read_entry(self, block: int, capacity: int, slot: int) -> KeyPayload:
        raw = self.pager.read_bytes(self._data_file,
                                    self._entries_offset(block, capacity, slot), ENTRY_SIZE)
        return unpack_entries(raw, 1)[0]

    def _read_entries(self, block: int, capacity: int, lo: int, count: int) -> List[KeyPayload]:
        if count <= 0:
            return []
        data, at = self.pager.view(self._data_file,
                                   self._entries_offset(block, capacity, lo),
                                   count * ENTRY_SIZE)
        return unpack_entries(data, count, at)

    def _read_entry_columns(self, block: int, capacity: int, lo: int,
                            count: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_read_entries` as a key and a payload column."""
        flat = np.frombuffer(self.pager.read_bytes(
            self._data_file, self._entries_offset(block, capacity, lo),
            count * ENTRY_SIZE), dtype="<u8")
        return flat[0::2], flat[1::2]

    def _write_entries(self, block: int, capacity: int, lo: int,
                       entries: Sequence[KeyPayload]) -> None:
        self.pager.write_bytes(self._data_file,
                               self._entries_offset(block, capacity, lo),
                               pack_entries(entries))

    def _bit_is_set(self, block: int, slot: int) -> bool:
        data, at = self.pager.view(self._data_file,
                                   self._bitmap_offset(block, slot >> 3), 1)
        return bool(data[at] & (1 << (slot & 7)))

    def _next_gap(self, block: int, capacity: int, slot: int) -> int:
        """The first gap (clear bitmap bit) at or after ``slot``, or
        ``capacity`` when there is none.

        Reads the bitmap one block at a time, from ``slot``'s byte to the
        end of its block, and finds the lowest clear bit of each read as
        one integer.  A probe per bit would ask the pager for the same
        blocks in the same order, each later probe in a block being free
        from its last-block copy, so the charge is the same.
        """
        bs = self.pager.block_size
        start = self._bitmap_offset(block, 0)
        end = start + self._bitmap_bytes(capacity)
        at = start + (slot >> 3)
        while at < end:
            stop = min(end, (at // bs + 1) * bs)
            word = int.from_bytes(
                self.pager.read_bytes(self._data_file, at, stop - at), "little")
            first = (at - start) << 3  # the slot of the word's bit 0
            if slot > first:
                word |= (1 << (slot - first)) - 1  # slots before ``slot``
            gap = first + (~word & (word + 1)).bit_length() - 1
            if gap < (stop - start) << 3:
                return min(gap, capacity)
            at = stop
        return capacity

    def _prev_gap(self, block: int, slot: int) -> int:
        """The last gap at or before ``slot``, or -1 when there is none:
        :meth:`_next_gap` walking left, one block of the bitmap a read."""
        bs = self.pager.block_size
        start = self._bitmap_offset(block, 0)
        at = start + (slot >> 3)
        while at >= start:
            lo = max(start, at // bs * bs)
            word = int.from_bytes(
                self.pager.read_bytes(self._data_file, lo, at + 1 - lo), "little")
            first = (lo - start) << 3
            free = ~word & ((1 << (slot - first + 1)) - 1)
            if free:
                return first + free.bit_length() - 1
            at, slot = lo - 1, first - 1
        return -1

    def _set_bit(self, block: int, slot: int) -> None:
        offset = self._bitmap_offset(block, slot >> 3)
        data, at = self.pager.view(self._data_file, offset, 1)
        self.pager.write_bytes(self._data_file, offset,
                               bytes((data[at] | 1 << (slot & 7),)))

    # -- search ----------------------------------------------------------------------
    #
    # One descent and one in-node search serve every verb.  Both decode
    # the bytes of the block in hand (``unpack_from`` at an offset, no
    # node object) as :meth:`Pager.view` hands them out, one request per
    # probe: the pager serves a probe into the block it holds free, so
    # nothing is held here and a write between two searches cannot leave
    # stale bytes.

    def _descend(self, key: int) -> Tuple[int, Optional[Tuple[int, int]]]:
        """Walk to the data node for ``key``; returns its block and the
        ``(byte offset, slot)`` of the parent pointer followed to it
        (None under a data-node root)."""
        if self.root_ptr is None:
            raise RuntimeError("index not bulk-loaded")
        view, file = self.pager.view, self._inner_file
        parent = None
        ptr = self.root_ptr
        while not ptr & _IS_DATA:
            offset = ptr & _PTR_MASK
            _type, fanout, slope, intercept, anchor = _INNER_HEADER.unpack_from(
                *view(file, offset, HEADER_SIZE))
            slot = _predict_slot(slope, intercept, anchor, key, fanout)
            parent = (offset, slot)
            ptr = _U64.unpack_from(*view(file, offset + HEADER_SIZE + slot * 8, 8))[0]
        return ptr & _PTR_MASK, parent

    def _search_node(self, block: int, key: int):
        """Slot of the rightmost entry with key <= ``key`` in data node
        ``block`` (-1: none, or an empty node) and the header fields as
        ``_DATA_HEADER`` unpacks them.

        Starts at the model's prediction and widens the bracket by
        doubling, one 16-byte entry per step (ALEX's search).
        """
        bs = self.pager.block_size
        view, file, entry = self.pager.view, self._data_file, _ENTRY.unpack_from
        header = _DATA_HEADER.unpack_from(*view(file, block * bs, HEADER_SIZE))
        _type, capacity, num_keys, slope, intercept, anchor = header[:6]
        if not num_keys:
            return -1, header
        base = self._entries_offset(block, capacity, 0)
        pos = _predict_slot(slope, intercept, anchor, key, capacity)
        if entry(*view(file, base + pos * ENTRY_SIZE, ENTRY_SIZE))[0] <= key:
            # Gallop right while entries stay <= key.
            bound = 1
            while pos + bound < capacity and entry(*view(
                    file, base + (pos + bound) * ENTRY_SIZE, ENTRY_SIZE))[0] <= key:
                bound *= 2
            lo, hi = pos + bound // 2, min(pos + bound, capacity - 1)
        else:
            bound = 1
            while pos - bound >= 0 and entry(*view(
                    file, base + (pos - bound) * ENTRY_SIZE, ENTRY_SIZE))[0] > key:
                bound *= 2
            lo, hi = max(pos - bound, 0), pos - bound // 2
        # Invariant: entry[lo] <= key (or lo == 0), entry[hi] may be > key.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if entry(*view(file, base + mid * ENTRY_SIZE, ENTRY_SIZE))[0] <= key:
                lo = mid
            else:
                hi = mid - 1
        # Slot ``lo`` is read even where the bisection has proven it: its
        # block is not always the one the last probe left in hand, and
        # that fetch is part of what a search is charged.
        if entry(*view(file, base + lo * ENTRY_SIZE, ENTRY_SIZE))[0] > key:
            return -1, header
        return lo, header

    def _find_in_node(self, block: int, key: int):
        """:meth:`_search_node`, then the entry at the slot found:
        ``(slot, header fields, (key, payload) or None)``.  An entry
        lying across two blocks is read a second time as its range."""
        slot, header = self._search_node(block, key)
        if slot < 0:
            return slot, header, None
        offset = self._entries_offset(block, header[1], slot)
        return slot, header, _ENTRY.unpack_from(
            *self.pager.view(self._data_file, offset, ENTRY_SIZE))

    def _find(self, key: int):
        """Descend to ``key``'s data node and search it: ``(block,
        parent, slot, header fields, entry)`` — what lookup, update,
        delete and the probe of an insert all start from."""
        block, parent = self._descend(key)
        return (block, parent, *self._find_in_node(block, key))

    @staticmethod
    def _live_payload(entry: Optional[KeyPayload], key: int) -> Optional[int]:
        """The payload if ``entry`` is ``key``'s and not a tombstone."""
        if entry is None or entry[0] != key or entry[1] == TOMBSTONE:
            return None
        return entry[1]

    # -- lookup ----------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            entry = self._find(key)[-1]
        return self._live_payload(entry, key)

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Batched lookups: descend once per distinct key, in key order,
        with every fetched block pinned (so a block shared across the
        sorted batch is fetched once), fetch the distinct data-node
        header blocks in one coalesced span, then run the per-key
        searches against the pinned nodes."""
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        results = {}
        with self.pager.phase("search"), self.pager.batch():
            nodes = [(key, self._descend(key)[0]) for key in sorted(set(keys))]
            self.pager.read_span(self._data_file, [block for _key, block in nodes])
            for key, block in nodes:
                results[key] = self._live_payload(
                    self._find_in_node(block, key)[-1], key)
        return [results[key] for key in keys]

    # -- insert ----------------------------------------------------------------------

    def insert(self, key: int, payload: int) -> None:
        with self.pager.phase("search"):
            block, parent, slot, fields, entry = self._find(key)
            if entry is not None and entry[0] == key:
                if entry[1] != TOMBSTONE:
                    raise KeyError(f"duplicate key {key}")
                # Re-inserting a deleted key: rewrite the payload run.
                with self.pager.phase("insert"):
                    self._overwrite_payload_run(block, fields[1], slot, key, payload)
                return
        header = _DataHeader(*fields[1:])
        # ALEX runs the SMO *before* inserting into a node at the density
        # threshold, so the insert below always finds a gap.  A sideways
        # split whose slot boundary misses the key range can leave one
        # side still at the threshold; widths shrink every round and the
        # split-down mechanism terminates the loop.
        rounds = 0
        while header.num_keys + 1 > int(header.capacity * self.full_density):
            rounds += 1
            if rounds > 200:
                raise RuntimeError("SMO failed to make room after 200 rounds")
            with self.pager.phase("smo"):
                self._smo(block, header, parent)
            with self.pager.phase("search"):
                # From the root again: the SMO moved the node, and every
                # search starts with nothing in hand.
                block, parent = self._descend(key)
                slot, fields = self._search_node(block, key)
                header = _DataHeader(*fields[1:])
        with self.pager.phase("insert"):
            self._insert_into_node(block, header, slot + 1, key, payload)
        with self.pager.phase("maintenance"):
            header.num_keys += 1
            header.num_inserts += 1
            self._write_data_header(block, header)

    def _insert_into_node(self, block: int, header: _DataHeader, position: int,
                          key: int, payload: int) -> None:
        """Place an entry at its sorted position inside the gapped array.

        ``position`` is the unclamped sorted insert index (0..capacity);
        ``position == capacity`` means the key is greater than every
        stored entry.
        """
        capacity = header.capacity
        if position >= capacity:
            if not self._bit_is_set(block, capacity - 1):
                # The tail slot is a gap (holding a copy <= key): claim it.
                position = capacity - 1
            else:
                self._shift_left_insert(block, header, capacity, key, payload)
                return
        gap = self._next_gap(block, capacity, position)
        if gap == position:
            # The target slot is a gap: claim it, then overwrite the
            # following gap run with copies of the new key (S5 part 1).
            self._write_entries(block, capacity, position, [(key, payload)])
            self._set_bit(block, position)
            run = position + 1
            while run < capacity and not self._bit_is_set(block, run):
                self._write_entries(block, capacity, run, [(key, payload)])
                run += 1
            return
        # Occupied: shift right to the nearest gap (S5 part 2).
        if gap >= capacity:
            self._shift_left_insert(block, header, position, key, payload)
            return
        entries = self._read_entries(block, capacity, position, gap - position)
        self._write_entries(block, capacity, position, [(key, payload)] + entries)
        self._set_bit(block, gap)
        header.num_shifts += gap - position

    def _shift_left_insert(self, block: int, header: _DataHeader, position: int,
                           key: int, payload: int) -> None:
        """Shift the run left of ``position`` down one slot; key lands at
        ``position - 1``.  Used when no gap exists to the right."""
        capacity = header.capacity
        gap = self._prev_gap(block, position - 1)
        if gap < 0:
            raise RuntimeError("data node has no free slot despite density check")
        entries = self._read_entries(block, capacity, gap + 1, position - gap - 1)
        self._write_entries(block, capacity, gap, entries + [(key, payload)])
        self._set_bit(block, gap)
        header.num_shifts += position - gap

    # -- update / delete ----------------------------------------------------------------

    def update(self, key: int, payload: int) -> bool:
        return self._overwrite_live(key, payload)

    def delete(self, key: int) -> bool:
        """Logical delete via a tombstone payload.

        Physically clearing the slot would leave a hole the gap-copy
        invariant cannot express; tombstones are filtered from scans and
        dropped when the node's next SMO rebuilds it.
        """
        return self._overwrite_live(key, TOMBSTONE)

    def _overwrite_live(self, key: int, payload: int) -> bool:
        """Give ``key`` a new payload if it is stored and not deleted."""
        with self.pager.phase("search"):
            block, _parent, slot, fields, entry = self._find(key)
        if self._live_payload(entry, key) is None:
            return False
        with self.pager.phase("insert"):
            self._overwrite_payload_run(block, fields[1], slot, key, payload)
        return True

    def _overwrite_payload_run(self, block: int, capacity: int, slot: int,
                               key: int, payload: int) -> None:
        """Rewrite an entry and the gap copies mirroring it.

        ``slot`` may point at any copy of the key; the whole contiguous
        run holding this key's value (the real slot plus its forward gap
        copies, and any copies the search landed on) must agree, because
        lookups may terminate on any of them.
        """
        lo = slot
        while lo > 0 and self._read_entry(block, capacity, lo - 1)[0] == key:
            lo -= 1
        hi = slot
        while hi + 1 < capacity and self._read_entry(block, capacity, hi + 1)[0] == key:
            hi += 1
        self._write_entries(block, capacity, lo,
                            [(key, payload)] * (hi - lo + 1))

    # -- structure modification ---------------------------------------------------------

    def _read_real_entries(self, block: int, header: _DataHeader) -> List[KeyPayload]:
        """All live entries of a data node, via bitmap + entry regions."""
        capacity = header.capacity
        bitmap = self.pager.read_bytes(self._data_file, self._bitmap_offset(block, 0),
                                       self._bitmap_bytes(capacity))
        keys, payloads = self._read_entry_columns(block, capacity, 0, capacity)
        real = _set_slots(bitmap, 0, 0, capacity)
        real = real[payloads[real] != TOMBSTONE]  # deletes reclaimed at SMO time
        return list(zip(keys[real].tolist(), payloads[real].tolist()))

    def _smo(self, block: int, header: _DataHeader,
             parent: Optional[Tuple[int, int]]) -> None:
        items = self._read_real_entries(block, header)
        self._data_file.free(block, self._data_extent_blocks(header.capacity))
        shrunk = len(items) < int(self.max_data_node_entries * self.init_density)
        if header.capacity < self.max_data_node_entries or shrunk:
            # Expand (or, when tombstones shrank the live set, rebuild at
            # the size the live items warrant): doubled capacity capped
            # at the maximum.
            self.num_expands += 1
            capacity = min(max(header.capacity * 2, self._initial_capacity(len(items))),
                           self.max_data_node_entries)
            new_block = self._build_data_node(_entry_array(items), capacity=capacity,
                                              prev=header.prev, next_=header.next)
            self._fix_sibling_links(new_block, header.prev, header.next)
            self._replace_child(parent, block, new_block)
            return
        self.num_splits += 1
        self._split_data_node(block, header, items, parent)

    def _split_data_node(self, block: int, header: _DataHeader,
                         items: List[KeyPayload],
                         parent: Optional[Tuple[int, int]]) -> None:
        """Split a full data node sideways at a parent slot boundary.

        The parent routes keys with its linear model, so the split point
        must be the key boundary of a parent slot — splitting by item
        count would strand keys in the wrong child.
        """
        if parent is None:
            # Root data node: grow a 2-way inner root split at the item median.
            model, split_at = self._two_way_split(items)
            left_block, right_block = self._write_split_pair(
                items, split_at, header.prev, header.next)
            root = self._write_inner(2, model, [_pack_ptr(True, left_block),
                                                _pack_ptr(True, right_block)])
            self.root_ptr = _pack_ptr(False, root)
            return
        parent_offset, slot = parent
        old_ptr = _pack_ptr(True, block)
        fanout, model = self._read_inner_header(parent_offset)
        lo, hi = self._ptr_range(parent_offset, fanout, slot, old_ptr)
        if hi - lo + 1 < 2:
            # The child occupies a single parent slot: "split down" —
            # replace the data node with a 2-way inner node whose model
            # boundary is the item median, which always halves the node
            # (ALEX's fourth SMO mechanism).
            self._split_down(block, header, items, parent_offset, slot)
            return
        mid_slot = (lo + hi + 1) // 2
        # Partition with the parent's own routing function so the split
        # is consistent with later descents, float rounding included.
        split_at = _partition_point(
            items, lambda key: model.predict_clamped(key, fanout) < mid_slot)
        left_block, right_block = self._write_split_pair(
            items, split_at, header.prev, header.next)
        ptrs = ([_pack_ptr(True, left_block)] * (mid_slot - lo)
                + [_pack_ptr(True, right_block)] * (hi - mid_slot + 1))
        raw = struct.pack(f"<{len(ptrs)}Q", *ptrs)
        self.pager.write_bytes(self._inner_file,
                               parent_offset + HEADER_SIZE + lo * 8, raw)

    def _two_way_split(self, items: List[KeyPayload]) -> Tuple[LinearModel, int]:
        """A fanout-2 model splitting ``items`` near the median.

        The model is anchored at the adjacent pair around the median
        with a +0.5 margin so float truncation cannot flip the boundary;
        the returned split index is computed with the model's own
        routing function, guaranteeing consistency with descents.  If
        the margin is still eaten by rounding (astronomically tight key
        pairs), neighbouring medians are tried outward.
        """
        n = len(items)
        order = [n // 2]
        for step in range(1, n):
            if n // 2 + step < n:
                order.append(n // 2 + step)
            if n // 2 - step > 0:
                order.append(n // 2 - step)
        for mid in order:
            a, b = items[mid - 1][0], items[mid][0]
            slope = 1.0 / (b - a)
            model = LinearModel(slope=slope, intercept=0.5, anchor=a)
            split_at = _partition_point(
                items, lambda key: model.predict_clamped(key, 2) < 1)
            if 0 < split_at < n:
                return model, split_at
        raise RuntimeError("could not find a splittable boundary in data node")

    def _write_split_pair(self, items: List[KeyPayload], split_at: int,
                          prev: int, next_: int) -> Tuple[int, int]:
        """Write two sibling data nodes holding items[:split_at] / items[split_at:]."""
        entries = _entry_array(items)
        left_block = self._build_data_node(entries[:split_at], prev=prev)
        right_block = self._build_data_node(entries[split_at:], next_=next_)
        left_header = self._read_data_header(left_block)
        left_header.next = right_block
        self._write_data_header(left_block, left_header)
        right_header = self._read_data_header(right_block)
        right_header.prev = left_block
        self._write_data_header(right_block, right_header)
        self._fix_sibling_links(left_block, prev, NULL_BLOCK)
        self._fix_sibling_links(right_block, NULL_BLOCK, next_)
        return left_block, right_block

    def _ptr_range(self, parent_offset: int, fanout: int, slot: int,
                   ptr: int) -> Tuple[int, int]:
        """Inclusive slot range of the parent pointing at ``ptr``."""
        lo = hi = slot
        while lo > 0 and self._read_child_ptr(parent_offset, lo - 1) == ptr:
            lo -= 1
        while hi + 1 < fanout and self._read_child_ptr(parent_offset, hi + 1) == ptr:
            hi += 1
        return lo, hi

    def _split_down(self, block: int, header: _DataHeader, items: List[KeyPayload],
                    parent_offset: int, slot: int) -> None:
        """Replace a one-slot data node with a 2-way inner node over two halves."""
        self.num_split_downs += 1
        model, split_at = self._two_way_split(items)
        left_block, right_block = self._write_split_pair(
            items, split_at, header.prev, header.next)
        inner = self._write_inner(2, model, [_pack_ptr(True, left_block),
                                             _pack_ptr(True, right_block)])
        raw = struct.pack("<Q", _pack_ptr(False, inner))
        self.pager.write_bytes(self._inner_file,
                               parent_offset + HEADER_SIZE + slot * 8, raw)

    def _fix_sibling_links(self, new_block: int, prev: int, next_: int) -> None:
        if prev != NULL_BLOCK:
            neighbor = self._read_data_header(prev)
            neighbor.next = new_block
            self._write_data_header(prev, neighbor)
        if next_ != NULL_BLOCK:
            neighbor = self._read_data_header(next_)
            neighbor.prev = new_block
            self._write_data_header(next_, neighbor)

    def _replace_child(self, parent: Optional[Tuple[int, int]], old_block: int,
                       new_block: int) -> None:
        """Repoint the parent's slot range for ``old_block`` at a new node."""
        old_ptr = _pack_ptr(True, old_block)
        new_ptr = _pack_ptr(True, new_block)
        if parent is None:
            self.root_ptr = new_ptr
            return
        parent_offset, slot = parent
        fanout, _model = self._read_inner_header(parent_offset)
        lo, hi = self._ptr_range(parent_offset, fanout, slot, old_ptr)
        width = hi - lo + 1
        raw = struct.pack(f"<{width}Q", *([new_ptr] * width))
        self.pager.write_bytes(self._inner_file,
                               parent_offset + HEADER_SIZE + lo * 8, raw)

    # -- scan -------------------------------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        with self.pager.phase("scan"):
            return self._scan(start_key, count)

    def _scan(self, start_key: int, count: int) -> List[KeyPayload]:
        out: List[KeyPayload] = []
        if count <= 0 or self.root_ptr is None:
            return out
        block, _parent = self._descend(start_key)
        if start_key > 0:
            # Leftmost slot with value >= start_key.  Gap slots duplicate a
            # real entry's value, so the rightmost <= start_key slot can be
            # a *copy* sitting after the real entry — lower-bound semantics
            # (search for start_key - 1) cannot skip the real slot.
            slot, fields = self._search_node(block, start_key - 1)
        else:
            slot, fields = -1, self._data_header_fields(block)
        start_slot = slot + 1
        while True:
            capacity, num_keys, next_ = fields[1], fields[2], fields[7]
            if num_keys:
                self._scan_node(block, capacity, start_slot, start_key, count, out)
            if len(out) >= count or next_ == NULL_BLOCK:
                return out[:count]
            block = next_
            fields = self._data_header_fields(block)
            start_slot = 0

    def _scan_node(self, block: int, capacity: int, start_slot: int,
                   start_key: int, count: int, out: List[KeyPayload]) -> None:
        """Collect live entries >= start_key, reading the bitmap block-wise.

        Follows the paper's Section 4.1: bitmap blocks are loaded one at a
        time and entry ranges fetched for their set bits.
        """
        bs = self.pager.block_size
        bitmap_bytes = self._bitmap_bytes(capacity)
        byte_index = start_slot >> 3
        while byte_index < bitmap_bytes and len(out) < count:
            # Read the rest of the bitmap block this byte falls into.
            block_end = min(bitmap_bytes,
                            ((self._bitmap_offset(block, byte_index) // bs) + 1) * bs
                            - self._bitmap_offset(block, 0))
            chunk = self.pager.read_bytes(self._data_file,
                                          self._bitmap_offset(block, byte_index),
                                          block_end - byte_index)
            slots = _set_slots(chunk, byte_index * 8, start_slot, capacity)
            # Fetch entries in groups capped by the remaining scan need, so
            # a sparse node never costs a whole-span read.
            group_start = 0
            while group_start < len(slots) and len(out) < count:
                group = slots[group_start : group_start + (count - len(out))]
                first = int(group[0])
                keys, payloads = self._read_entry_columns(
                    block, capacity, first, int(group[-1]) - first + 1)
                group_start += len(group)
                picked = group - first
                keys, payloads = keys[picked], payloads[picked]
                live = (keys >= start_key) & (payloads != TOMBSTONE)
                out.extend(zip(keys[live].tolist(), payloads[live].tolist()))
            byte_index = block_end

    # -- misc -------------------------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        if self.layout != 2:
            raise NotImplementedError("memory-resident inner nodes require Layout#2")
        self._inner_file.memory_resident = resident

    def verify(self) -> int:
        """Check tree reachability, gapped-array monotonicity, bitmap
        consistency, the sibling chain's global key order, that the
        inner models route each data node's first and last real key to
        it — through :meth:`_descend`, the walk every lookup takes — and
        that a point lookup of every stored key returns its payload."""
        with self._free_io():
            leaves: List[int] = []
            self._collect_leaves(self.root_ptr, leaves)
            count = 0
            previous_key = -1
            previous_block = NULL_BLOCK
            for block in leaves:
                header = self._read_data_header(block)
                assert header.prev == previous_block, "broken data-node prev link"
                capacity = header.capacity
                bitmap = self.pager.read_bytes(
                    self._data_file, self._bitmap_offset(block, 0),
                    self._bitmap_bytes(capacity))
                keys, payloads = self._read_entry_columns(block, capacity, 0, capacity)
                if header.num_keys:
                    assert (keys[1:] >= keys[:-1]).all(), "gapped array not non-decreasing"
                slots = _set_slots(bitmap, 0, 0, capacity)
                real = len(slots)
                assert real == header.num_keys, (
                    f"bitmap population {real} != header num_keys {header.num_keys}")
                if real:
                    real_keys = keys[slots]
                    first_key = int(real_keys[0])
                    assert first_key > previous_key and (
                        real_keys[1:] > real_keys[:-1]).all(), "real keys out of global order"
                    previous_key = int(real_keys[-1])
                    live = payloads[slots] != TOMBSTONE
                    count += int(np.count_nonzero(live))
                    for key in (first_key, previous_key):
                        assert self._descend(key)[0] == block, (
                            f"key {key} of data node {block} is routed elsewhere")
                    for key, payload, alive in zip(real_keys.tolist(),
                                                   payloads[slots].tolist(),
                                                   live.tolist()):
                        assert self.lookup(key) == (payload if alive else None), (
                            f"key {key} of data node {block} reads back wrong")
                previous_block = block
                # The next pointer must agree with the collected order.
            for left, right in zip(leaves, leaves[1:]):
                assert self._read_data_header(left).next == right, "broken next link"
            if leaves:
                assert self._read_data_header(leaves[-1]).next == NULL_BLOCK
            return count

    def init_params(self) -> dict:
        return {"layout": self.layout,
                "max_data_node_entries": self.max_data_node_entries,
                "init_density": self.init_density,
                "full_density": self.full_density,
                "max_fanout": self.max_fanout,
                "file_prefix": self._file_prefix}

    def to_meta(self) -> dict:
        return {"root_ptr": self.root_ptr, "inner_tail": self._inner_tail,
                "num_expands": self.num_expands, "num_splits": self.num_splits,
                "num_split_downs": self.num_split_downs}

    def restore_meta(self, meta: dict) -> None:
        self.root_ptr = meta["root_ptr"]
        self._inner_tail = meta["inner_tail"]
        self.num_expands = meta["num_expands"]
        self.num_splits = meta["num_splits"]
        self.num_split_downs = meta["num_split_downs"]

    def file_roles(self) -> dict:
        if self.layout != 2:
            return {self._inner_file.name: "leaf"}  # shared file: report as leaf
        return {self._inner_file.name: "inner", self._data_file.name: "leaf"}

    def height(self) -> int:
        if self.root_ptr is None:
            return 0
        depth = 1
        ptr = self.root_ptr
        while not _ptr_is_data(ptr):
            offset = _ptr_block(ptr)
            fanout, _model = self._read_inner_header(offset)
            ptr = self._read_child_ptr(offset, 0)
            depth += 1
        return depth
