"""On-disk B+-tree.

The baseline of the paper's entire evaluation: "one of the most efficient
and commonly used on-disk data structures in the database community".
One node occupies exactly one block.  Inner nodes and leaves live in
separate files so that the Section 6.2 hybrid case (inner nodes pinned in
main memory) is a one-line flag.

The tree is generic over the leaf record: a record is ``(key, data)``
with fixed-size ``data`` bytes.  The baseline index stores 8-byte
payloads; the FITing-tree reuses the same machinery with 28-byte segment
descriptors as records, which matches the paper's design of keeping each
segment's linear model *in the parent* (avoiding shortcoming S1).

Layouts (little endian):

* leaf block: ``u16 count | u16 codec id | u32 next | u32 prev | u32 pad``
  then ``count`` records of ``8 + data_size`` bytes, key first, sorted,
  then zeros.
* inner block: ``u16 count | u8 child_is_leaf | 13 pad bytes`` then
  ``count`` entries of ``u64 separator_key | u32 child_block``, then
  zeros.  Entry ``i``'s separator is the minimum key of child ``i``'s
  subtree when the entry was made; routing picks the rightmost separator
  <= search key and never compares entry 0's, which therefore acts as
  minus infinity (a key below every separator goes to child 0).

Nodes are never parsed (DESIGN.md Section 15).  Every operation works on
the block the pager returned, as bytes: :func:`~.serial.bisect_right`
searches the key column in place, a hit is returned as a slice of the
block, and a mutation splices the sorted record run — slice, concatenate,
new header, zero tail; a split is two slices of the run.  There is one
descent, :meth:`BPlusTree._descend`, for point, batch and write paths.
A compressed-codec leaf is transcoded to the same header-plus-records
image when it is read (memoized per frame by the pager) and re-encoded
when it is written, so it shares every routine above.  What the tree
asks of the pager — which ``read_block`` / ``write_block`` /
``read_span`` calls, in which order — and the bytes it writes are pinned
by ``tests/golden/btree_pages.json``.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..storage import BlockFile, Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload
from .serial import NULL_BLOCK, bisect_right, keys_view, unpack_entries

__all__ = ["BPlusTree", "BTreeIndex"]

_LEAF_HEADER = struct.Struct("<HHIII")  # count, codec id, next, prev, pad
_INNER_HEADER = struct.Struct("<HB13x")  # count, child_is_leaf
_INNER_ENTRY = struct.Struct("<QI")  # separator key, child block
_BLOCK_PTR = struct.Struct("<I")
_KEY = struct.Struct("<Q")
HEADER_SIZE = 16
INNER_ENTRY_SIZE = _INNER_ENTRY.size  # 12
_PREV_OFFSET = 8  # of the prev pointer in a leaf header


class BPlusTree:
    """A disk-resident B+-tree over fixed-size records.

    Args:
        pager: storage access path.
        inner_file: file holding inner nodes (one node per block).
        leaf_file: file holding leaf nodes (one node per block).
        data_size: bytes of per-record data stored after the 8-byte key.
        leaf_fill: bulk-load fill factor of leaves (default 0.8, which
            reproduces the paper's 980,393 leaves for 200M keys at 4 KiB).
        inner_fill: bulk-load fill factor of inner nodes.
    """

    def __init__(
        self,
        pager: Pager,
        inner_file: BlockFile,
        leaf_file: BlockFile,
        data_size: int = 8,
        leaf_fill: float = 0.8,
        inner_fill: float = 0.8,
        codec: str = "raw",
    ) -> None:
        if data_size <= 0:
            raise ValueError(f"data size must be positive, got {data_size}")
        if not 0.1 <= leaf_fill <= 1.0 or not 0.1 <= inner_fill <= 1.0:
            raise ValueError("fill factors must be in [0.1, 1.0]")
        self.codec = get_codec(codec)
        if not self.codec.is_raw and data_size != 8:
            # The codecs compress (u64 key, u64 payload) pairs; records
            # with wider data (FITing segment descriptors) stay raw.
            raise ValueError(
                f"codec {self.codec.name!r} requires 8-byte record data, "
                f"got {data_size}")
        self.pager = pager
        self.inner_file = inner_file
        self.leaf_file = leaf_file
        self.data_size = data_size
        self.record_size = 8 + data_size
        bs = pager.block_size
        self.leaf_capacity = (bs - HEADER_SIZE) // self.record_size
        self.inner_capacity = (bs - HEADER_SIZE) // INNER_ENTRY_SIZE
        if self.leaf_capacity < 2 or self.inner_capacity < 2:
            raise ValueError(f"block size {bs} too small for record size {self.record_size}")
        self.leaf_fill = leaf_fill
        self.inner_fill = inner_fill
        # Meta (allowed in memory per the paper's meta-block convention).
        self.root_block = NULL_BLOCK
        self.root_is_leaf = True
        self.num_levels = 1
        self.num_records = 0

    # -- node pages ------------------------------------------------------------
    #
    # A leaf travels as its *image* (header + sorted record run, the block
    # itself in the raw layout) on the way in and as its record run plus
    # sibling links on the way out.

    def _transcode(self, block: bytes) -> bytes:
        """Raw-layout image of a compressed leaf block."""
        keys, payloads = self.codec.decode_arrays(block, HEADER_SIZE)
        records = np.stack((keys, payloads), axis=1).astype("<u8", copy=False)
        return block[:HEADER_SIZE] + records.tobytes()

    def _image(self, block_no: int, block: bytes) -> bytes:
        if self.codec.is_raw:
            return block
        return self.pager.cached_meta(self.leaf_file, block_no, block,
                                      self._transcode)

    def _read_leaf(self, block_no: int) -> bytes:
        return self._image(block_no,
                           self.pager.read_block(self.leaf_file, block_no))

    def _read_leaves(self, block_nos: Iterable[int]) -> Dict[int, bytes]:
        """Images of a set of leaves, fetched in one coalesced span."""
        span = self.pager.read_span(self.leaf_file, block_nos)
        if self.codec.is_raw:
            return span
        return {no: self._image(no, block) for no, block in span.items()}

    def _entries(self, run: bytes) -> List[Tuple[int, int]]:
        """A 16-byte record run as (key, u64 payload) pairs for the codec."""
        return unpack_entries(run, len(run) // self.record_size)

    def _compressed_cuts(self, entries: List[Tuple[int, int]]) -> List[int]:
        """Greedy byte-budget packing of ``entries`` into compressed
        pages: the entry index each page starts at, and the total.
        ``leaf_fill`` scales the budget the way it scales the raw
        layout's entry count, leaving headroom for later inserts."""
        budget = max(64, int(
            (self.pager.block_size - HEADER_SIZE) * self.leaf_fill))
        cuts = [0]
        while cuts[-1] < len(entries):
            cuts.append(cuts[-1]
                        + self.codec.pack_greedy(entries, cuts[-1], budget))
        return cuts

    def _fits(self, run: bytes) -> bool:
        """Whether a record run fits one leaf block: by entry count in
        the raw layout, by encoded size (data-dependent) under a codec."""
        count = len(run) // self.record_size
        if self.codec.is_raw:
            return count <= self.leaf_capacity
        if count > self.codec.max_entries(self.pager.block_size):
            return False
        return not count or (self.codec.encoded_size(self._entries(run))
                             <= self.pager.block_size - HEADER_SIZE)

    def _leaf_page(self, run: bytes, next_: int, prev: int) -> bytes:
        header = _LEAF_HEADER.pack(len(run) // self.record_size,
                                   self.codec.codec_id, next_, prev, 0)
        if not self.codec.is_raw:
            run = self.codec.encode(self._entries(run))
        tail = self.pager.block_size - HEADER_SIZE - len(run)
        if tail < 0:
            raise ValueError("leaf overflows its block")
        return b"".join((header, run, bytes(tail)))

    def _write_leaf(self, block: int, run: bytes, next_: int, prev: int) -> None:
        self.pager.write_block(self.leaf_file, block,
                               self._leaf_page(run, next_, prev))

    def _write_inner(self, block: int, entries: bytes, child_is_leaf: int) -> None:
        header = _INNER_HEADER.pack(len(entries) // INNER_ENTRY_SIZE,
                                    child_is_leaf)
        tail = self.pager.block_size - HEADER_SIZE - len(entries)
        self.pager.write_block(self.inner_file, block,
                               b"".join((header, entries, bytes(tail))))

    # -- bulk load ----------------------------------------------------------------

    def bulk_load(self, records: Sequence[Tuple[int, bytes]]) -> None:
        """Build the tree bottom-up from key-sorted records."""
        if self.root_block != NULL_BLOCK:
            raise RuntimeError("tree already loaded")
        self.num_records = len(records)
        # cuts[i] : cuts[i + 1] are the records of leaf i.
        if not records:
            cuts = [0, 0]
        elif self.codec.is_raw:
            per_leaf = max(1, int(self.leaf_capacity * self.leaf_fill))
            cuts = list(range(0, len(records), per_leaf)) + [len(records)]
        else:
            cuts = self._compressed_cuts(
                [(key, _KEY.unpack(data)[0]) for key, data in records])
        num_leaves = len(cuts) - 1
        first = self.leaf_file.allocate(num_leaves)
        level: List[Tuple[int, int]] = []  # (min key, child block)
        pack_key = _KEY.pack
        for i in range(num_leaves):
            chunk = records[cuts[i] : cuts[i + 1]]
            next_ = first + i + 1 if i + 1 < num_leaves else NULL_BLOCK
            prev = first + i - 1 if i > 0 else NULL_BLOCK
            run = b"".join([pack_key(key) + data for key, data in chunk])
            self._write_leaf(first + i, run, next_, prev)
            level.append((chunk[0][0] if chunk else 0, first + i))
        self.num_levels = 1
        child_is_leaf = True
        while len(level) > 1:
            per_inner = max(2, int(self.inner_capacity * self.inner_fill))
            num_nodes = (len(level) + per_inner - 1) // per_inner
            start = self.inner_file.allocate(num_nodes)
            parent_level: List[Tuple[int, int]] = []
            for i in range(num_nodes):
                chunk = level[i * per_inner : (i + 1) * per_inner]
                entries = b"".join([_INNER_ENTRY.pack(*entry) for entry in chunk])
                self._write_inner(start + i, entries, child_is_leaf)
                parent_level.append((chunk[0][0], start + i))
            level = parent_level
            child_is_leaf = False
            self.num_levels += 1
        self.root_block = level[0][1]
        self.root_is_leaf = self.num_levels == 1

    # -- search ---------------------------------------------------------------------

    def _descend(self, key: int, path: Optional[List[int]] = None) -> int:
        """Walk to the leaf for ``key``; returns its block.

        With ``path``, the inner blocks crossed are appended to it from
        the root down — transient state used by splits, never persisted.
        """
        block = self.root_block
        if block == NULL_BLOCK:
            raise RuntimeError("tree not loaded; call bulk_load first")
        if self.root_is_leaf:
            return block
        read_block = self.pager.read_block
        file = self.inner_file
        while True:
            page = read_block(file, block)
            count, child_is_leaf = _INNER_HEADER.unpack_from(page)
            slot = bisect_right(page, key, count, HEADER_SIZE,
                                INNER_ENTRY_SIZE, 1) - 1
            if path is not None:
                path.append(block)
            block = _BLOCK_PTR.unpack_from(
                page, HEADER_SIZE + slot * INNER_ENTRY_SIZE + 8)[0]
            if child_is_leaf:
                return block

    def _get(self, image: bytes, key: int) -> Optional[bytes]:
        """The data of ``key``'s record in a leaf image, or None."""
        rs = self.record_size
        end = HEADER_SIZE + rs * bisect_right(
            image, key, _LEAF_HEADER.unpack_from(image)[0], HEADER_SIZE, rs)
        if end > HEADER_SIZE and _KEY.unpack_from(image, end - rs)[0] == key:
            return image[end - self.data_size : end]
        return None

    def lookup(self, key: int) -> Optional[bytes]:
        """Exact-match search; returns the record data or None."""
        return self._get(self._read_leaf(self._descend(key)), key)

    def lookup_many_records(self, keys: Iterable[int]) -> Dict[int, Optional[bytes]]:
        """Batched exact-match search; returns ``{key: data or None}``.

        Runs inside a :meth:`Pager.batch` scope: phase 1 descends for
        every distinct key in ascending order (each inner block crossed
        is fetched once and stays pinned, so the batch pays one descent's
        worth of inner I/O per distinct root-to-leaf path); phase 2
        fetches the distinct leaf blocks in one coalesced
        :meth:`Pager.read_span`; phase 3 searches each key's leaf in
        place.
        """
        unique = sorted(set(keys))
        out: Dict[int, Optional[bytes]] = {}
        if not unique:
            return out
        with self.pager.batch():
            leaf_of = {key: self._descend(key) for key in unique}
            leaves = self._read_leaves(leaf_of.values())
            for key in unique:
                out[key] = self._get(leaves[leaf_of[key]], key)
        return out

    def _floor(self, leaves: Dict[int, bytes], block: int,
               key: int) -> Optional[Tuple[int, bytes]]:
        """Rightmost record with key <= ``key``, searching from leaf
        ``block``.  ``leaves`` holds the images already fetched and
        gains the ones fetched here."""
        def fetch(block_no: int) -> bytes:
            image = leaves.get(block_no)
            if image is None:
                image = leaves[block_no] = self._read_leaf(block_no)
            return image

        rs = self.record_size
        image = fetch(block)
        count, _codec, _next, prev, _pad = _LEAF_HEADER.unpack_from(image)
        upto = bisect_right(image, key, count, HEADER_SIZE, rs)
        if not upto:
            # ``key`` is before this leaf's first record: the answer is
            # the last record of the previous leaf (fetched on demand —
            # an edge of the key space), unless either leaf is empty.
            if not count or prev == NULL_BLOCK:
                return None
            image = fetch(prev)
            upto = _LEAF_HEADER.unpack_from(image)[0]
            if not upto:
                return None
        end = HEADER_SIZE + upto * rs
        return (_KEY.unpack_from(image, end - rs)[0],
                image[end - self.data_size : end])

    def floor_record(self, key: int) -> Optional[Tuple[int, bytes]]:
        """Rightmost record with key <= ``key`` (FITing segment routing)."""
        return self._floor({}, self._descend(key), key)

    def floor_records(self, keys: Iterable[int]) -> Dict[int, Optional[Tuple[int, bytes]]]:
        """Batched :meth:`floor_record`; returns ``{key: (key, data) or None}``.
        Same three phases as :meth:`lookup_many_records`."""
        unique = sorted(set(keys))
        out: Dict[int, Optional[Tuple[int, bytes]]] = {}
        if not unique:
            return out
        with self.pager.batch():
            leaf_of = {key: self._descend(key) for key in unique}
            leaves = self._read_leaves(leaf_of.values())
            for key in unique:
                out[key] = self._floor(leaves, leaf_of[key], key)
        return out

    def iterate_from(self, key: int) -> Iterator[Tuple[int, bytes]]:
        """Yield records with key >= ``key`` in key order, following leaf links."""
        rs = self.record_size
        key_at = _KEY.unpack_from
        image = self._read_leaf(self._descend(key))
        count, _codec, next_, _prev, _pad = _LEAF_HEADER.unpack_from(image)
        # Keys are integers: the records below ``key`` are those <= key - 1.
        start = HEADER_SIZE + bisect_right(image, key - 1, count,
                                           HEADER_SIZE, rs) * rs
        while True:
            for off in range(start, HEADER_SIZE + count * rs, rs):
                yield key_at(image, off)[0], image[off + 8 : off + rs]
            if next_ == NULL_BLOCK:
                return
            image = self._read_leaf(next_)
            count, _codec, next_, _prev, _pad = _LEAF_HEADER.unpack_from(image)
            start = HEADER_SIZE

    # -- updates ---------------------------------------------------------------------

    def _check_data(self, data: bytes) -> None:
        # Spliced in as is: a wrong size would shift the rest of the page.
        if len(data) != self.data_size:
            raise ValueError(
                f"record data must be {self.data_size} bytes, got {len(data)}")

    def _locate(self, key: int):
        """Descend for a write: (inner path, leaf block, next, prev,
        record run, byte offset in the run just past the records with
        key <= ``key``, whether the last of those is ``key``)."""
        path: List[int] = []
        block = self._descend(key, path)
        image = self._read_leaf(block)
        rs = self.record_size
        count, _codec, next_, prev, _pad = _LEAF_HEADER.unpack_from(image)
        end = rs * bisect_right(image, key, count, HEADER_SIZE, rs)
        hit = end > 0 and _KEY.unpack_from(image, HEADER_SIZE + end - rs)[0] == key
        run = image[HEADER_SIZE : HEADER_SIZE + count * rs]
        return path, block, next_, prev, run, end, hit

    def update(self, key: int, data: bytes) -> bool:
        """Overwrite the data of an existing record; False if absent.

        Under a compressed codec the rewritten payload can widen the
        page (a far-from-key payload inflates the FoR residual column),
        so an overflow splits the leaf like an insert would.
        """
        self._check_data(data)
        path, block, next_, prev, run, end, hit = self._locate(key)
        if not hit:
            return False
        self._store_leaf(block, run[: end - self.data_size] + data + run[end:],
                         next_, prev, path)
        return True

    def delete(self, key: int) -> bool:
        """Remove a record without rebalancing (lazy deletion).

        Even a delete can overflow a compressed leaf: dropping a middle
        key merges two deltas into one that may need a wider bit width
        for the whole column, so the fit check runs here too.
        """
        path, block, next_, prev, run, end, hit = self._locate(key)
        if not hit:
            return False
        self.num_records -= 1
        self._store_leaf(block, run[: end - self.record_size] + run[end:],
                         next_, prev, path)
        return True

    def insert(self, key: int, data: bytes) -> None:
        """Insert a record, splitting nodes bottom-up as needed."""
        self._check_data(data)
        path, block, next_, prev, run, end, hit = self._locate(key)
        if hit:
            raise KeyError(f"duplicate key {key}")
        self.num_records += 1
        self._store_leaf(block, b"".join((run[:end], _KEY.pack(key), data, run[end:])),
                         next_, prev, path)

    def _store_leaf(self, block: int, run: bytes, next_: int, prev: int,
                    path: List[int]) -> None:
        """Write a mutated leaf back, splitting it when it no longer fits."""
        if self._fits(run):
            self._write_leaf(block, run, next_, prev)
        elif self.codec.is_raw:
            cut = len(run) // self.record_size // 2 * self.record_size
            new_block = self.leaf_file.allocate(1)
            self._write_leaf(new_block, run[cut:], next_, block)
            self._write_leaf(block, run[:cut], new_block, prev)
            self._relink(next_, new_block)
            self._insert_separator(path, _KEY.unpack_from(run, cut)[0], new_block,
                                   child_is_leaf=True)
        else:
            self._split_leaf_compressed(block, run, next_, prev)

    def _relink(self, block: int, prev: int) -> None:
        """Point leaf ``block``'s prev link at a new left neighbour: a
        four-byte patch of the stored block, whatever its codec."""
        if block == NULL_BLOCK:
            return
        page = self.pager.read_block(self.leaf_file, block)
        self.pager.write_block(
            self.leaf_file, block,
            page[:_PREV_OFFSET] + _BLOCK_PTR.pack(prev) + page[_PREV_OFFSET + 4 :])

    def _split_leaf_compressed(self, block: int, run: bytes, next_: int,
                               prev: int) -> None:
        """Multi-way split of an overflowing compressed leaf.

        A compressed page's size is data-dependent: one mutated payload
        can widen the whole FoR payload column, so a midpoint split is
        not guaranteed to produce two fitting halves.  Instead the leaf's
        records are greedily repacked into as many pieces as the byte
        budget requires; each new piece's separator is inserted with a
        *fresh* descent so earlier separator inserts (which may have
        split the parent) cannot stale the path.
        """
        rs = self.record_size
        cuts = self._compressed_cuts(self._entries(run))
        blocks = [block] + [self.leaf_file.allocate(1) for _ in cuts[2:]]
        chain = [prev] + blocks + [next_]
        for i, piece in enumerate(blocks):
            self._write_leaf(piece, run[cuts[i] * rs : cuts[i + 1] * rs],
                             chain[i + 2], chain[i])
        self._relink(next_, blocks[-1])
        for cut, piece in zip(cuts[1:], blocks[1:]):
            sep_key = _KEY.unpack_from(run, cut * rs)[0]
            path: List[int] = []
            self._descend(sep_key, path)
            self._insert_separator(path, sep_key, piece, child_is_leaf=True)

    def _insert_separator(self, path: List[int], sep_key: int,
                          new_child: int, child_is_leaf: bool) -> None:
        entry = _INNER_ENTRY.pack(sep_key, new_child)
        if not path:
            # The split node was the root: grow a new root.  The old
            # root's separator is never compared, so 0 will do.
            old_root = self.root_block
            self.root_block = self.inner_file.allocate(1)
            self._write_inner(self.root_block,
                              _INNER_ENTRY.pack(0, old_root) + entry, child_is_leaf)
            self.root_is_leaf = False
            self.num_levels += 1
            return
        parent = path[-1]
        page = self.pager.read_block(self.inner_file, parent)
        count, above_leaves = _INNER_HEADER.unpack_from(page)
        # After every separator <= sep_key, and never before entry 0: the
        # split child may have been reached by clamping, with a
        # separator above the keys it holds.
        at = HEADER_SIZE + INNER_ENTRY_SIZE * bisect_right(
            page, sep_key, count, HEADER_SIZE, INNER_ENTRY_SIZE, 1)
        entries = b"".join((page[HEADER_SIZE:at], entry,
                            page[at : HEADER_SIZE + count * INNER_ENTRY_SIZE]))
        if count < self.inner_capacity:
            self._write_inner(parent, entries, above_leaves)
            return
        cut = (count + 1) // 2 * INNER_ENTRY_SIZE
        new_block = self.inner_file.allocate(1)
        self._write_inner(new_block, entries[cut:], above_leaves)
        self._write_inner(parent, entries[:cut], above_leaves)
        self._insert_separator(path[:-1], _KEY.unpack_from(entries, cut)[0],
                               new_block, child_is_leaf=False)


class BTreeIndex(DiskIndex):
    """The paper's baseline: a disk-resident B+-tree storing uint64 payloads."""

    name = "btree"

    def __init__(self, pager: Pager, leaf_fill: float = 0.8, inner_fill: float = 0.8,
                 file_prefix: str = "btree", codec: str = "raw") -> None:
        super().__init__(pager)
        self._file_prefix = file_prefix
        device = pager.device
        self._inner_file = device.get_or_create_file(f"{file_prefix}.inner")
        self._leaf_file = device.get_or_create_file(f"{file_prefix}.leaf")
        self.tree = BPlusTree(pager, self._inner_file, self._leaf_file,
                              data_size=8, leaf_fill=leaf_fill, inner_fill=inner_fill,
                              codec=codec)

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        with self.pager.phase("bulkload"):
            self.tree.bulk_load([(key, _KEY.pack(payload)) for key, payload in items])

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            data = self.tree.lookup(key)
        return _KEY.unpack(data)[0] if data is not None else None

    def lookup_many(self, keys) -> List[Optional[int]]:
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        with self.pager.phase("search"):
            found = self.tree.lookup_many_records(keys)
        return [_KEY.unpack(found[key])[0] if found[key] is not None
                else None for key in keys]

    def insert(self, key: int, payload: int) -> None:
        with self.pager.phase("insert"):
            self.tree.insert(key, _KEY.pack(payload))

    def update(self, key: int, payload: int) -> bool:
        with self.pager.phase("insert"):
            return self.tree.update(key, _KEY.pack(payload))

    def delete(self, key: int) -> bool:
        """Physical deletion: the B+-tree's dense leaves shift in-block."""
        with self.pager.phase("insert"):
            return self.tree.delete(key)

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        out: List[KeyPayload] = []
        if count <= 0:
            return out
        with self.pager.phase("scan"):
            for key, data in self.tree.iterate_from(start_key):
                out.append((key, _KEY.unpack(data)[0]))
                if len(out) >= count:
                    break
        return out

    def scan_range(self, low: int, high: int, batch: int = 256) -> List[KeyPayload]:
        """Range scan with a single descent: iterate the leaf sibling
        chain from ``low`` and stop past ``high``, instead of re-routing
        from the root for every ``batch``-sized chunk."""
        out: List[KeyPayload] = []
        if high < low:
            return out
        with self.pager.phase("scan"):
            for key, data in self.tree.iterate_from(low):
                if key > high:
                    break
                out.append((key, _KEY.unpack(data)[0]))
        return out

    def set_inner_memory_resident(self, resident: bool) -> None:
        self._inner_file.memory_resident = resident

    def verify(self) -> int:
        """Check separator ordering, leaf-chain order and record counts."""
        with self._free_io():
            tree = self.tree
            if tree.root_block == NULL_BLOCK:
                return 0
            # Walk to the leftmost leaf, then follow the sibling chain.
            block = tree.root_block
            depth = 1
            at_leaves = tree.root_is_leaf
            while not at_leaves:
                page = tree.pager.read_block(tree.inner_file, block)
                count, at_leaves = _INNER_HEADER.unpack_from(page)
                assert count >= 1, "empty inner node"
                # Entry 0's separator is never compared (module docstring).
                separators = keys_view(page, count, HEADER_SIZE,
                                       INNER_ENTRY_SIZE)[1:].tolist()
                assert separators == sorted(separators), "inner separators unsorted"
                depth += 1
                block = _BLOCK_PTR.unpack_from(page, HEADER_SIZE + 8)[0]
            assert depth == tree.num_levels, (
                f"height mismatch: walked {depth}, meta says {tree.num_levels}")
            rs = tree.record_size
            total = 0
            previous_key = -1
            previous_block = NULL_BLOCK
            while block != NULL_BLOCK:
                image = tree._read_leaf(block)
                count, _codec, next_, prev, _pad = _LEAF_HEADER.unpack_from(image)
                assert prev == previous_block, "broken prev link"
                assert tree._fits(image[HEADER_SIZE : HEADER_SIZE + count * rs]), (
                    "leaf overflows its block")
                for key in keys_view(image, count, HEADER_SIZE, rs).tolist():
                    assert key > previous_key, "leaf keys out of order"
                    previous_key = key
                total += count
                previous_block = block
                block = next_
            assert total == tree.num_records, (
                f"record count mismatch: walked {total}, meta {tree.num_records}")
            return total

    def init_params(self) -> dict:
        params = {"leaf_fill": self.tree.leaf_fill, "inner_fill": self.tree.inner_fill,
                  "file_prefix": self._file_prefix}
        if not self.tree.codec.is_raw:
            params["codec"] = self.tree.codec.name
        return params

    def to_meta(self) -> dict:
        return {"root_block": self.tree.root_block,
                "root_is_leaf": self.tree.root_is_leaf,
                "num_levels": self.tree.num_levels,
                "num_records": self.tree.num_records}

    def restore_meta(self, meta: dict) -> None:
        self.tree.root_block = meta["root_block"]
        self.tree.root_is_leaf = meta["root_is_leaf"]
        self.tree.num_levels = meta["num_levels"]
        self.tree.num_records = meta["num_records"]

    def file_roles(self) -> dict:
        return {self._inner_file.name: "inner", self._leaf_file.name: "leaf"}

    def height(self) -> int:
        return self.tree.num_levels

    @property
    def num_leaf_blocks(self) -> int:
        return self._leaf_file.num_blocks
