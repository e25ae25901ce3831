"""PLID — a Principled Learned Index on Disk.

The paper ends with four design principles (P1-P4) and a co-design
recommendation (P5) for *future* on-disk learned indexes; PLID is this
repository's instantiation of them, the "what should have been built"
index the evaluation argues for:

* **P1 — reduce the tree height.**  Two on-disk levels: a flat learned
  directory (a PLA over leaf boundary keys) and the leaves.  The root
  model lives in the meta block.  A lookup costs 1 directory block + 1
  leaf block (+1 while the split buffer is non-empty) — at or below the
  B+-tree's height for any dataset size.
* **P2 — light-weight SMOs.**  A leaf split appends one directory entry
  to a small on-disk *split buffer* (one block write); the directory is
  re-segmented lazily, only when the buffer fills, and it is tiny —
  ``N / 204`` entries — so the rebuild touches a handful of blocks.  No
  statistics are maintained, so nothing is written on reads and no
  header update follows an insert.
* **P3 — cheap next-item fetch.**  Leaves are dense, sorted,
  sibling-linked B+-tree-style blocks: scans read ``z/B`` contiguous
  blocks, and deletes can be *physical* (an in-block shift) because no
  model predicts positions inside a leaf.
* **P4 — storage layout.**  Every model lives in the *parent*: the root
  model in the meta block, the per-segment models in the directory
  entries.  No node ever spans a model and its slots, so the paper's S1
  overhead cannot occur.
* **P5 — co-design with the buffer.**  The whole inner part (directory +
  split buffer) is a few blocks; pinning it in memory
  (``set_inner_memory_resident``) or caching it in a small LRU pool
  drops lookups to a single leaf fetch.

Directory layout (``<prefix>.dir`` file)::

    block 0..k   segment entry array: (first_key, slope, intercept,
                 position) — the PLA over the *leaf directory* (the
                 sorted array of (leaf max key, leaf block) pairs)
    leaf directory array: (max_key u64, leaf_block u64) entries
    split buffer: one region of sorted (max_key, leaf_block) entries

The leaf directory array and its PLA are rebuilt together; between
rebuilds, new leaves produced by splits live in the split buffer.

The leaves are a :class:`~.leaffile.LeafFile` whose splits put the new
leaf to the *left*: the right half stays in the old block, so the old
directory entry (old max key -> old block) stays correct and only the
new leaf's max key is registered, in the split buffer.  The segment
window, the directory window and the split buffer are bisected as the
bytes the pager returned (DESIGN.md Section 15); :meth:`PlidIndex._route`
is the one routing routine.  Pager calls and written bytes are pinned by
``tests/golden/learned_pages.json``.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from ..models import LinearModel, optimal_segments
from ..storage import Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload
from .leaffile import LeafFile
from .serial import (NULL_BLOCK, bisect_left, bisect_right, key_at,
                     pack_entries, pack_entry, splice, unpack_entries)

__all__ = ["PlidIndex"]

_SEGMENT = struct.Struct("<Qddq")  # first_key, slope, intercept, position
SEGMENT_SIZE = _SEGMENT.size  # 32
# leaf max key, leaf block: the layout of a key-payload entry, so the
# sorted-run helpers for entries serve the directory as well
_DIR_ENTRY = struct.Struct("<QQ")
DIR_ENTRY_SIZE = _DIR_ENTRY.size  # 16


class PlidIndex(DiskIndex):
    """The design-principles index: learned directory over dense leaves.

    Args:
        pager: storage access path.
        error_bound: PLA error bound over the leaf directory.  The
            directory is ~200x smaller than the data, so even eps=8
            keeps it at a handful of segments.
        leaf_fill: bulk-load fill factor of the leaves.
        split_buffer_capacity: directory entries buffered between
            directory rebuilds (one block holds 256).
    """

    name = "plid"

    def __init__(self, pager: Pager, error_bound: int = 8, leaf_fill: float = 0.8,
                 split_buffer_capacity: int = 128, file_prefix: str = "plid",
                 codec: str = "raw") -> None:
        super().__init__(pager)
        get_codec(codec)  # the name is validated; PLID keeps the raw layout
        if error_bound < 1:
            raise ValueError(f"error bound must be >= 1, got {error_bound}")
        if split_buffer_capacity < 1:
            raise ValueError("split buffer capacity must be >= 1")
        self._file_prefix = file_prefix
        self.error_bound = error_bound
        self.leaf_fill = leaf_fill
        self.split_buffer_capacity = split_buffer_capacity
        device = pager.device
        self._dir_file = device.get_or_create_file(f"{file_prefix}.dir")
        self._leaf_file = device.get_or_create_file(f"{file_prefix}.leaf")
        self.leaves = LeafFile(pager, self._leaf_file, fill=leaf_fill,
                               new_leaf_side="left")
        # Meta-block state (the paper's in-memory meta block): the root
        # model over the segment array plus the region table.
        self.root_model: Optional[LinearModel] = None
        self.num_segments = 0
        self.num_dir_entries = 0
        self.split_buffer_count = 0
        self._segments_offset = 0
        self._dir_offset = 0
        self._buffer_offset = 0
        self.first_leaf_block = NULL_BLOCK
        self.last_leaf_block = NULL_BLOCK
        self.num_records = 0
        self.num_leaves = 0
        self.num_rebuilds = 0
        self.num_splits = 0

    # -- directory construction --------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self.num_leaves:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            leaves = self.leaves.bulk_write(pack_entries(items))
            self.first_leaf_block = leaves[0][2]
            # Splits keep the right half in the old block, so the chain's
            # last block never changes.
            self.last_leaf_block = leaves[-1][2]
            self.num_records = len(items)
            self.num_leaves = len(leaves)
            self._write_directory([(last_key, block)
                                   for _first_key, last_key, block in leaves])

    def _write_directory(self, directory: List[KeyPayload]) -> None:
        """(Re)write the segment array + leaf directory + empty split buffer.

        The directory is append-allocated in the dir file; the previous
        extent (if any) is freed — it is a few blocks, so the rebuild is
        the cheap SMO P2 asks for.
        """
        bs = self.pager.block_size
        keys = [key for key, _ in directory]
        segments = optimal_segments(keys, self.error_bound) if keys else []
        seg_raw = b"".join(
            _SEGMENT.pack(seg.first_key, seg.model.slope, seg.model.intercept,
                          seg.first_pos)
            for seg in segments
        )
        dir_raw = b"".join(_DIR_ENTRY.pack(key, block) for key, block in directory)
        buffer_bytes = self.split_buffer_capacity * DIR_ENTRY_SIZE
        total = len(seg_raw) + len(dir_raw) + buffer_bytes
        nblocks = max(1, (total + bs - 1) // bs)
        start = self._dir_file.allocate(nblocks)
        self.pager.write_bytes(self._dir_file, start * bs,
                               seg_raw + dir_raw + bytes(buffer_bytes))
        self._segments_offset = start * bs
        self._dir_offset = start * bs + len(seg_raw)
        self._buffer_offset = self._dir_offset + len(dir_raw)
        self.num_segments = len(segments)
        self.num_dir_entries = len(directory)
        self.split_buffer_count = 0
        # Root model over segment first keys lives in the meta block (P4).
        if segments:
            seg_keys = [seg.first_key for seg in segments]
            root_segments = optimal_segments(seg_keys, self.error_bound)
            # The directory is small: one root segment always suffices in
            # practice; if not, fall back to a min-max spread.
            if len(root_segments) == 1:
                self.root_model = root_segments[0].model
            else:
                self.root_model = LinearModel.fit_min_max(
                    seg_keys[0], max(seg_keys[-1], seg_keys[0] + 1), len(seg_keys))
        else:
            self.root_model = None

    # -- directory search ---------------------------------------------------------

    def _dir_window(self, lo: int, hi: int) -> bytes:
        """Leaf-directory entries ``lo..hi`` inclusive, as stored."""
        return self.pager.read_bytes(self._dir_file,
                                     self._dir_offset + lo * DIR_ENTRY_SIZE,
                                     (hi - lo + 1) * DIR_ENTRY_SIZE)

    def _split_buffer(self) -> bytes:
        """The sorted split buffer, as stored."""
        return self.pager.read_bytes(self._dir_file, self._buffer_offset,
                                     self.split_buffer_count * DIR_ENTRY_SIZE)

    def _directory(self) -> List[Tuple[int, int]]:
        """Every (leaf max key, leaf block): directory and split buffer
        merged, for a rebuild or a verify."""
        return sorted(
            unpack_entries(self._dir_window(0, self.num_dir_entries - 1),
                           self.num_dir_entries)
            + unpack_entries(self._split_buffer(), self.split_buffer_count))

    def _route(self, key: int) -> int:
        """Leaf block whose max key is the ceiling of ``key``.

        One segment-array probe (root model is in memory), one directory
        window read, plus the split buffer while it is non-empty.
        """
        if self.root_model is None or self.num_dir_entries == 0:
            return self.first_leaf_block
        # Locate the covering segment via the in-memory root model.
        seg_index = self.root_model.predict_clamped(key, self.num_segments)
        lo = max(0, seg_index - self.error_bound - 1)
        hi = min(self.num_segments - 1, seg_index + self.error_bound + 1)
        span = hi - lo + 1
        raw = self.pager.read_bytes(self._dir_file,
                                    self._segments_offset + lo * SEGMENT_SIZE,
                                    span * SEGMENT_SIZE)
        slot = max(bisect_right(raw, key, span, 0, SEGMENT_SIZE) - 1, 0)
        first_key, slope, intercept, _position = _SEGMENT.unpack_from(
            raw, slot * SEGMENT_SIZE)
        # Predict into the leaf directory, read the +-eps window.
        pred = int(slope * float(int(key) - first_key) + intercept)
        dlo = max(0, min(pred - self.error_bound - 1, self.num_dir_entries - 1))
        dhi = max(dlo, min(pred + self.error_bound + 1, self.num_dir_entries - 1))
        raw = self._dir_window(dlo, dhi)
        # Walk to the ceiling entry; windows are exact by the PLA bound,
        # but the ceiling may sit one window to the right for keys larger
        # than every max key in the window.
        while key_at(raw, dhi - dlo) < key and dhi + 1 < self.num_dir_entries:
            dlo, dhi = dhi + 1, min(dhi + 1 + 2 * self.error_bound,
                                    self.num_dir_entries - 1)
            raw = self._dir_window(dlo, dhi)
        span = dhi - dlo + 1
        index = bisect_left(raw, key, span)
        best: Optional[Tuple[int, int]] = (
            _DIR_ENTRY.unpack_from(raw, index * DIR_ENTRY_SIZE)
            if index < span else None)
        # The split buffer may hold a tighter (newer) boundary: it is
        # sorted, so its candidate is its own ceiling entry.
        buffered = self.split_buffer_count
        if buffered:
            raw = self._split_buffer()
            slot = bisect_left(raw, key, buffered)
            if slot < buffered and (
                    best is None or key_at(raw, slot) < best[0]):
                best = _DIR_ENTRY.unpack_from(raw, slot * DIR_ENTRY_SIZE)
        if best is None:
            # Key beyond every max key: the rightmost leaf absorbs it (so
            # its recorded max key understates its contents; the
            # chain-stable meta pointer is the reliable route).
            return self.last_leaf_block
        return best[1]

    # -- operations ------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            image = self.leaves.read(self._route(key))
        return self.leaves.payload(image, key)

    def insert(self, key: int, payload: int) -> None:
        with self.pager.phase("search"):
            slot = self.leaves.locate(self._route(key), key)
        if slot.hit:
            raise KeyError(f"duplicate key {key}")
        self.num_records += 1
        # A full leaf splits: P2's light SMO, one new leaf and one
        # split-buffer append.
        splits = len(slot.run) // self.leaves.record_size >= self.leaves.capacity
        with self.pager.phase("smo" if splits else "insert"):
            for max_key, new_block in self.leaves.store(
                    slot, pack_entry(key, payload)):
                self.num_splits += 1
                self.num_leaves += 1
                if slot.prev == NULL_BLOCK:
                    self.first_leaf_block = new_block
                self._append_split_entry(max_key, new_block)

    def _append_split_entry(self, max_key: int, block: int) -> None:
        count = self.split_buffer_count
        raw = self._split_buffer()
        slot = bisect_left(raw, max_key, count)
        self.pager.write_bytes(
            self._dir_file, self._buffer_offset,
            raw[: slot * DIR_ENTRY_SIZE]
            + splice(raw, slot, _DIR_ENTRY.pack(max_key, block), count))
        self.split_buffer_count = count + 1
        if self.split_buffer_count >= self.split_buffer_capacity:
            self._rebuild_directory()

    def _rebuild_directory(self) -> None:
        """Merge the split buffer into the directory and re-run the PLA.

        The directory is ~N/204 entries: the rebuild reads and writes a
        handful of blocks, the whole point of P2.
        """
        self.num_rebuilds += 1
        merged = self._directory()
        old_start = self._segments_offset // self.pager.block_size
        old_end = (self._buffer_offset
                   + self.split_buffer_capacity * DIR_ENTRY_SIZE
                   + self.pager.block_size - 1) // self.pager.block_size
        self._write_directory(merged)
        self._dir_file.free(old_start, old_end - old_start)

    def _rewrite_entry(self, key: int, record: bytes) -> bool:
        """Replace ``key``'s entry in its leaf with ``record`` (empty:
        remove it, shifting the rest left); False if the key is absent."""
        with self.pager.phase("insert"):
            slot = self.leaves.locate(self._route(key), key)
            if slot.hit:
                self.leaves.store(slot, record)
            return slot.hit

    def update(self, key: int, payload: int) -> bool:
        return self._rewrite_entry(key, pack_entry(key, payload))

    def delete(self, key: int) -> bool:
        """Physical delete: dense leaves shift in-block (P3's payoff)."""
        deleted = self._rewrite_entry(key, b"")
        self.num_records -= deleted
        return deleted

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        if count <= 0:
            return []
        with self.pager.phase("scan"):
            return self.leaves.scan(self._route(start_key), start_key, count)

    # -- maintenance / reporting --------------------------------------------------------

    def set_inner_memory_resident(self, resident: bool) -> None:
        self._dir_file.memory_resident = resident

    def height(self) -> int:
        return 3  # meta-resident root model + directory + leaf

    def file_roles(self) -> dict:
        return {self._dir_file.name: "inner", self._leaf_file.name: "leaf"}

    def verify(self) -> int:
        """Check the leaf chain against the directory, record counts, and
        that each leaf's first and last key route back to it."""
        with self._free_io():
            directory = self._directory()
            assert len(directory) == self.num_leaves, "directory/leaf count mismatch"
            walked = list(self.leaves.walk(self.first_leaf_block, self._route))
            assert [block for block, _keys in walked] == [
                block for _max_key, block in directory], (
                    "directory order diverges from leaf chain")
            for (block, keys), (max_key, _block) in zip(walked, directory):
                # The rightmost leaf absorbs keys above the global max, so
                # only the others are bounded by their directory entry.
                assert (not keys or block == self.last_leaf_block
                        or keys[-1] <= max_key), "leaf exceeds its directory max key"
            count = sum(len(keys) for _block, keys in walked)
            assert count == self.num_records, "record count mismatch"
            return count

    # -- persistence -----------------------------------------------------------------------

    def init_params(self) -> dict:
        return {"error_bound": self.error_bound, "leaf_fill": self.leaf_fill,
                "split_buffer_capacity": self.split_buffer_capacity,
                "file_prefix": self._file_prefix}

    def to_meta(self) -> dict:
        root = self.root_model
        return {"root_model": ([root.slope, root.intercept, root.anchor]
                               if root is not None else None),
                "num_segments": self.num_segments,
                "num_dir_entries": self.num_dir_entries,
                "split_buffer_count": self.split_buffer_count,
                "segments_offset": self._segments_offset,
                "dir_offset": self._dir_offset,
                "buffer_offset": self._buffer_offset,
                "first_leaf_block": self.first_leaf_block,
                "last_leaf_block": self.last_leaf_block,
                "num_records": self.num_records,
                "num_leaves": self.num_leaves,
                "num_rebuilds": self.num_rebuilds,
                "num_splits": self.num_splits}

    def restore_meta(self, meta: dict) -> None:
        raw_model = meta["root_model"]
        self.root_model = (LinearModel(raw_model[0], raw_model[1], raw_model[2])
                           if raw_model is not None else None)
        self.num_segments = meta["num_segments"]
        self.num_dir_entries = meta["num_dir_entries"]
        self.split_buffer_count = meta["split_buffer_count"]
        self._segments_offset = meta["segments_offset"]
        self._dir_offset = meta["dir_offset"]
        self._buffer_offset = meta["buffer_offset"]
        self.first_leaf_block = meta["first_leaf_block"]
        self.last_leaf_block = meta["last_leaf_block"]
        self.num_records = meta["num_records"]
        self.num_leaves = meta["num_leaves"]
        self.num_rebuilds = meta["num_rebuilds"]
        self.num_splits = meta["num_splits"]
