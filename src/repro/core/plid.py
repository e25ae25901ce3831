"""PLID — a Principled Learned Index on Disk.

The paper ends with four design principles (P1-P4) and a co-design
recommendation (P5) for *future* on-disk learned indexes; PLID is this
repository's instantiation of them, the "what should have been built"
index the evaluation argues for:

* **P1 — reduce the tree height.**  Two on-disk levels: a flat learned
  directory (a PLA over leaf boundary keys) and the leaves.  The root
  descriptor lives in the meta block.  A lookup costs 1 directory block
  + 1 leaf block (+1 while the split buffer is non-empty) — at or below
  the B+-tree's height for any dataset size.
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
  descriptor in the meta block, the per-segment models in the descriptor
  levels.  No node ever spans a model and its slots, so the paper's S1
  overhead cannot occur.
* **P5 — co-design with the buffer.**  The whole inner part (directory +
  split buffer) is a few blocks; pinning it in memory
  (``set_inner_memory_resident``) or caching it in a small LRU pool
  drops lookups to a single leaf fetch.

Directory layout (``<prefix>.dir`` file), one byte-contiguous extent::

    descriptor levels, top-down: 24-byte PGM descriptors (first_key,
                 slope, intercept) — the PLA over the leaf directory;
                 none at all while one segment (the root) covers it
    leaf directory: sorted (separator key u64, leaf block u64) entries,
                 one per leaf *except the rightmost* — a leaf's
                 separator is the largest key it may hold
    split buffer: one region of sorted (separator, leaf block) entries

A key belongs to the leaf of the smallest separator >= the key, and to
the rightmost leaf when there is none (a B+-tree node with n children
has n-1 keys).  The directory and its PLA are rebuilt together; between
rebuilds, new leaves produced by splits live in the split buffer.

The leaves are a :class:`~.leaffile.LeafFile` whose splits put the new
leaf to the *left*: the right half stays in the old block, so the old
separator (or, for the rightmost leaf, the lack of one) stays correct
and only the new leaf's max key is registered, in the split buffer.

The PLA levels are built and searched by :func:`.pgm.build_levels` and
:func:`.pgm.descend`, the one routing routine PLID shares with the PGM
components (DESIGN.md Section 18); only the layout differs — one extent
here, so a rebuild frees and writes one run of blocks.  The directory
window and the split buffer are bisected as the bytes the pager returned
(DESIGN.md Section 15).  Pager calls and written bytes are pinned by
``tests/golden/learned_pages.json``.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..storage import Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload
from .leaffile import LeafFile
from .pgm import DESCRIPTOR_SIZE, Descriptor, build_levels, descend
from .serial import (ENTRY_SIZE, NULL_BLOCK, bisect_left, entry_at, key_at,
                     pack_entries, pack_entry, splice, unpack_entries)

__all__ = ["PlidIndex"]


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
        #: ``view(offset, length)`` over the dir file, as :func:`descend`
        #: takes it.  A directory entry (separator key, leaf block) has the
        #: layout of a key-payload entry, so :mod:`.serial` serves both.
        self._view = partial(pager.view, self._dir_file)
        # Meta-block state (the paper's in-memory meta block): the root
        # descriptor and the region table — ``level_table`` as
        # :func:`descend` takes it, bottom-up.
        self.root: Optional[Descriptor] = None
        self.level_table: List[Tuple[int, int]] = []
        self.num_dir_entries = 0
        self.split_buffer_count = 0
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
            self._write_directory([(last_key, block) for _first_key, last_key,
                                   block in leaves[:-1]])

    def _write_directory(self, directory: List[KeyPayload]) -> None:
        """(Re)write the descriptor levels + leaf directory + empty split
        buffer as one fresh extent of the dir file (the caller frees the
        previous one — a few blocks, the cheap SMO P2 asks for)."""
        bs = self.pager.block_size
        self.root, levels = (
            build_levels([key for key, _ in directory], self.error_bound)
            if directory else (None, []))
        levels_raw = b"".join(reversed(levels))
        dir_raw = pack_entries(directory)
        buffer_bytes = self.split_buffer_capacity * ENTRY_SIZE
        total = len(levels_raw) + len(dir_raw) + buffer_bytes
        start = self._dir_file.allocate((total + bs - 1) // bs)
        self.pager.write_bytes(self._dir_file, start * bs,
                               levels_raw + dir_raw + bytes(buffer_bytes))
        self._dir_offset = offset = start * bs + len(levels_raw)
        self._buffer_offset = self._dir_offset + len(dir_raw)
        self.level_table = []
        for raw in levels:  # the bottom level sits just before the directory
            offset -= len(raw)
            self.level_table.append((offset, len(raw) // DESCRIPTOR_SIZE))
        self.num_dir_entries = len(directory)
        self.split_buffer_count = 0

    # -- directory search ---------------------------------------------------------

    def _dir_window(self, lo: int, hi: int) -> Tuple[bytes, int]:
        """Leaf-directory entries ``lo..hi`` inclusive, as
        :meth:`~repro.storage.Pager.view` holds them: the data and where
        entry ``lo`` starts in it (nothing is read for an empty window)."""
        if hi < lo:
            return b"", 0
        return self._view(self._dir_offset + lo * ENTRY_SIZE,
                          (hi - lo + 1) * ENTRY_SIZE)

    def _split_buffer(self) -> bytes:
        """The sorted split buffer, as stored."""
        return self.pager.read_bytes(self._dir_file, self._buffer_offset,
                                     self.split_buffer_count * ENTRY_SIZE)

    def _directory(self) -> List[Tuple[int, int]]:
        """Every (separator, leaf block): directory and split buffer
        merged, for a rebuild or a verify."""
        data, at = self._dir_window(0, self.num_dir_entries - 1)
        return sorted(
            unpack_entries(data, self.num_dir_entries, at)
            + unpack_entries(self._split_buffer(), self.split_buffer_count))

    def _route(self, key: int) -> int:
        """Leaf block of the smallest separator >= ``key``, else the
        rightmost leaf.

        The descriptor windows :func:`descend` reads (none while the root
        covers the directory), one directory window, plus the split
        buffer while it is non-empty.
        """
        best: Optional[Tuple[int, int]] = None
        entries = self.num_dir_entries
        if entries:
            lo, hi = descend(self._view, self.root, self.level_table, entries,
                             key, self.error_bound)
            # The ceiling is the floor's successor, and the window may end
            # on the floor: like a descriptor window, read one entry longer.
            hi = min(hi + 1, entries - 1)
            data, at = self._dir_window(lo, hi)
            index = bisect_left(data, key, hi - lo + 1, at)
            if index <= hi - lo:
                best = entry_at(data, index, at)
        # The split buffer may hold a tighter (newer) boundary: it is
        # sorted, so its candidate is its own ceiling entry.
        buffered = self.split_buffer_count
        if buffered:
            raw = self._split_buffer()
            slot = bisect_left(raw, key, buffered)
            if slot < buffered and (
                    best is None or key_at(raw, slot) < best[0]):
                best = entry_at(raw, slot)
        return best[1] if best is not None else self.last_leaf_block

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
            raw[: slot * ENTRY_SIZE]
            + splice(raw, slot, pack_entry(max_key, block), count))
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
        # the extent starts at its top descriptor level, if it has one
        old_start = (self.level_table[-1][0] if self.level_table
                     else self._dir_offset) // self.pager.block_size
        old_end = (self._buffer_offset
                   + self.split_buffer_capacity * ENTRY_SIZE
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
        return 3  # meta-resident root descriptor + directory + leaf

    def file_roles(self) -> dict:
        return {self._dir_file.name: "inner", self._leaf_file.name: "leaf"}

    def verify(self) -> int:
        """Check the leaf chain against the directory, record counts, and
        that every key of every leaf routes back to it."""
        with self._free_io():
            directory = self._directory()
            assert len(directory) == self.num_leaves - 1, (
                "directory/leaf count mismatch")
            walked = list(self.leaves.walk(self.first_leaf_block, self._route))
            assert [block for block, _keys in walked] == [
                block for _separator, block in directory] + [
                    self.last_leaf_block], (
                        "directory order diverges from leaf chain")
            count = sum(len(keys) for _block, keys in walked)
            assert count == self.num_records, "record count mismatch"
            return count

    # -- persistence -----------------------------------------------------------------------

    def init_params(self) -> dict:
        return {"error_bound": self.error_bound, "leaf_fill": self.leaf_fill,
                "split_buffer_capacity": self.split_buffer_capacity,
                "file_prefix": self._file_prefix}

    def to_meta(self) -> dict:
        return {"root": list(self.root) if self.root is not None else None,
                "level_table": [list(level) for level in self.level_table],
                "num_dir_entries": self.num_dir_entries,
                "split_buffer_count": self.split_buffer_count,
                "dir_offset": self._dir_offset,
                "buffer_offset": self._buffer_offset,
                "first_leaf_block": self.first_leaf_block,
                "last_leaf_block": self.last_leaf_block,
                "num_records": self.num_records,
                "num_leaves": self.num_leaves,
                "num_rebuilds": self.num_rebuilds,
                "num_splits": self.num_splits}

    def restore_meta(self, meta: dict) -> None:
        self.root = tuple(meta["root"]) if meta["root"] is not None else None
        self.level_table = [tuple(level) for level in meta["level_table"]]
        self.num_dir_entries = meta["num_dir_entries"]
        self.split_buffer_count = meta["split_buffer_count"]
        self._dir_offset = meta["dir_offset"]
        self._buffer_offset = meta["buffer_offset"]
        self.first_leaf_block = meta["first_leaf_block"]
        self.last_leaf_block = meta["last_leaf_block"]
        self.num_records = meta["num_records"]
        self.num_leaves = meta["num_leaves"]
        self.num_rebuilds = meta["num_rebuilds"]
        self.num_splits = meta["num_splits"]
