"""On-disk B+-tree.

The baseline of the paper's entire evaluation: "one of the most efficient
and commonly used on-disk data structures in the database community".
One node occupies exactly one block.  Inner nodes and leaves live in
separate files so that the Section 6.2 hybrid case (inner nodes pinned in
main memory) is a one-line flag.

:class:`BPlusTree` is inner levels over a :class:`~.leaffile.LeafFile`,
which owns the leaf page (shared with PLID and the hybrid); routing to a
leaf block and the separator a split promotes live here.  A record is
``(key, data)`` with fixed-size ``data``: the baseline index stores
8-byte payloads, the FITing-tree 28-byte segment descriptors — keeping
each segment's linear model *in the parent*, which avoids shortcoming S1.

Inner block (little endian): ``u16 count | u8 child_is_leaf | 13 pad``,
``count`` entries ``u64 separator_key | u32 child_block``, then zeros.
Entry ``i``'s separator is the minimum key of child ``i``'s subtree when
the entry was made; routing picks the rightmost separator <= search key
and never compares entry 0's, which therefore acts as minus infinity.

Nodes are never parsed (DESIGN.md Section 15): an inner page's key
column is bisected in place and a separator insert splices the entry
run.  :meth:`BPlusTree._descend` is the one descent of point, batch and
write paths.  The pager calls made, their order and the bytes written
are pinned by ``tests/golden/btree_pages.json``.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..storage import BlockFile, Pager
from .interface import DiskIndex, KeyPayload
from .leaffile import LeafFile
from .serial import NULL_BLOCK, bisect_right, keys_view

__all__ = ["BPlusTree", "BTreeIndex"]

_INNER_HEADER = struct.Struct("<HB13x")  # count, child_is_leaf
_INNER_ENTRY = struct.Struct("<QI")  # separator key, child block
_BLOCK_PTR = struct.Struct("<I")
_KEY = struct.Struct("<Q")
HEADER_SIZE = _INNER_HEADER.size  # 16
INNER_ENTRY_SIZE = _INNER_ENTRY.size  # 12


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
        if not 0.1 <= inner_fill <= 1.0:
            raise ValueError("fill factors must be in [0.1, 1.0]")
        self.leaves = LeafFile(pager, leaf_file, data_size, leaf_fill, codec,
                               new_leaf_side="right")
        self.pager = pager
        self.inner_file = inner_file
        self.inner_capacity = (pager.block_size - HEADER_SIZE) // INNER_ENTRY_SIZE
        if self.inner_capacity < 2:
            raise ValueError(f"block size {pager.block_size} too small")
        self.inner_fill = inner_fill
        # Meta (allowed in memory per the paper's meta-block convention).
        self.root_block = NULL_BLOCK
        self.root_is_leaf = True
        self.num_levels = 1
        self.num_records = 0

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
        pack_key = _KEY.pack
        run = b"".join([pack_key(key) + data for key, data in records])
        # (min key, child block) per node of the level below
        level = [(first_key, block)
                 for first_key, _last_key, block in self.leaves.bulk_write(run)]
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

    def lookup(self, key: int) -> Optional[bytes]:
        """Exact-match search; returns the record data or None."""
        leaves = self.leaves
        return leaves.get(leaves.read(self._descend(key)), key)

    def _batched(self, keys: Iterable[int], search) -> dict:
        """``{key: search(leaf images, key's leaf block, key)}`` for the
        distinct ``keys``, in one :meth:`Pager.batch` scope: descend for
        every key in ascending order (an inner block crossed is fetched
        once and stays pinned: one descent of inner I/O per distinct
        path), fetch the distinct leaves in one coalesced span, search."""
        unique = sorted(set(keys))
        if not unique:
            return {}
        with self.pager.batch():
            leaf_of = {key: self._descend(key) for key in unique}
            images = self.leaves.read_many(leaf_of.values())
            return {key: search(images, leaf_of[key], key) for key in unique}

    def lookup_many_records(self, keys: Iterable[int]) -> Dict[int, Optional[bytes]]:
        """Batched exact-match search; returns ``{key: data or None}``."""
        get = self.leaves.get
        return self._batched(keys, lambda images, block, key: get(images[block], key))

    def floor_record(self, key: int) -> Optional[Tuple[int, bytes]]:
        """Rightmost record with key <= ``key`` (FITing segment routing)."""
        return self.leaves.floor({}, self._descend(key), key)

    def floor_records(self, keys: Iterable[int]) -> Dict[int, Optional[Tuple[int, bytes]]]:
        """Batched :meth:`floor_record`; returns ``{key: (key, data) or None}``."""
        return self._batched(keys, self.leaves.floor)

    def iterate_from(self, key: int) -> Iterator[Tuple[int, bytes]]:
        """Yield records with key >= ``key`` in key order, following leaf links."""
        return self.leaves.iterate_from(self._descend(key), key)

    # -- updates ---------------------------------------------------------------------

    def _locate(self, key: int):
        """Descend for a write: the inner path and the leaf slot."""
        path: List[int] = []
        return path, self.leaves.locate(self._descend(key, path), key)

    def update(self, key: int, data: bytes) -> bool:
        """Overwrite the data of an existing record; False if absent."""
        path, slot = self._locate(key)
        if slot.hit:
            self._store(path, slot, _KEY.pack(key) + data)
        return slot.hit

    def delete(self, key: int) -> bool:
        """Remove a record without rebalancing (lazy deletion)."""
        path, slot = self._locate(key)
        if slot.hit:
            self.num_records -= 1
            self._store(path, slot, b"")
        return slot.hit

    def insert(self, key: int, data: bytes) -> None:
        """Insert a record, splitting nodes bottom-up as needed."""
        path, slot = self._locate(key)
        if slot.hit:
            raise KeyError(f"duplicate key {key}")
        self._store(path, slot, _KEY.pack(key) + data)
        self.num_records += 1

    def _store(self, path: List[int], slot, record: bytes) -> None:
        """Write a mutated leaf back and promote the first key of every
        leaf a split made."""
        for sep_key, new_block in self.leaves.store(slot, record):
            if not self.leaves.codec.is_raw:
                # A compressed leaf may repack into several leaves, and
                # an earlier separator insert may have split the parent:
                # each separator gets a fresh descent.
                path = []
                self._descend(sep_key, path)
            self._insert_separator(path, sep_key, new_block, child_is_leaf=True)

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
        if count <= 0:
            return []
        tree = self.tree
        with self.pager.phase("scan"):
            return tree.leaves.scan(tree._descend(start_key), start_key, count)

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
        """Check separator ordering, the leaf chain, record counts, and
        that each leaf's first and last key descend back to it."""
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
            total = sum(len(keys) for _block, keys
                        in tree.leaves.walk(block, tree._descend))
            assert total == tree.num_records, (
                f"record count mismatch: walked {total}, meta {tree.num_records}")
            return total

    def init_params(self) -> dict:
        params = {"leaf_fill": self.tree.leaves.fill, "inner_fill": self.tree.inner_fill,
                  "file_prefix": self._file_prefix}
        if not self.tree.leaves.codec.is_raw:
            params["codec"] = self.tree.leaves.codec.name
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
