"""Hybrid index designs: learned inner structure + B+-tree-style leaves.

Section 6.1.2 of the paper evaluates an "emerging idea": keep the
key-payload pairs in dense, linked, B+-tree-style leaf blocks (which scan
well) and use a learned index only as the *inner* part, indexing the
maximum key of every leaf.  Table 5 reports the average fetched block
count of this design with each learned index as the inner part.

We build the hybrid by composition: the inner part is a full instance of
the corresponding on-disk index (FITing-tree, PGM, ALEX or LIPP) whose
entries are ``(leaf max key -> leaf block number)``.  Routing a search
key is a ceiling lookup — the smallest stored max key >= the search key —
which is exactly ``inner.scan(key, 1)``.  The paper's note that the LIPP
hybrid "has to scan forward to find the next DATA slot if meeting a NULL
slot" is therefore reproduced verbatim by LIPP's scan path.

The hybrid is evaluated read-only in the paper (lookup and scan on a
bulk-loaded index); inserts raise ``NotImplementedError``.

Compressed leaves (DESIGN.md Section 16): with a non-raw ``codec`` the
leaves hold self-framing codec pages (2-4x the entries per block) and
the inner part — *whatever* ``inner_kind`` was requested — is replaced
by a LeCo-style :class:`~repro.models.zonemap.FenceZonemap` over the
leaf max keys.  At a few hundred fences the structure of the learned
inner no longer matters at page granularity (the SIGMOD 2024 follow-up's
finding); what matters is that the fence array itself is compressed, so
routing is an in-memory bisect plus exactly one fence-block read.

A leaf is never unpacked on a point path (DESIGN.md Section 15): a raw
leaf is bisected as the block the pager returned (:mod:`.serial`), a
compressed one through the pager's frame-cached decode, and a hit
decodes one entry; scans decode from the start key on.
:meth:`HybridIndex._search_leaf` is the one leaf search behind ``lookup``
and ``lookup_many``.  Pager calls are pinned by
``tests/golden/learned_pages.json``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from ..storage import Pager
from .alex import AlexIndex
from .btree import BTreeIndex
from .codecs import get_codec
from .fiting import FitingTreeIndex
from .interface import DiskIndex, KeyPayload
from .lipp import LippIndex
from .pgm import PgmIndex
from .serial import (ENTRY_SIZE, NULL_BLOCK, bisect_left, find_entry,
                     pack_entries, unpack_entries)

__all__ = ["HybridIndex", "HYBRID_INNER_KINDS"]

_LEAF_HEADER = struct.Struct("<HHIII")  # count, pad, next, prev, pad
LEAF_HEADER_SIZE = 16

#: Inner-part choices for the hybrid design (Table 5 columns).
HYBRID_INNER_KINDS: Dict[str, Type[DiskIndex]] = {
    "fiting": FitingTreeIndex,
    "pgm": PgmIndex,
    "alex": AlexIndex,
    "lipp": LippIndex,
    "btree": BTreeIndex,  # degenerates to a plain B+-tree; kept for sanity checks
}


class HybridIndex(DiskIndex):
    """Learned-inner / dense-leaf hybrid (read-only).

    Args:
        pager: storage access path.
        inner_kind: one of ``HYBRID_INNER_KINDS``.
        leaf_fill: bulk-load fill factor of the dense leaves (under a
            compressed codec: fraction of the leaf byte budget used).
        codec: leaf-page codec (Section 16).  Raw keeps the byte-
            identical learned-inner layout; a compressed codec packs
            codec pages into the leaves and swaps the inner part for a
            compressed fence zonemap (``<file_prefix>.fence``).
        inner_params: forwarded to the inner index constructor (ignored
            under a compressed codec, which has no inner index).
    """

    def __init__(self, pager: Pager, inner_kind: str = "pgm", leaf_fill: float = 0.8,
                 file_prefix: str = "hybrid", codec: str = "raw",
                 **inner_params) -> None:
        super().__init__(pager)
        if inner_kind not in HYBRID_INNER_KINDS:
            raise ValueError(
                f"unknown inner kind {inner_kind!r}; choose from {sorted(HYBRID_INNER_KINDS)}")
        if not 0.1 <= leaf_fill <= 1.0:
            raise ValueError("leaf fill factor must be in [0.1, 1.0]")
        self.name = f"hybrid-{inner_kind}"
        self.inner_kind = inner_kind
        self.leaf_fill = leaf_fill
        self.codec = get_codec(codec)
        self._file_prefix = file_prefix
        self._inner_params = dict(inner_params)
        self._files_before = set(pager.device.files)
        self._leaf_file = pager.device.get_or_create_file(f"{file_prefix}.leaf")
        self.zonemap = None
        if self.codec.is_raw:
            inner_cls = HYBRID_INNER_KINDS[inner_kind]
            self.inner: Optional[DiskIndex] = inner_cls(
                pager, file_prefix=f"{file_prefix}.inner", **inner_params)
            self._fence_file = None
        else:
            self.inner = None
            self._fence_file = pager.device.get_or_create_file(
                f"{file_prefix}.fence")
        self._inner_resident = False
        self.leaf_capacity = (pager.block_size - LEAF_HEADER_SIZE) // ENTRY_SIZE
        self.leaf_base = 0
        self.num_leaves = 0
        self.max_key: Optional[int] = None

    # -- bulk load ------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self.num_leaves:
            raise RuntimeError("index already bulk-loaded")
        if self.codec.is_raw:
            with self.pager.phase("bulkload"):
                directory = self._write_leaves(items)
            self.inner.bulk_load(directory)
        else:
            with self.pager.phase("bulkload"):
                self._write_leaves_compressed(items)
        self.max_key = items[-1][0] if items else None

    def _write_leaves_compressed(self, items: Sequence[KeyPayload]) -> None:
        """Greedy-pack codec pages into linked leaves and build the
        fence zonemap over the leaf max keys.

        ``leaf_fill`` scales the per-leaf byte budget the way it scales
        the raw layout's entry count; the codec id is stamped into the
        leaf header's pad field (raw leaves carry 0 there — RawCodec's
        id) on top of the codec page's own self-framing header.
        """
        from ..models.zonemap import FenceZonemap

        bs = self.pager.block_size
        codec = self.codec
        budget = max(64, int((bs - LEAF_HEADER_SIZE) * self.leaf_fill))
        chunks: List[Sequence[KeyPayload]] = []
        pos = 0
        while pos < len(items):
            take = codec.pack_greedy(items, pos, budget)
            chunks.append(items[pos : pos + take])
            pos += take
        if not chunks:
            chunks.append([])
        num_leaves = len(chunks)
        first = self._leaf_file.allocate(num_leaves)
        writes: List[tuple] = []
        fences: List[int] = []
        for i, chunk in enumerate(chunks):
            next_ = first + i + 1 if i + 1 < num_leaves else NULL_BLOCK
            prev = first + i - 1 if i > 0 else NULL_BLOCK
            page = codec.encode(chunk)
            block = bytearray(bs)
            _LEAF_HEADER.pack_into(block, 0, len(chunk), codec.codec_id,
                                   next_, prev, 0)
            block[LEAF_HEADER_SIZE : LEAF_HEADER_SIZE + len(page)] = page
            writes.append((first + i, bytes(block)))
            if chunk:
                fences.append(chunk[-1][0])
        # One coalesced call, exactly like the raw layout.
        self.pager.write_blocks(self._leaf_file, writes)
        self.leaf_base = first
        self.num_leaves = num_leaves
        self.zonemap = FenceZonemap.build(
            self.pager, self._fence_file, fences, codec)

    def _write_leaves(self, items: Sequence[KeyPayload]) -> List[KeyPayload]:
        """Pack dense linked leaves; returns (max key -> leaf block) entries."""
        per_leaf = max(1, int(self.leaf_capacity * self.leaf_fill))
        num_leaves = max(1, (len(items) + per_leaf - 1) // per_leaf)
        first = self._leaf_file.allocate(num_leaves)
        directory: List[KeyPayload] = []
        bs = self.pager.block_size
        writes: List[tuple] = []
        for i in range(num_leaves):
            chunk = items[i * per_leaf : (i + 1) * per_leaf]
            next_ = first + i + 1 if i + 1 < num_leaves else NULL_BLOCK
            prev = first + i - 1 if i > 0 else NULL_BLOCK
            block = bytearray(bs)
            _LEAF_HEADER.pack_into(block, 0, len(chunk), 0, next_, prev, 0)
            block[LEAF_HEADER_SIZE : LEAF_HEADER_SIZE + len(chunk) * ENTRY_SIZE] = (
                pack_entries(chunk))
            writes.append((first + i, bytes(block)))
            if chunk:
                directory.append((chunk[-1][0], first + i))
        # One coalesced call: the freshly allocated leaves are contiguous,
        # so the whole image is charged a single positioning run.
        self.pager.write_blocks(self._leaf_file, writes)
        self.num_leaves = num_leaves
        return directory

    # -- leaf access ------------------------------------------------------------

    def _decoded(self, block: int, raw: bytes):
        """A compressed leaf's ``(keys, payloads)`` columns, decoded once
        per frame by the pager."""
        return self.pager.cached_decode(self._leaf_file, block, raw, self.codec,
                                        offset=LEAF_HEADER_SIZE)

    def _search_leaf(self, block: int, raw: bytes, key: int) -> Optional[int]:
        """The payload of ``key`` in a fetched leaf, or None."""
        if self.codec.is_raw:
            return find_entry(raw, key, _LEAF_HEADER.unpack_from(raw)[0],
                              LEAF_HEADER_SIZE)[1]
        keys, payloads = self._decoded(block, raw)
        slot = int(np.searchsorted(keys, np.uint64(key), side="left"))
        if slot < len(keys) and int(keys[slot]) == key:
            return int(payloads[slot])
        return None

    def _entries_from(self, block: int, raw: bytes, start_key: int,
                      limit: int) -> List[KeyPayload]:
        """Up to ``limit`` entries of a fetched leaf with key >= ``start_key``."""
        if self.codec.is_raw:
            count = _LEAF_HEADER.unpack_from(raw)[0]
            slot = bisect_left(raw, start_key, count, LEAF_HEADER_SIZE)
            return unpack_entries(raw, min(count - slot, limit),
                                  LEAF_HEADER_SIZE + slot * ENTRY_SIZE)
        keys, payloads = self._decoded(block, raw)
        slot = int(np.searchsorted(keys, np.uint64(start_key), side="left"))
        return list(zip(keys[slot : slot + limit].tolist(),
                        payloads[slot : slot + limit].tolist()))

    def _route(self, key: int) -> Optional[int]:
        """Leaf block whose max key is the ceiling of ``key``."""
        if self.max_key is None or key > self.max_key:
            return None
        if self.zonemap is not None:
            with self.pager.phase("search"):
                ordinal = self.zonemap.route(key)
            if ordinal is None:
                return None
            return self.leaf_base + ordinal
        hits = self.inner.scan(key, 1)
        if not hits:
            return None
        return hits[0][1]

    # -- operations ----------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        leaf_block = self._route(key)
        if leaf_block is None:
            return None
        with self.pager.phase("search"):
            raw = self.pager.read_block(self._leaf_file, leaf_block)
        return self._search_leaf(leaf_block, raw, key)

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Batched lookups: route the whole sorted batch through the
        pinned inner index, then fetch the distinct leaf blocks in one
        coalesced span and search each key's leaf in place."""
        keys = list(keys)
        if len(keys) <= 1:
            return [self.lookup(key) for key in keys]
        unique = sorted(set(keys))
        results = {}
        with self.pager.batch():
            if self.zonemap is not None:
                leaf_of = self._route_batch_compressed(unique)
            else:
                leaf_of = {key: self._route(key) for key in unique}
            wanted = {block for block in leaf_of.values() if block is not None}
            with self.pager.phase("search"):
                blocks = self.pager.read_span(self._leaf_file, wanted)
            for key in unique:
                block = leaf_of[key]
                results[key] = (None if block is None else
                                self._search_leaf(block, blocks[block], key))
        return [results[key] for key in keys]

    def _route_batch_compressed(self, unique) -> Dict[int, Optional[int]]:
        """Batched zonemap routing: one coalesced fence-page span for
        the whole batch."""
        routable = [key for key in unique
                    if self.max_key is not None and key <= self.max_key]
        with self.pager.phase("search"):
            ordinals = self.zonemap.route_many(routable)
        leaf_of: Dict[int, Optional[int]] = {key: None for key in unique}
        for key, ordinal in ordinals.items():
            if ordinal is not None:
                leaf_of[key] = self.leaf_base + ordinal
        return leaf_of

    def insert(self, key: int, payload: int) -> None:
        raise NotImplementedError(
            "the hybrid design is evaluated read-only in the paper (Table 5)")

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        leaf_block = self._route(start_key)
        out: List[KeyPayload] = []
        if leaf_block is None or count <= 0:
            return out
        with self.pager.phase("scan"):
            block = leaf_block
            while block != NULL_BLOCK and len(out) < count:
                raw = self.pager.read_block(self._leaf_file, block)
                out += self._entries_from(block, raw, start_key, count - len(out))
                block = _LEAF_HEADER.unpack_from(raw)[2]
        return out

    # -- misc -------------------------------------------------------------------------

    def verify(self) -> int:
        """Check leaf-chain linkage and order, per-leaf sortedness, and
        the routing agreement between the inner structure (learned index
        or fence zonemap) and the leaves.  Under a compressed codec also
        checks the codec-id stamp of every leaf header."""
        with self._free_io():
            count = 0
            walked = 0
            previous_key = -1
            previous_block = NULL_BLOCK
            base = self.leaf_base if self.zonemap is not None else 0
            block = base if self.num_leaves else NULL_BLOCK
            while block != NULL_BLOCK:
                assert walked < self.num_leaves, "leaf chain cycles or overruns"
                raw = self.pager.read_block(self._leaf_file, block)
                entry_count, codec_id, next_, prev, _pad2 = (
                    _LEAF_HEADER.unpack_from(raw, 0))
                assert codec_id == self.codec.codec_id, (
                    f"leaf {block} stamped codec {codec_id}, "
                    f"expected {self.codec.codec_id}")
                # one more than stamped, so a page holding extra shows
                entries = self._entries_from(block, raw, 0, entry_count + 1)
                assert len(entries) == entry_count, "leaf count drift"
                assert prev == previous_block, "broken prev link"
                keys = [k for k, _ in entries]
                assert keys == sorted(set(keys)), "leaf unsorted"
                if keys:
                    assert keys[0] > previous_key, "leaves out of order"
                    if self.zonemap is not None:
                        assert self.zonemap.route(keys[-1]) == walked, (
                            "fence zonemap misroutes a leaf max key")
                    else:
                        assert self.inner.lookup(keys[-1]) == block, (
                            "inner directory misroutes a leaf max key")
                    previous_key = keys[-1]
                count += len(entries)
                walked += 1
                previous_block = block
                block = next_
            assert walked == self.num_leaves, "leaf chain shorter than num_leaves"
            if self.max_key is not None:
                assert previous_key == self.max_key, "stored max_key diverges"
            if self.zonemap is not None:
                self.zonemap.verify()
            return count

    def _inner_file_names(self) -> List[str]:
        """Every file the inner index owns, including files it created
        after construction (PGM components appear during bulk load)."""
        return [name for name in self.pager.device.files
                if name not in self._files_before and name != self._leaf_file.name]

    def set_inner_memory_resident(self, resident: bool) -> None:
        """Pin every file of the inner learned index in memory (P5 co-design)."""
        self._inner_resident = resident
        for name in self._inner_file_names():
            self.pager.device.get_file(name).memory_resident = resident

    def init_params(self) -> dict:
        params = dict(self._inner_params)
        params.update({"leaf_fill": self.leaf_fill, "file_prefix": self._file_prefix})
        if not self.codec.is_raw:
            params["codec"] = self.codec.name
        return params

    def to_meta(self) -> dict:
        meta = {"num_leaves": self.num_leaves, "max_key": self.max_key}
        if self.zonemap is not None:
            meta["leaf_base"] = self.leaf_base
            meta["zonemap"] = self.zonemap.to_meta()
        else:
            meta["inner"] = self.inner.to_meta()
        return meta

    def restore_meta(self, meta: dict) -> None:
        self.num_leaves = meta["num_leaves"]
        self.max_key = meta["max_key"]
        if "zonemap" in meta:
            from ..models.zonemap import FenceZonemap

            self.leaf_base = meta["leaf_base"]
            self.zonemap = FenceZonemap.attach(
                self.pager, self._fence_file, self.codec, meta["zonemap"])
        else:
            self.inner.restore_meta(meta["inner"])

    def file_roles(self) -> dict:
        if self.zonemap is not None or not self.codec.is_raw:
            return {self._fence_file.name: "inner",
                    self._leaf_file.name: "leaf"}
        roles = {name: "inner" for name in self._inner_file_names()}
        roles[self._leaf_file.name] = "leaf"
        return roles

    def height(self) -> int:
        if self.zonemap is not None:
            # In-memory page boundaries -> one fence block -> one leaf.
            return 2
        return self.inner.height() + 1
