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

The leaves are a :class:`~.leaffile.LeafFile` — the B+-tree's own leaf
page, searched one way whatever the codec (DESIGN.md Sections 15, 16).
Pager calls are pinned by ``tests/golden/learned_pages.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ..storage import Pager
from .alex import AlexIndex
from .btree import BTreeIndex
from .fiting import FitingTreeIndex
from .interface import DiskIndex, KeyPayload
from .leaffile import LeafFile
from .lipp import LippIndex
from .pgm import PgmIndex
from .serial import NULL_BLOCK, pack_entries

__all__ = ["HybridIndex", "HYBRID_INNER_KINDS"]


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
        self.name = f"hybrid-{inner_kind}"
        self.inner_kind = inner_kind
        self.leaf_fill = leaf_fill
        self._file_prefix = file_prefix
        self._inner_params = dict(inner_params)
        self._files_before = set(pager.device.files)
        self._leaf_file = pager.device.get_or_create_file(f"{file_prefix}.leaf")
        # Read-only, so the side a split would put a new leaf on is moot.
        self.leaves = LeafFile(pager, self._leaf_file, fill=leaf_fill, codec=codec)
        self.codec = self.leaves.codec
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
        self.leaf_base = 0
        self.num_leaves = 0
        self.max_key: Optional[int] = None

    # -- bulk load ------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        """Pack dense linked leaves, then index (max key -> leaf block):
        with the learned inner part, or under a compressed codec with a
        fence zonemap over the leaf max keys."""
        if self.num_leaves:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            leaves = self.leaves.bulk_write(pack_entries(items))
            self.leaf_base = leaves[0][2]
            self.num_leaves = len(leaves)
            directory = [(last_key, block)
                         for _first_key, last_key, block in leaves] if items else []
            if self.inner is None:
                from ..models.zonemap import FenceZonemap

                self.zonemap = FenceZonemap.build(
                    self.pager, self._fence_file,
                    [key for key, _block in directory], self.codec)
        if self.inner is not None:
            self.inner.bulk_load(directory)
        self.max_key = items[-1][0] if items else None

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
            image = self.leaves.read(leaf_block)
        return self.leaves.payload(image, key)

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
                images = self.leaves.read_many(wanted)
            for key in unique:
                block = leaf_of[key]
                results[key] = (None if block is None else
                                self.leaves.payload(images[block], key))
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
        if count <= 0:
            return []
        leaf_block = self._route(start_key)
        if leaf_block is None:
            return []
        with self.pager.phase("scan"):
            return self.leaves.scan(leaf_block, start_key, count)

    # -- misc -------------------------------------------------------------------------

    def verify(self) -> int:
        """Check the leaf chain and that the inner index or fence zonemap
        routes each leaf's first and last key back to it."""
        with self._free_io():
            first = self.leaf_base if self.num_leaves else NULL_BLOCK
            walked = list(self.leaves.walk(first, self._route))
            assert len(walked) == self.num_leaves, "leaf chain diverges from num_leaves"
            last_key = next((keys[-1] for _block, keys in reversed(walked) if keys),
                            None)
            assert last_key == self.max_key, "stored max_key diverges"
            if self.zonemap is not None:
                self.zonemap.verify()
            return sum(len(keys) for _block, keys in walked)

    def _inner_file_names(self) -> List[str]:
        """Every file the inner index owns, including files it created
        after construction (PGM components appear during bulk load)."""
        return [name for name in self.pager.device.files
                if name not in self._files_before and name != self._leaf_file.name]

    def set_inner_memory_resident(self, resident: bool) -> None:
        """Pin every file of the inner learned index in memory (P5 co-design)."""
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
