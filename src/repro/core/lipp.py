"""LIPP on disk (Updatable Learned Index with Precise Positions).

LIPP has a single node type.  Each node holds a linear model (built with
the FMCD algorithm) and an array of slots; a slot is NULL, DATA (one
key-payload pair) or NODE (a child pointer for conflicting keys).
Predictions are exact: a lookup never searches inside a node.

The on-disk layout follows Section 4.2 of the paper: same extent scheme
as ALEX, but the per-node bitmap is replaced with a per-slot type flag
stored *inside* the 24-byte slot, so reading a slot yields its type and
content in one fetch — the lookup cost is 2 reads per level (header with
the model + the predicted slot), the ``2 log N`` of Table 2.

Write-path behaviour the paper measures:

* conflict inserts create a new child node — an SMO roughly every third
  insert (Section 6.1.3);
* every node on the root-to-slot path has its statistics updated after
  each insert — the *maintenance* overhead dominating LIPP's Figure 6
  breakdown;
* a subtree whose insert count since construction reaches its build size
  is rebuilt with FMCD (the second SMO type, "adjusting the tree
  structure").

LIPP is excluded from the memory-resident-inner experiment: it does not
distinguish inner from leaf nodes, and its root node alone is larger
than every other index's full inner structure (Section 6.2).

Every read goes through :meth:`~repro.storage.Pager.view`, which serves
a range inside the block the pager holds free (DESIGN.md Section 15):
the point verbs ask it for a header and a slot per level, decoded in
place.  Everything that visits slots in order — ``scan``, the
collection pass of a subtree rebuild and the freeing pass after it,
``verify`` and ``height`` — is one walk (:meth:`LippIndex._walk`):
iterative, on an explicit stack, decoding each run of slots that lies
inside one block from one request.  A scan is charged what one read per
slot would be: the conflict children it hops through, each displacing
its parent's block, are the cost the paper reports for LIPP scans.
"""

from __future__ import annotations

import struct
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

from ..models import LinearModel, build_fmcd_model, lipp_node_slots
from ..storage import Pager
from .codecs import get_codec
from .interface import DiskIndex, KeyPayload
from .serial import NULL_BLOCK

__all__ = ["LippIndex"]

_NODE_HEADER = struct.Struct("<IIddQII")
# item_count, num_slots, slope, intercept, anchor, build_size, num_inserts
HEADER_SIZE = 64
_SLOT = struct.Struct("<B7xQQ")  # flag, key (or child block), payload
SLOT_SIZE = _SLOT.size  # 24

SLOT_NULL = 0
SLOT_DATA = 1
SLOT_NODE = 2


class _NodeHeader:
    __slots__ = ("item_count", "num_slots", "slope", "intercept", "anchor",
                 "build_size", "num_inserts")

    def __init__(self, item_count: int, num_slots: int, slope: float,
                 intercept: float, anchor: int, build_size: int,
                 num_inserts: int) -> None:
        self.item_count = item_count
        self.num_slots = num_slots
        self.slope = slope
        self.intercept = intercept
        self.anchor = anchor
        self.build_size = build_size
        self.num_inserts = num_inserts

    def pack(self) -> bytes:
        out = bytearray(HEADER_SIZE)
        _NODE_HEADER.pack_into(out, 0, self.item_count, self.num_slots,
                               self.slope, self.intercept, self.anchor,
                               self.build_size, self.num_inserts)
        return bytes(out)

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0) -> "_NodeHeader":
        return cls(*_NODE_HEADER.unpack_from(raw, offset))

    def predict(self, key: int) -> int:
        return _predict(self.num_slots, self.slope, self.intercept, self.anchor, key)


def _predict(num_slots: int, slope: float, intercept: float, anchor: int,
             key: int) -> int:
    """The slot a node's model gives ``key``: anchored evaluation (exact
    integer subtraction first), clamped to the node's slots."""
    pos = int(slope * float(int(key) - anchor) + intercept)
    if pos < 0:
        return 0
    if pos >= num_slots:
        return num_slots - 1
    return pos


class LippIndex(DiskIndex):
    """Disk-resident LIPP.

    Args:
        pager: storage access path.
        rebuild_factor: a subtree is rebuilt when the inserts since its
            construction reach ``rebuild_factor * build_size``.
        build_gap_count: LIPP's slot over-allocation for small nodes, at
            least 1 (default 4, i.e. 5x slots for nodes under 100K items —
            the source of LIPP's outsized storage footprint in Figure 10).
    """

    name = "lipp"

    def __init__(self, pager: Pager, rebuild_factor: float = 1.0,
                 build_gap_count: int = 4, file_prefix: str = "lipp",
                 codec: str = "raw") -> None:
        super().__init__(pager)
        # LIPP's FMCD models map keys directly to fixed-stride node
        # slots (DATA/NULL/CHILD), incompatible with variable-width
        # codec pages; the codec name is validated, then raw is kept.
        get_codec(codec)
        if rebuild_factor <= 0:
            raise ValueError(f"rebuild factor must be positive, got {rebuild_factor}")
        if build_gap_count < 1:
            # LIPP never builds with fewer than one gap per key: with none,
            # conflicting keys get a child of as many slots as keys, whose
            # model can put them in one slot again — bulk_load never returns.
            raise ValueError(f"build gap count must be >= 1, got {build_gap_count}")
        self._file_prefix = file_prefix
        self.rebuild_factor = rebuild_factor
        self.build_gap_count = build_gap_count
        self._file = pager.device.get_or_create_file(f"{file_prefix}.data")
        self.root_block: int = NULL_BLOCK  # meta block, in memory
        self.num_conflict_nodes = 0
        self.num_rebuilds = 0

    # -- geometry ------------------------------------------------------------

    def _extent_blocks(self, num_slots: int) -> int:
        nbytes = HEADER_SIZE + num_slots * SLOT_SIZE
        return (nbytes + self.pager.block_size - 1) // self.pager.block_size

    def _slot_offset(self, block: int, slot: int) -> int:
        return block * self.pager.block_size + HEADER_SIZE + slot * SLOT_SIZE

    # -- node I/O --------------------------------------------------------------

    def _write_header(self, block: int, header: _NodeHeader) -> None:
        self.pager.write_bytes(self._file, block * self.pager.block_size, header.pack())

    def _write_slot(self, block: int, slot: int, flag: int, key: int, payload: int) -> None:
        self.pager.write_bytes(self._file, self._slot_offset(block, slot),
                               _SLOT.pack(flag, key, payload))

    # -- construction -------------------------------------------------------------

    def bulk_load(self, items: Sequence[KeyPayload]) -> None:
        if self.root_block != NULL_BLOCK:
            raise RuntimeError("index already bulk-loaded")
        with self.pager.phase("bulkload"):
            self.root_block = self._build_node(list(items))

    @staticmethod
    def _slot_runs(model: LinearModel, keys: List[int],
                   num_slots: int) -> Tuple[List[int], List[int]]:
        """The slot ``model`` predicts for each of the sorted ``keys``
        (:meth:`_NodeHeader.predict`, spelled out) and the indices at
        which the slot changes, 0 and ``len(keys)`` included: keys
        ``cuts[i]:cuts[i + 1]`` share a slot."""
        slope, intercept, anchor = model.slope, model.intercept, model.anchor
        top = num_slots - 1
        slots = [pos if 0 <= (pos := int(slope * float(int(key) - anchor) + intercept)) <= top
                 else 0 if pos < 0 else top
                 for key in keys]
        n = len(slots)
        return slots, [0, *[i for i in range(1, n) if slots[i] != slots[i - 1]], n]

    def _node_model(self, keys: List[int],
                    num_slots: int) -> Tuple[LinearModel, List[int], List[int]]:
        """FMCD model for a node, with a min-max fallback when FMCD's
        clamped tails collapse most keys into one slot; with it, each
        key's slot and the runs of keys sharing one (:meth:`_slot_runs`),
        so that a node predicts each key once.

        Datasets mixing a dense run with far outliers (OSM-like) make
        FMCD's slot width tiny; every key outside the central span clamps
        to slot 0 or the last slot, so a conflict child would receive
        almost the whole key set and construction would never converge.
        The min-max model separates the extremes, so the span (and hence
        the group) shrinks strictly at each level.
        """
        fmcd = build_fmcd_model(keys, num_slots)
        model = fmcd.model
        slots, cuts = self._slot_runs(model, keys, num_slots)
        if (len(keys) >= 4 and not fmcd.fallback
                and max(map(sub, cuts[1:], cuts)) > len(keys) // 2):
            model = LinearModel.fit_min_max(keys[0], keys[-1], num_slots)
            slots, cuts = self._slot_runs(model, keys, num_slots)
        return model, slots, cuts

    def _build_node(self, items: List[KeyPayload]) -> int:
        """Build a node (and its conflict children) with FMCD.

        Children are built iteratively with an explicit work stack — the
        conflict chains on hard datasets can be deeper than the Python
        recursion limit.  A child's block number is patched into its
        parent's slot after the child is written.
        """
        root_block: Optional[int] = None
        # Work items: (items, parent block, parent slot); the root has no parent.
        stack: List[Tuple[List[KeyPayload], Optional[int], int]] = [(items, None, 0)]
        while stack:
            node_items, parent_block, parent_slot = stack.pop()
            n = len(node_items)
            num_slots = lipp_node_slots(max(n, 1), self.build_gap_count)
            if n:
                model, slots, cuts = self._node_model(
                    [key for key, _ in node_items], num_slots)
            else:
                model, slots, cuts = LinearModel(0.0, 0.0), [], [0]
            block = self._file.allocate(self._extent_blocks(num_slots))
            node = bytearray(HEADER_SIZE + num_slots * SLOT_SIZE)
            _NODE_HEADER.pack_into(node, 0, n, num_slots, model.slope, model.intercept,
                                   model.anchor, n, 0)  # build size n, no inserts yet
            # A key alone in its slot becomes a DATA slot; keys sharing
            # one become a child node built the same way.
            for lo, hi in zip(cuts, cuts[1:]):
                at = HEADER_SIZE + slots[lo] * SLOT_SIZE
                if hi - lo == 1:
                    _SLOT.pack_into(node, at, SLOT_DATA, *node_items[lo])
                else:
                    # Placeholder NODE slot; the child patches it when built.
                    _SLOT.pack_into(node, at, SLOT_NODE, 0, 0)
                    stack.append((node_items[lo:hi], block, slots[lo]))
            self.pager.write_bytes(self._file, block * self.pager.block_size, node)
            if parent_block is None:
                root_block = block
            else:
                self._write_slot(parent_block, parent_slot, SLOT_NODE, block, 0)
        assert root_block is not None
        return root_block

    # -- lookup -----------------------------------------------------------------------

    def _descend(self, key: int, path: Optional[list] = None
                 ) -> Tuple[int, int, int, int, int]:
        """Follow ``key`` from the root to the first slot it predicts that
        is not a child pointer: ``(block, slot, flag, slot key, payload)``.
        Two :meth:`Pager.view` requests per level, the header and the
        slot, decoded as tuples; ``path``, when given, collects each
        visited node's ``(block, header fields)``."""
        view, file, bs = self.pager.view, self._file, self.pager.block_size
        block = self.root_block
        while True:
            header = _NODE_HEADER.unpack_from(*view(file, block * bs, HEADER_SIZE))
            if path is not None:
                path.append((block, header))
            slot = _predict(*header[1:5], key)
            flag, slot_key, payload = _SLOT.unpack_from(*view(
                file, block * bs + HEADER_SIZE + slot * SLOT_SIZE, SLOT_SIZE))
            if flag != SLOT_NODE:
                return block, slot, flag, slot_key, payload
            block = slot_key  # NODE: the key field holds the child block

    def lookup(self, key: int) -> Optional[int]:
        with self.pager.phase("search"):
            return self._lookup_walk(key)

    def _lookup_walk(self, key: int) -> Optional[int]:
        _block, _slot, flag, slot_key, payload = self._descend(key)
        return payload if flag == SLOT_DATA and slot_key == key else None

    # -- insert -----------------------------------------------------------------------

    def _path_to(self, key: int) -> Tuple[List[Tuple[int, _NodeHeader]], tuple]:
        """:meth:`_descend` under the search phase, for a verb that
        rewrites the headers on the way: the visited nodes as ``(block,
        header)`` objects, root first, and where the descent stopped."""
        fields: List[Tuple[int, tuple]] = []
        with self.pager.phase("search"):
            stop = self._descend(key, fields)
        return [(block, _NodeHeader(*header)) for block, header in fields], stop

    def insert(self, key: int, payload: int) -> None:
        if self.root_block == NULL_BLOCK:
            raise RuntimeError("index not bulk-loaded")
        path, (block, slot, flag, slot_key, slot_payload) = self._path_to(key)
        if flag == SLOT_DATA and slot_key == key:
            raise KeyError(f"duplicate key {key}")
        if flag == SLOT_NULL:
            with self.pager.phase("insert"):
                self._write_slot(block, slot, SLOT_DATA, key, payload)
        else:
            # Conflict: build a child node holding both keys (SMO type 1).
            with self.pager.phase("smo"):
                self.num_conflict_nodes += 1
                pair = sorted([(slot_key, slot_payload), (key, payload)])
                child = self._build_node(pair)
                self._write_slot(block, slot, SLOT_NODE, child, 0)
        # Maintenance: bump statistics in every node along the path.
        with self.pager.phase("maintenance"):
            for node_block, node_header in path:
                node_header.item_count += 1
                node_header.num_inserts += 1
                self._write_header(node_block, node_header)
        # SMO type 2: rebuild the highest subtree that grew past its
        # rebuild threshold (skip index 0 checks below the root lazily).
        for depth, (node_block, node_header) in enumerate(path):
            if node_header.num_inserts >= max(1, int(node_header.build_size
                                                     * self.rebuild_factor)):
                with self.pager.phase("smo"):
                    self._rebuild_subtree(node_block, path[:depth])
                break

    def _rebuild_subtree(self, block: int, parent_path: List[Tuple[int, _NodeHeader]]) -> None:
        """Collect a subtree's items, rebuild it with FMCD, repoint the parent."""
        self.num_rebuilds += 1
        items = [(key, payload)
                 for slot, key, payload, _node in self._walk(block) if slot >= 0]
        self._free_subtree(block)
        new_block = self._build_node(items)
        if not parent_path:
            self.root_block = new_block
            return
        parent_block, parent_header = parent_path[-1]
        # The subtree hangs off exactly one NODE slot of the parent; its
        # slot is the prediction of any of its keys.
        slot = parent_header.predict(items[0][0])
        self._write_slot(parent_block, slot, SLOT_NODE, new_block, 0)

    def _free_subtree(self, block: int) -> None:
        """Free the subtree at ``block``, each node once the walk is past
        its last slot (children before their parent).  The walk's
        requests, the parent's block asked for again after each child
        subtree, are what freeing it is charged."""
        for slot, _walked, node_block, header in self._walk(block):
            if slot < 0:
                self._file.free(node_block, self._extent_blocks(header.num_slots))

    # -- update / delete ----------------------------------------------------------------

    def update(self, key: int, payload: int) -> bool:
        with self.pager.phase("search"):
            block, slot, flag, slot_key, _payload = self._descend(key)
        if flag != SLOT_DATA or slot_key != key:
            return False
        with self.pager.phase("insert"):
            self._write_slot(block, slot, SLOT_DATA, key, payload)
        return True

    def delete(self, key: int) -> bool:
        """Physical delete: LIPP's exact positions make it trivial — the
        DATA slot reverts to NULL and the path statistics are adjusted."""
        path, (block, slot, flag, slot_key, _payload) = self._path_to(key)
        if flag != SLOT_DATA or slot_key != key:
            return False
        with self.pager.phase("insert"):
            self._write_slot(block, slot, SLOT_NULL, 0, 0)
        with self.pager.phase("maintenance"):
            for node_block, node_header in path:
                node_header.item_count -= 1
                self._write_header(node_block, node_header)
        return True

    # -- scan -------------------------------------------------------------------------

    def scan(self, start_key: int, count: int) -> List[KeyPayload]:
        if count <= 0:
            return []
        with self.pager.phase("scan"):
            out: List[KeyPayload] = []
            for slot, key, payload, _node in self._walk(self.root_block, start_key):
                if slot >= 0:
                    out.append((key, payload))
                    if len(out) >= count:
                        break
            return out

    def _walk(self, root: int, start_key: int = 0
              ) -> Iterator[Tuple[int, int, int, _NodeHeader]]:
        """In-order walk of the subtree at ``root``, conflict children
        included, on an explicit stack.  Yields ``(slot, key, payload,
        node header)`` for each DATA slot whose key is >= ``start_key``
        and, once a node's last slot is behind it, ``(-depth, entries
        yielded from its subtree, its block, node header)``, the depth
        counted from ``root`` = 1.

        Monotonicity of the model guarantees keys >= start_key never live
        in slots before the predicted start slot.

        Each request is one :meth:`Pager.view`: the header, then each run
        of slots lying inside one block (a slot across two blocks is a
        run of its own, read as its 24-byte range).  After a child
        subtree the parent's next run is asked for again — the pager
        charges it, the child having displaced the parent's block — and
        nothing is read ahead of the slot needed, so every charge is
        that of one read per slot.
        """
        view, file, bs = self.pager.view, self._file, self.pager.block_size
        # (block, header, next slot, start key, entries yielded so far)
        # of each node above the one being walked
        stack: List[Tuple[int, _NodeHeader, int, int, int]] = []
        block = root
        while True:
            header = _NodeHeader.unpack(*view(file, block * bs, HEADER_SIZE))
            slot = first_slot = header.predict(start_key) if start_key else 0
            walked = 0
            while True:
                if slot >= header.num_slots:
                    yield -1 - len(stack), walked, block, header
                    if not stack:
                        return
                    block, header, slot, start_key, above = stack.pop()
                    walked += above
                    first_slot = -1
                    continue
                offset = block * bs + HEADER_SIZE + slot * SLOT_SIZE
                fit = max(min((bs - offset % bs) // SLOT_SIZE,
                              header.num_slots - slot), 1)
                data, at = view(file, offset, fit * SLOT_SIZE)
                child = NULL_BLOCK
                for slot, (flag, key, payload) in enumerate(_SLOT.iter_unpack(
                        memoryview(data)[at:at + fit * SLOT_SIZE]), slot):
                    if flag == SLOT_NULL:
                        continue
                    if flag == SLOT_DATA:
                        if key >= start_key:
                            walked += 1
                            yield slot, key, payload, header
                    else:
                        assert flag == SLOT_NODE, f"bad slot flag {flag}"
                        child = key
                        break
                slot += 1  # past the run's last slot, or past the child's
                if child != NULL_BLOCK:
                    stack.append((block, header, slot, start_key, walked))
                    if slot - 1 != first_slot:
                        start_key = 0
                    block = child
                    break

    # -- misc -------------------------------------------------------------------------

    def verify(self) -> int:
        """Check slot-flag sanity, model-placement exactness (every DATA
        key predicts to its own slot), per-node item counts, and that a
        point lookup of every stored key returns its payload."""
        with self._free_io():
            previous = -1
            walked = 0
            for slot, key, payload, node in self._walk(self.root_block):
                if slot < 0:
                    walked = key  # entries under ``node``; the root comes last
                    assert walked == node.item_count, (
                        f"node item_count {node.item_count} != walked {walked}")
                    continue
                assert node.predict(key) == slot, (
                    f"key {key} stored at slot {slot}, model predicts "
                    f"{node.predict(key)}")
                assert key > previous, "keys out of in-order sequence"
                previous = key
                assert self._lookup_walk(key) == payload, (
                    f"key {key} reads back wrong, stored {payload}")
            return walked

    def init_params(self) -> dict:
        return {"rebuild_factor": self.rebuild_factor,
                "build_gap_count": self.build_gap_count,
                "file_prefix": self._file_prefix}

    def to_meta(self) -> dict:
        return {"root_block": self.root_block,
                "num_conflict_nodes": self.num_conflict_nodes,
                "num_rebuilds": self.num_rebuilds}

    def restore_meta(self, meta: dict) -> None:
        self.root_block = meta["root_block"]
        self.num_conflict_nodes = meta["num_conflict_nodes"]
        self.num_rebuilds = meta["num_rebuilds"]

    def file_roles(self) -> dict:
        return {self._file.name: "leaf"}  # LIPP has a single node type

    def height(self) -> int:
        """Maximum root-to-slot depth.

        Reporting only: the full-tree walk is served without I/O charges
        so that calling it between measurements cannot skew experiments.
        """
        was_resident = self._file.memory_resident
        self._file.memory_resident = True
        try:
            return max(-slot for slot, _walked, _block, _node
                       in self._walk(self.root_block) if slot < 0)
        finally:
            self._file.memory_resident = was_resident
