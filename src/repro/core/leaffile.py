"""The one leaf page: dense, sorted, sibling-linked blocks of records.

The paper's P3 ("cheap next-item fetch") and its Section 6.1.2 hybrid
describe one leaf — the B+-tree's — under any inner structure.
:class:`LeafFile` owns that leaf's block format and nothing else; the
B+-tree's inner levels, PLID's learned directory and the hybrid's inner
index or fence zonemap route a key to a leaf block and hand it over.

Layout (little endian), one leaf per block::

    u16 count | u16 codec id | u32 next | u32 prev | u32 pad
    count records of 8 + data_size bytes, key first, sorted; then zeros

Under a compressed codec the records are one self-framing codec page
(data-dependent capacity, 2-4x the entries).  A leaf is never parsed
(DESIGN.md Section 15): it travels as its *image* — header plus sorted
record run: the block itself if raw, else the block transcoded once per
frame (:meth:`Pager.cached_meta`) — whose key column is bisected in place.

Which side of a split gets the new block is the one thing callers
differ on, hence a constructor argument: ``"right"`` and its first key
promoted for the B+-tree; ``"left"`` and its last key registered for
PLID, whose old directory entry (old max key -> old block) stays valid.
"""

from __future__ import annotations

import struct
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..storage import BlockFile, Pager
from .codecs import get_codec
from .serial import (ENTRY_SIZE, NULL_BLOCK, bisect_left, bisect_right, key_at,
                     keys_view, unpack_entries)

__all__ = ["LeafFile", "LeafSlot", "HEADER_SIZE"]

_HEADER = struct.Struct("<HHIII")  # count, codec id, next, prev, pad
HEADER_SIZE = _HEADER.size  # 16
_BLOCK_PTR = struct.Struct("<I")
_KEY = struct.Struct("<Q")
_NEXT_OFFSET, _PREV_OFFSET = 4, 8  # of the sibling links in the header


def _entries(run: bytes) -> np.ndarray:
    """A run of 16-byte records as the codecs take it: (n, 2) u64 pairs."""
    return np.frombuffer(run, dtype="<u8").reshape(-1, 2)


class LeafSlot(NamedTuple):
    """Where a key lives, or would, in a fetched leaf (:meth:`LeafFile.locate`)."""

    block: int
    next: int
    prev: int
    run: bytes   # the leaf's sorted records
    end: int     # offset in ``run`` just past the records with key <= the key
    hit: bool    # whether the last of those records holds the key


class LeafFile:
    """The leaves of one index: one block file of linked leaf pages.

    Args:
        pager, file: storage access path and the block file of the leaves.
        data_size: bytes of per-record data after the 8-byte key.
        fill: share of a leaf's record slots (codec: of its byte budget)
            that bulk loads and repacks fill, leaving headroom for inserts.
        codec: leaf-page codec; compressed codecs need 8-byte data.
        new_leaf_side: ``"right"`` or ``"left"`` (module docstring).
    """

    def __init__(self, pager: Pager, file: BlockFile, data_size: int = 8,
                 fill: float = 0.8, codec: str = "raw",
                 new_leaf_side: str = "right") -> None:
        if data_size <= 0:
            raise ValueError(f"data size must be positive, got {data_size}")
        if not 0.1 <= fill <= 1.0:
            raise ValueError("leaf fill factor must be in [0.1, 1.0]")
        if new_leaf_side not in ("left", "right"):
            raise ValueError(f"unknown new_leaf_side {new_leaf_side!r}")
        self.codec = get_codec(codec)
        if not self.codec.is_raw and data_size != 8:
            # The codecs compress (u64 key, u64 payload) pairs; records
            # with wider data (FITing segment descriptors) stay raw.
            raise ValueError(
                f"codec {self.codec.name!r} requires 8-byte record data, "
                f"got {data_size}")
        self.pager = pager
        self.file = file
        self.data_size = data_size
        self.record_size = 8 + data_size
        self._record = struct.Struct(f"<Q{data_size}s")  # key, data
        self.fill = fill
        self.new_leaf_right = new_leaf_side == "right"
        #: records per leaf in the raw layout
        self.capacity = (pager.block_size - HEADER_SIZE) // self.record_size
        if self.capacity < 2:
            raise ValueError(f"block size {pager.block_size} too small for "
                             f"record size {self.record_size}")

    def _page(self, run: bytes, next_: int, prev: int) -> bytes:
        header = _HEADER.pack(len(run) // self.record_size,
                              self.codec.codec_id, next_, prev, 0)
        if not self.codec.is_raw:
            run = self.codec.encode(_entries(run))
        tail = self.pager.block_size - HEADER_SIZE - len(run)
        if tail < 0:
            raise ValueError("leaf overflows its block")
        return b"".join((header, run, bytes(tail)))

    def fits(self, run: bytes) -> bool:
        """Whether a record run fits one leaf: by record count in the raw
        layout, by encoded size (data-dependent) under a codec."""
        count = len(run) // self.record_size
        if self.codec.is_raw:
            return count <= self.capacity
        if count > self.codec.max_entries(self.pager.block_size):
            return False
        return (self.codec.encoded_size(_entries(run))
                <= self.pager.block_size - HEADER_SIZE)

    def _cuts(self, run: bytes) -> List[int]:
        """Cut ``run`` into leaves filled to ``fill`` (raw: by record
        count; compressed: greedily against the byte budget): the record
        index each leaf starts at, and the total.  No records: one leaf."""
        count = len(run) // self.record_size
        if not count:
            return [0, 0]
        if self.codec.is_raw:
            per_leaf = max(1, int(self.capacity * self.fill))
            return list(range(0, count, per_leaf)) + [count]
        budget = max(64, int((self.pager.block_size - HEADER_SIZE) * self.fill))
        entries = _entries(run)
        cuts = [0]
        while cuts[-1] < count:
            cuts.append(cuts[-1] + self.codec.pack_greedy(entries, cuts[-1], budget))
        return cuts

    def _pages(self, run: bytes, cuts: List[int], blocks: Sequence[int],
               prev: int, next_: int) -> List[Tuple[int, bytes]]:
        """``(block, page)`` per cut of ``run``, the blocks chained in
        order between ``prev`` and ``next_``."""
        rs = self.record_size
        chain = [prev, *blocks, next_]
        return [(no, self._page(run[cuts[i] * rs : cuts[i + 1] * rs],
                                chain[i + 2], chain[i]))
                for i, no in enumerate(blocks)]

    def bulk_write(self, run: bytes) -> List[Tuple[int, int, int]]:
        """Write a sorted record run as a fresh chain of leaves in one
        coalesced pager call (contiguous new blocks: one positioning).
        Returns ``(first key, last key, block)`` per leaf in key order —
        keys 0 for the one empty leaf of an empty run."""
        rs = self.record_size
        cuts = self._cuts(run)
        first = self.file.allocate(len(cuts) - 1)
        blocks = range(first, first + len(cuts) - 1)
        self.pager.write_blocks(
            self.file, self._pages(run, cuts, blocks, NULL_BLOCK, NULL_BLOCK))
        if not run:
            return [(0, 0, first)]
        return [(key_at(run, lo, 0, rs), key_at(run, hi - 1, 0, rs), no)
                for lo, hi, no in zip(cuts, cuts[1:], blocks)]

    def _transcode(self, block: bytes) -> bytes:
        """Raw-layout image of a compressed leaf block."""
        keys, payloads = self.codec.decode_arrays(block, HEADER_SIZE)
        records = np.empty((len(keys), 2), dtype="<u8")
        records[:, 0] = keys
        records[:, 1] = payloads
        return block[:HEADER_SIZE] + records.tobytes()

    def read(self, block_no: int) -> bytes:
        """The image of one leaf."""
        block = self.pager.read_block(self.file, block_no)
        if self.codec.is_raw:
            return block
        return self.pager.cached_meta(self.file, block_no, block, self._transcode)

    def read_many(self, block_nos: Iterable[int]) -> Dict[int, bytes]:
        """Images of a set of leaves, fetched in one coalesced span."""
        span = self.pager.read_span(self.file, block_nos)
        if self.codec.is_raw:
            return span
        return {no: self.pager.cached_meta(self.file, no, block, self._transcode)
                for no, block in span.items()}

    def get(self, image: bytes, key: int) -> Optional[bytes]:
        """The data of ``key``'s record in a leaf image, or None."""
        rs = self.record_size
        end = HEADER_SIZE + rs * bisect_right(
            image, key, _HEADER.unpack_from(image)[0], HEADER_SIZE, rs)
        if end > HEADER_SIZE and _KEY.unpack_from(image, end - rs)[0] == key:
            return image[end - self.data_size : end]
        return None

    def payload(self, image: bytes, key: int) -> Optional[int]:
        """:meth:`get` for 8-byte data: the u64 payload, or None."""
        data = self.get(image, key)
        return _KEY.unpack(data)[0] if data is not None else None

    def floor(self, images: Dict[int, bytes], block: int,
              key: int) -> Optional[Tuple[int, bytes]]:
        """Rightmost record with key <= ``key``, searching from leaf
        ``block``; ``images`` caches the leaves fetched so far."""
        rs = self.record_size
        image = images.get(block) or images.setdefault(block, self.read(block))
        count, _codec, _next, prev, _pad = _HEADER.unpack_from(image)
        upto = bisect_right(image, key, count, HEADER_SIZE, rs)
        if not upto:
            # ``key`` is before this leaf's first record: the answer is
            # the last record of the previous leaf (fetched on demand —
            # an edge of the key space), unless either leaf is empty.
            if not count or prev == NULL_BLOCK:
                return None
            image = images.get(prev) or images.setdefault(prev, self.read(prev))
            upto = _HEADER.unpack_from(image)[0]
            if not upto:
                return None
        end = HEADER_SIZE + upto * rs
        return (_KEY.unpack_from(image, end - rs)[0],
                image[end - self.data_size : end])

    def _runs_from(self, block: int, key: int) -> Iterator[Tuple[bytes, int, int]]:
        """Walk the chain from leaf ``block``: per leaf, its image and
        the byte range of its records with key >= ``key``; the next leaf
        is fetched only when the consumer asks for more."""
        rs = self.record_size
        image = self.read(block)
        count, _codec, next_, _prev, _pad = _HEADER.unpack_from(image)
        start = HEADER_SIZE + rs * bisect_left(image, key, count, HEADER_SIZE, rs)
        while True:
            yield image, start, HEADER_SIZE + count * rs
            if next_ == NULL_BLOCK:
                return
            image = self.read(next_)
            count, _codec, next_, _prev, _pad = _HEADER.unpack_from(image)
            start = HEADER_SIZE

    def iterate_from(self, block: int, key: int) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(key, data)`` of the records with key >= ``key`` in
        key order, from leaf ``block`` on along the sibling links."""
        for image, start, end in self._runs_from(block, key):
            yield from self._record.iter_unpack(memoryview(image)[start:end])

    def scan(self, block: int, key: int, limit: int) -> List[Tuple[int, int]]:
        """:meth:`iterate_from` for 8-byte data: up to ``limit`` (key,
        u64 payload) entries, a leaf's worth per unpack."""
        out: List[Tuple[int, int]] = []
        for image, start, end in self._runs_from(block, key):
            out += unpack_entries(image, min((end - start) // ENTRY_SIZE,
                                             limit - len(out)), start)
            if len(out) >= limit:
                break
        return out

    def locate(self, block: int, key: int) -> LeafSlot:
        """Fetch leaf ``block`` for a write of ``key``."""
        image = self.read(block)
        rs = self.record_size
        count, _codec, next_, prev, _pad = _HEADER.unpack_from(image)
        end = rs * bisect_right(image, key, count, HEADER_SIZE, rs)
        hit = end > 0 and _KEY.unpack_from(image, HEADER_SIZE + end - rs)[0] == key
        return LeafSlot(block, next_, prev,
                        image[HEADER_SIZE : HEADER_SIZE + count * rs], end, hit)

    def store(self, slot: LeafSlot, record: bytes) -> List[Tuple[int, int]]:
        """Splice ``record`` into the located leaf and write it back.

        On a hit ``record`` replaces the key's record (empty: removes
        it); on a miss it is inserted in order.  A run that no longer
        fits splits the leaf.  Raw: at the midpoint, the new leaf written
        before the old one is overwritten.  Under a codec one mutated
        payload can widen a whole column — even an update or a delete
        can overflow, and two halves need not fit — so the run is
        repacked greedily into as many leaves as it needs, written in
        key order.  The far neighbour's link is patched last.  Returns
        ``(boundary key, block)`` per new leaf, in key order, for the
        caller's directory: a right-hand new leaf's first key, a
        left-hand one's last key.
        """
        block, next_, prev, run, end, hit = slot
        rs = self.record_size
        if record and len(record) != rs:
            # Spliced in as is: a wrong size would shift the rest of the page.
            raise ValueError(f"record must be {rs} bytes, got {len(record)}")
        run = b"".join((run[: end - rs * hit], record, run[end:]))
        if self.fits(run):
            self.pager.write_block(self.file, block, self._page(run, next_, prev))
            return []
        raw = self.codec.is_raw
        count = len(run) // rs
        cuts = [0, count // 2, count] if raw else self._cuts(run)
        fresh = [self.file.allocate(1) for _ in cuts[2:]]
        right = self.new_leaf_right
        blocks = [block] + fresh if right else fresh + [block]
        pages = self._pages(run, cuts, blocks, prev, next_)
        if raw and right:
            pages.reverse()  # the new leaf first
        for no, page in pages:
            self.pager.write_block(self.file, no, page)
        if right:
            self._relink(next_, _PREV_OFFSET, blocks[-1])
        else:
            self._relink(prev, _NEXT_OFFSET, blocks[0])
        # a right-hand new leaf starts at its cut, a left-hand one ends before it
        return [(key_at(run, cut - (not right), 0, rs), no)
                for cut, no in zip(cuts[1:], fresh)]

    def _relink(self, block: int, offset: int, target: int) -> None:
        """Point a sibling link of leaf ``block`` at ``target``: a
        four-byte patch of the stored block, whatever its codec."""
        if block == NULL_BLOCK:
            return
        page = self.pager.read_block(self.file, block)
        self.pager.write_block(
            self.file, block,
            page[:offset] + _BLOCK_PTR.pack(target) + page[offset + 4 :])

    def walk(self, first: int,
             route: Callable[[int], int]) -> Iterator[Tuple[int, List[int]]]:
        """``verify()``'s chain walk from the leftmost leaf ``first``:
        yields ``(block, keys)`` per leaf after asserting the codec
        stamp, the prev link, that the count matches the page, that keys
        ascend strictly within and across leaves, and that the caller's
        ``route`` leads every key of the leaf back to it."""
        rs = self.record_size
        previous_block, previous_key, walked = NULL_BLOCK, -1, 0
        block = first
        while block != NULL_BLOCK:
            assert walked < self.file.num_blocks, "leaf chain cycles"
            image = self.read(block)
            count, codec_id, next_, prev, _pad = _HEADER.unpack_from(image)
            assert codec_id == self.codec.codec_id, (
                f"leaf {block} stamped codec {codec_id}")
            assert prev == previous_block, "broken prev link"
            extent = HEADER_SIZE + count * rs
            # a compressed image is exactly what its codec page decoded to
            assert (extent <= len(image) if self.codec.is_raw
                    else extent == len(image)), "leaf count does not match its page"
            keys = keys_view(image, count, HEADER_SIZE, rs).tolist()
            for key in keys:
                assert key > previous_key, "leaf keys out of order"
                previous_key = key
                assert route(key) == block, (
                    f"key {key} of leaf {block} routes elsewhere")
            yield block, keys
            previous_block, block, walked = block, next_, walked + 1
