"""LeCo-style compressed fence array: the zonemap inner level.

The raw hybrid index routes through a full learned inner index over one
fence key per leaf, and the raw PGM descends compressed-free PLA
descriptor levels.  When leaves are codec-compressed, the fence set is
small enough that the structure *of the fences themselves* dominates
inner-level I/O — the finding of the SIGMOD 2024 follow-up ("Making
In-Memory Learned Indexes Efficient on Disk": LeCo-Zonemap-Disk in
SNIPPETS.md).  So under a compressed codec both the hybrid and the PGM
replace their inner level with this zonemap: the sorted fence keys are
delta-compressed into ``KIND_KEYS`` codec pages, one page per block, and
routing is

1. an in-memory bisect over the per-page maxima (``page_lasts`` — a few
   hundred ints, the meta-block convention that already holds the PGM
   root and every index's ``to_meta``), then
2. exactly one charged block read + an in-page ``searchsorted``.

Fence ``i``'s value is implicit: its ordinal.  Both users map ordinals
linearly (hybrid: leaf block = base + ordinal; PGM: data page ordinal),
so fence pages store bare keys — 5-7 bits per fence under ``FoRCodec``
against the raw layouts' 12-24 bytes per entry.

A fence page is decoded once per frame (:meth:`Pager.cached_meta`) and
searched with ``np.searchsorted``; :meth:`route_many` issues one
coalesced ``read_span`` over the distinct fence pages of the batch.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.codecs import get_codec

__all__ = ["FenceZonemap"]


class FenceZonemap:
    """Compressed sorted fence keys with implicit ordinal values.

    ``route(key)`` returns the ordinal of the first fence ``>= key`` (a
    ceiling search), or ``None`` when the key exceeds every fence —
    mirroring how the hybrid's inner index routes a lookup to the one
    leaf whose max key bounds it.
    """

    def __init__(self, pager, file, codec, base_block: int,
                 page_lasts: List[int], page_starts: List[int],
                 count: int) -> None:
        self.pager = pager
        self.file = file
        self.codec = get_codec(codec)
        self.base_block = base_block
        #: Max fence key of each page — the in-memory routing boundary.
        self.page_lasts = page_lasts
        #: Cumulative fence count before each page (len == num pages).
        self.page_starts = page_starts
        self.count = count

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, pager, file, fences: Sequence[int], codec) -> "FenceZonemap":
        """Pack sorted ``fences`` into codec key pages, one per block."""
        codec = get_codec(codec)
        fences = list(fences)
        keys = np.array(fences, dtype=np.uint64)
        pages: List[bytes] = []
        page_lasts: List[int] = []
        page_starts: List[int] = []
        pos = 0
        while pos < len(fences):
            take = codec.pack_keys_greedy(keys, pos, pager.block_size)
            page_starts.append(pos)
            page_lasts.append(fences[pos + take - 1])
            pages.append(codec.encode_keys(keys[pos : pos + take]))
            pos += take
        base = file.allocate(len(pages)) if pages else 0
        bs = pager.block_size
        pager.write_blocks(file, [
            (base + i, page + b"\x00" * (bs - len(page)))
            for i, page in enumerate(pages)])
        return cls(pager, file, codec, base, page_lasts, page_starts, len(fences))

    # -- routing -------------------------------------------------------------

    def _page_keys(self, page: int, raw: bytes) -> np.ndarray:
        return self.pager.cached_meta(
            self.file, self.base_block + page, raw,
            lambda data: self.codec.decode_keys(data))

    def route(self, key: int) -> Optional[int]:
        """Ordinal of the first fence >= ``key`` (one charged read)."""
        page = bisect_left(self.page_lasts, key)
        if page >= len(self.page_lasts):
            return None
        raw = self.pager.read_block(self.file, self.base_block + page)
        return self.page_starts[page] + int(np.searchsorted(
            self._page_keys(page, raw), np.uint64(key), side="left"))

    def route_many(self, keys: Sequence[int]) -> Dict[int, Optional[int]]:
        """Batched :meth:`route` with one coalesced fence-page span."""
        out: Dict[int, Optional[int]] = {}
        by_page: Dict[int, List[int]] = {}
        for key in keys:
            page = bisect_left(self.page_lasts, key)
            if page >= len(self.page_lasts):
                out[key] = None
            else:
                by_page.setdefault(page, []).append(key)
        if not by_page:
            return out
        span = self.pager.read_span(
            self.file, [self.base_block + page for page in by_page])
        for page, group in by_page.items():
            raw = span[self.base_block + page]
            start = self.page_starts[page]
            slots = np.searchsorted(
                self._page_keys(page, raw), np.array(group, dtype=np.uint64),
                side="left")
            for key, slot in zip(group, slots.tolist()):
                out[key] = start + slot
        return out

    # -- integrity / persistence --------------------------------------------

    def verify(self) -> int:
        """Decode every fence page; check strict global sort order and
        that the in-memory boundaries match the stored pages."""
        previous = -1
        total = 0
        for page in range(len(self.page_lasts)):
            raw = self.pager.read_block(self.file, self.base_block + page)
            fence_keys = self.codec.decode_keys(raw).tolist()
            assert fence_keys, "empty zonemap page"
            assert self.page_starts[page] == total, "page start drift"
            for fence in fence_keys:
                assert fence > previous, "zonemap fences out of order"
                previous = fence
            assert fence_keys[-1] == self.page_lasts[page], (
                "page max does not match in-memory boundary")
            total += len(fence_keys)
        assert total == self.count, (
            f"fence count mismatch: walked {total}, meta {self.count}")
        return total

    @property
    def num_blocks(self) -> int:
        return len(self.page_lasts)

    def to_meta(self) -> dict:
        return {"base_block": self.base_block,
                "page_lasts": list(self.page_lasts),
                "page_starts": list(self.page_starts),
                "count": self.count}

    @classmethod
    def attach(cls, pager, file, codec, meta: dict) -> "FenceZonemap":
        return cls(pager, file, codec, meta["base_block"],
                   list(meta["page_lasts"]), list(meta["page_starts"]),
                   meta["count"])
