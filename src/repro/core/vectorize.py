"""Batch helpers that keep the charged cost model intact.

* :func:`pack_uint_bits` / :func:`unpack_uint_bits` — the bit-packed
  column layout of the frame-of-reference codec.

* :class:`BlockMirror` — a per-batch local copy of block bytes fetched
  *through the pager*.  Re-reads of a block already fetched in the same
  ``pager.batch()`` scope are served locally instead of re-walking the
  pager.  Inside a batch scope every touched block is pinned, so the
  skipped pager calls are exactly the calls the pager would have served
  from its pin cache for free — same device operations, same order,
  same charges; only the Python per-probe overhead disappears.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "BlockMirror",
    "pack_uint_bits",
    "unpack_uint_bits",
]

_ONE = np.uint64(1)


def pack_uint_bits(values: np.ndarray, width: int) -> bytes:
    """Bit-pack uint64 ``values`` at ``width`` bits each, LSB-first.

    The frame-of-reference codec's column layout: value ``i`` occupies
    bits ``[i*width, (i+1)*width)`` of the output, each value stored
    least-significant-bit first, and the bit stream is laid into bytes
    with ``bitorder="little"`` so :func:`unpack_uint_bits` is a single
    ``np.unpackbits``/reshape/dot on the way back.  ``width == 0`` (all
    values equal zero) packs to zero bytes.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(values)
    if n == 0 or width == 0:
        return b""
    if width > 64:
        raise ValueError(f"bit width must be <= 64, got {width}")
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & _ONE).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_uint_bits(data, count: int, width: int, offset: int = 0) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits`: ``count`` uint64 values of
    ``width`` bits each, read from ``data`` starting at byte ``offset``."""
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width > 64:
        raise ValueError(f"bit width must be <= 64, got {width}")
    total_bits = count * width
    nbytes = (total_bits + 7) // 8
    raw = np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset)
    flat = np.unpackbits(raw, bitorder="little")[:total_bits]
    bits = flat.reshape(count, width).astype(np.uint64)
    weights = _ONE << np.arange(width, dtype=np.uint64)
    return (bits * weights[None, :]).sum(axis=1).astype(np.uint64)


class BlockMirror:
    """Local mirror of one file's blocks fetched through the pager.

    ``read(offset, length)`` behaves exactly like
    ``pager.read_bytes(file, offset, length)`` — single-block ranges go
    through ``read_block``, multi-block ranges through ``read_span``, so
    first touches charge identically — but every fetched block is kept
    locally and later reads covered by mirrored blocks skip the pager.
    Only valid inside a ``pager.batch()`` scope (the mirror's lifetime
    must not exceed the pin cache's, or a skipped re-read could differ
    from what the pager would have charged).
    """

    __slots__ = ("pager", "file", "blocks", "_bs")

    def __init__(self, pager, file, blocks: Dict[int, bytes] = None) -> None:
        self.pager = pager
        self.file = file
        self.blocks: Dict[int, bytes] = {} if blocks is None else dict(blocks)
        self._bs = pager.block_size

    def absorb(self, span: Dict[int, bytes]) -> None:
        """Mirror blocks already fetched elsewhere (e.g. a ``read_span``)."""
        self.blocks.update(span)

    def read(self, offset: int, length: int) -> bytes:
        bs = self._bs
        first = offset // bs
        last = (offset + length - 1) // bs
        blocks = self.blocks
        start = offset - first * bs
        if first == last:
            data = blocks.get(first)
            if data is None:
                data = self.pager.read_block(self.file, first)
                blocks[first] = data
            return data[start : start + length]
        missing = any(no not in blocks for no in range(first, last + 1))
        if missing:
            blocks.update(self.pager.read_span(self.file, range(first, last + 1)))
        blob = b"".join(blocks[no] for no in range(first, last + 1))
        return blob[start : start + length]
