"""The column kernels of the compressed page codecs (:mod:`~.codecs`).

Each is one pass of numpy array operations over a whole column, none a
loop over its values: :func:`pack_uint_bits` / :func:`unpack_uint_bits`
for the frame-of-reference codec's fixed-width bit fields (a field is
read by gathering the eight bytes it starts in as one word, shifting and
masking), :func:`pack_varints` / :func:`unpack_varints` for the delta
codec's LEB128 columns (a varint is the OR of its bytes' seven low bits,
each shifted by its position), and :func:`bit_lengths` /
:func:`varint_lengths`, from which pages are sized without encoding.
The decoders read exactly the bytes of their column and raise
``ValueError`` when it is not all there.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_lengths",
    "pack_uint_bits",
    "pack_varints",
    "unpack_uint_bits",
    "unpack_varints",
    "varint_lengths",
]

_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)

_LOW7 = np.uint8(0x7F)
#: 2**0 .. 2**63: a value's bit length is how many of these it reaches.
_POWERS_OF_TWO = np.uint64(1) << np.arange(64, dtype=np.uint64)
#: 2**7, 2**14 .. 2**63: each one a value reaches costs one more LEB128 byte.
_VARINT_STEPS = _POWERS_OF_TWO[7::7]
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)
#: Where lane ``j`` of a row of eight ``width``-bit values starts, as
#: ``[width, j]``: the byte of the row, and the bit of that byte.
_LANE_BYTE, _LANE_SHIFT = np.divmod(np.arange(65)[:, None] * np.arange(8), 8)
_LANE_SHIFT = _LANE_SHIFT.astype(np.uint64)


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every uint64 in ``values`` (exact: a
    comparison against the powers of two, no float logarithm)."""
    return np.searchsorted(_POWERS_OF_TWO, values, side="right")


def pack_uint_bits(values: np.ndarray, width: int) -> bytes:
    """Bit-pack uint64 ``values`` at ``width`` bits each, LSB-first.

    The frame-of-reference codec's column layout: value ``i`` occupies
    bits ``[i*width, (i+1)*width)`` of the output, least-significant bit
    first, bit ``b`` of the stream being bit ``b % 8`` of byte ``b // 8``.
    Eight consecutive values fill exactly ``width`` bytes, so the column
    is a table of such rows, each a little-endian integer of up to eight
    64-bit words, and value ``i`` sits at the same bit of its row as
    every other value of lane ``i % 8``: each lane is shifted into its
    word (and what the shift pushes out, into the next) for all rows at
    once — eight steps whatever the count.  ``width == 0`` (all values
    zero) packs to zero bytes; bits of a value above ``width`` are dropped.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(values)
    if n == 0 or width == 0:
        return b""
    if width > 64:
        raise ValueError(f"bit width must be <= 64, got {width}")
    rows = (n + 7) // 8
    lanes = np.zeros((rows, 8), dtype=np.uint64)
    lanes.reshape(-1)[:n] = values
    if width < 64:
        lanes &= np.uint64((1 << width) - 1)
    words = np.zeros((rows, (width + 7) // 8), dtype=np.uint64)
    for lane in range(8):
        word, shift = divmod(lane * width, 64)
        column = lanes[:, lane]
        words[:, word] |= column << np.uint64(shift)
        if shift + width > 64:
            words[:, word + 1] |= column >> np.uint64(64 - shift)
    return (words.astype("<u8", copy=False).view(np.uint8)[:, :width]
            .tobytes()[: (n * width + 7) // 8])


def unpack_uint_bits(data, count: int, width: int, offset: int = 0) -> np.ndarray:
    """Inverse of :func:`pack_uint_bits`: ``count`` uint64 values of
    ``width`` bits each, read from ``data`` starting at byte ``offset``.

    Value ``i`` starts at bit ``i*width``: the eight bytes from byte
    ``i*width // 8`` are gathered as one little-endian word, shifted
    down by ``i*width % 8`` and masked; a value wider than 57 bits can
    reach into a ninth byte, which supplies the bits the shift vacated.
    The column is addressed as in :func:`pack_uint_bits`, rows of eight
    values in ``width`` bytes: a lane starts at the same byte and bit of
    every row (:data:`_LANE_BYTE`, :data:`_LANE_SHIFT`), so one strided
    view of the column holds the word at every byte of every row and the
    gather is eight of its columns.  Exactly the column's
    ``ceil(count*width / 8)`` bytes are read (a shorter ``data`` raises
    ``ValueError``), whatever follows them.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width > 64:
        raise ValueError(f"bit width must be <= 64, got {width}")
    nbytes = (count * width + 7) // 8
    rows = (count + 7) // 8
    # zeros under the words of a last, partial row
    column = np.zeros(rows * width + 8, dtype=np.uint8)
    column[:nbytes] = np.frombuffer(data, dtype=np.uint8, count=nbytes,
                                    offset=offset)
    lane_byte, lane_shift = _LANE_BYTE[width], _LANE_SHIFT[width]
    words = np.ndarray((rows, width), "<u8", column, 0, (width, 1))
    values = words[:, lane_byte].astype(np.uint64, copy=False) >> lane_shift
    if width > 57:
        ninth = np.ndarray((rows, width), np.uint8, column, 8, (width, 1))
        # ``x << (64 - shift)`` in two steps: a shift of 0 must add nothing.
        values |= (ninth[:, lane_byte].astype(np.uint64)
                   << (_SIXTY_THREE - lane_shift)) << _ONE
    if width < 64:
        values &= np.uint64((1 << width) - 1)
    return values.reshape(-1)[:count]


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Bytes each uint64 of ``values`` takes as an LEB128 varint (1-10)."""
    return np.searchsorted(_VARINT_STEPS, values, side="right") + 1


def _group_shifts(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """For back-to-back varints of ``lengths`` bytes beginning at byte
    offsets ``starts``, the shift of every byte's seven-bit group: byte
    ``j`` of a varint holds bits ``[7j, 7j + 7)`` of its value."""
    total = starts[-1] + lengths[-1]
    return (7 * (np.arange(total) - np.repeat(starts, lengths))).astype(np.uint64)


def pack_varints(values: np.ndarray) -> bytes:
    """``values`` (uint64) as back-to-back LEB128 varints: seven bits a
    byte, least-significant group first, the high bit set on every byte
    of a value but its last."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if not len(values):
        return b""
    lengths = varint_lengths(values)
    ends = np.cumsum(lengths)
    out = ((np.repeat(values, lengths) >> _group_shifts(ends - lengths, lengths))
           .astype(np.uint8) | ~_LOW7)
    out[ends - 1] &= _LOW7
    return out.tobytes()


def unpack_varints(data, count: int, start: int, stop: int) -> np.ndarray:
    """``count`` LEB128 varints decoded from ``data[start:stop]`` as
    uint64 (values past 64 bits keep their low 64).

    The varints end at the first ``count`` bytes with a clear high bit;
    every byte contributes its low seven bits shifted by seven times its
    position in its varint, and each varint is the OR of its bytes.
    Raises ``ValueError`` when ``[start, stop)`` is not inside ``data``,
    holds fewer than ``count`` complete varints, or one runs past ten
    bytes — so a truncated or misframed column is never read as its
    neighbour or as padding.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    if not 0 <= start <= stop <= len(data):
        raise ValueError(
            f"varint column [{start}, {stop}) outside a {len(data)}-byte page")
    window = np.frombuffer(data, dtype=np.uint8, offset=start, count=min(
        stop - start, count * _MAX_VARINT_BYTES))
    ends = np.flatnonzero(window <= _LOW7)[:count] + 1
    if len(ends) < count:
        raise ValueError(
            f"varint column holds {len(ends)} of {count} values in "
            f"[{start}, {stop})")
    starts = np.empty(count, dtype=np.intp)
    starts[0] = 0
    starts[1:] = ends[:-1]
    lengths = ends - starts
    if lengths.max() > _MAX_VARINT_BYTES:
        raise ValueError("varint longer than ten bytes")
    groups = ((window[: ends[-1]] & _LOW7).astype(np.uint64)
              << _group_shifts(starts, lengths))
    return np.bitwise_or.reduceat(groups, starts)
