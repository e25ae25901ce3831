"""Pluggable leaf-page codecs: raw, delta+varint, frame-of-reference.

PRs 3-8 cut positionings, write amplification and interpreter time, but
every index still paid the same blocks-per-op floor: a leaf stores fixed
16-byte ``(key, payload)`` slots, so each fetched block yields exactly
``block_size // 16`` entries.  The SIGMOD 2024 follow-up ("Making
In-Memory Learned Indexes Efficient on Disk") shows compression is the
biggest remaining lever for disk-resident learned indexes; this module
is that lever (DESIGN.md Section 16).

Three codecs, selected per index via the ``codec`` init parameter:

* :class:`RawCodec` (``"raw"``, id 0) — the pre-existing headerless
  16-byte-slot layout, byte-identical to PRs 1-8 so its charged
  ``StorageStats`` are bit-identical by construction (the indexes branch
  straight into their legacy code path when ``codec.is_raw``).
* :class:`DeltaVarintCodec` (``"delta"``, id 1) — keys as LEB128
  varint-coded deltas over the sorted order, payloads as a split column
  of zigzag-varint residuals against their own key (the paper's datasets
  use ``payload = key + 1``, which encodes to one byte).
* :class:`FoRCodec` (``"for"``, id 2) — frame-of-reference: per-page
  fixed bit widths for key deltas and zigzag payload residuals.

Both compressed codecs store a delta to the previous key, so a page is
decoded a column at a time and never an entry at a time: the kernels in
:mod:`~.vectorize` turn a whole bit-packed or varint column into a
uint64 array (and back), a running sum rebuilds the keys, and the
decoded key column feeds ``np.searchsorted`` exactly like a
``keys_view``.  Sizing works the same way — bit lengths, running-max
widths and cumulative page sizes over the column, not a loop over its
entries — and entries arrive as an ``(n, 2)`` uint64 array, which a run
of 16-byte records is under ``np.frombuffer``.  What the kernels must
produce is stated one value at a time in ``tests/codec_reference.py``.

Compressed pages are self-framing.  Every page opens with an 8-byte
header ``<BBHI`` = (codec id, page kind, entry count, payload column
offset), so WAL redo, checksum repair and ``save_index`` round-trip the
bytes without out-of-band layout knowledge, and a mismatched codec id is
detected at decode time.  Two page kinds exist: ``KIND_ENTRIES`` pages
carry (key, payload) pairs (index leaves); ``KIND_KEYS`` pages carry a
bare sorted key column (the :class:`~repro.models.zonemap.FenceZonemap`
fence pages, ``payload_off == 0``).

Capacity under compression is data-dependent: callers size pages with
:meth:`LeafCodec.pack_greedy` (how many of these entries fit a budget)
and :meth:`LeafCodec.encoded_size` (would this page still fit) instead
of the raw layout's ``entries_per_block`` constant.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .serial import ENTRY_SIZE, pack_entries, pack_u64s
from .vectorize import (bit_lengths, pack_uint_bits, pack_varints,
                        unpack_uint_bits, unpack_varints, varint_lengths)

__all__ = [
    "CODEC_NAMES",
    "DeltaVarintCodec",
    "FoRCodec",
    "KIND_ENTRIES",
    "KIND_KEYS",
    "LeafCodec",
    "PAGE_HEADER_SIZE",
    "RawCodec",
    "codec_id_of",
    "get_codec",
]

_PAGE_HEADER = struct.Struct("<BBHI")  # codec id, kind, count, payload offset
PAGE_HEADER_SIZE = _PAGE_HEADER.size  # 8
KIND_ENTRIES = 0
KIND_KEYS = 1

#: A page's entry count is a u16 in the header.
_MAX_PAGE_COUNT = 0xFFFF

_U64 = struct.Struct("<Q")
_EMPTY = np.empty(0, dtype=np.uint64)

#: What an entries page is made from: ``(key, payload)`` pairs, or the
#: same as an ``(n, 2)`` uint64 array — a record run under ``np.frombuffer``.
Entries = Union[Sequence[Tuple[int, int]], np.ndarray]

_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)


def _as_entries(items: Entries) -> np.ndarray:
    """``items`` as an ``(n, 2)`` uint64 array (no copy of an array)."""
    return np.asarray(items, dtype=np.uint64).reshape(-1, 2)


def _page_count(column: np.ndarray) -> int:
    """``len(column)``, which a page's header must be able to hold."""
    if len(column) > _MAX_PAGE_COUNT:
        raise ValueError(f"page overflow: {len(column)} entries")
    return len(column)


def _zigzag_arr(keys: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Zigzag-encoded 64-bit residuals ``payload - key`` (mod 2^64)."""
    diff = payloads - keys  # uint64 arithmetic wraps mod 2^64
    return (diff << _ONE) ^ -(diff >> _SIXTY_THREE)  # -1 is all ones


def _unzigzag_arr(keys: np.ndarray, z: np.ndarray) -> np.ndarray:
    return keys + ((z >> _ONE) ^ -(z & _ONE))


def _keys_from_deltas(first_key: int, deltas: np.ndarray) -> np.ndarray:
    """The key column: the running sum (mod 2^64) of ``first_key`` and
    then ``deltas``."""
    keys = np.empty(len(deltas) + 1, dtype=np.uint64)
    keys[0] = first_key
    keys[1:] = deltas
    return np.cumsum(keys, out=keys)


def _greedy_take(sizes_of: Callable[[int], np.ndarray], limit: int,
                 budget: int) -> int:
    """How many of ``limit`` entries fit a page of ``budget`` bytes, at
    least one.  ``sizes_of(n)[k - 1]`` is the encoded size of the first
    ``k <= n`` entries; the window doubles until one overflows, so a
    page costs its own entries' worth of work, not the whole run's."""
    window = min(limit, max(16, budget // 4))  # first guess: 4 bytes an entry
    while True:
        over = np.flatnonzero(sizes_of(window) > budget)
        if len(over):
            return max(1, int(over[0]))
        if window >= limit:
            return limit
        window = min(limit, 2 * window)


class LeafCodec:
    """Shared interface of the leaf-page codecs.

    ``encode``/``decode_arrays`` handle ``KIND_ENTRIES`` pages;
    ``encode_keys``/``decode_keys`` handle ``KIND_KEYS`` fence pages.
    Entries go in as ``(key, payload)`` pairs or as an ``(n, 2)`` uint64
    array (a record run under ``np.frombuffer``) and come out as a key
    and a payload column; every codec works on whole columns, so there
    is one path each way and nothing is parsed entry by entry.
    """

    name: str = ""
    codec_id: int = -1
    is_raw: bool = False

    # -- entries pages ------------------------------------------------------

    def encode(self, items: Entries) -> bytes:
        raise NotImplementedError

    def decode_arrays(self, data, offset: int = 0,
                      count: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _entry_sizes(self, entries: np.ndarray) -> np.ndarray:
        """``sizes[k - 1]``: bytes :meth:`encode` makes of the first
        ``k`` of ``entries`` (at least one)."""
        raise NotImplementedError

    def encoded_size(self, items: Entries) -> int:
        """Bytes :meth:`encode` would produce (without encoding)."""
        entries = _as_entries(items)
        if not len(entries):
            return PAGE_HEADER_SIZE
        return int(self._entry_sizes(entries)[-1])

    def pack_greedy(self, items: Entries, start: int, budget: int) -> int:
        """How many of ``items[start:]`` fit an encoded page of at most
        ``budget`` bytes (always at least 1 so packing makes progress)."""
        return _greedy_take(
            lambda n: self._entry_sizes(_as_entries(items[start : start + n])),
            min(len(items) - start, _MAX_PAGE_COUNT), budget)

    # -- keys-only (fence/zonemap) pages ------------------------------------

    def encode_keys(self, keys: Sequence[int]) -> bytes:
        raise NotImplementedError

    def decode_keys(self, data, offset: int = 0, count: int = -1) -> np.ndarray:
        raise NotImplementedError

    def _key_sizes(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_entry_sizes` of a keys-only page."""
        raise NotImplementedError

    def pack_keys_greedy(self, keys: Sequence[int], start: int,
                         budget: int) -> int:
        return _greedy_take(
            lambda n: self._key_sizes(
                np.asarray(keys[start : start + n], dtype=np.uint64)),
            min(len(keys) - start, _MAX_PAGE_COUNT), budget)

    # -- shared helpers ------------------------------------------------------

    def page_count(self, data, offset: int = 0) -> int:
        """Entry count of a framed page (not available for raw pages)."""
        codec_id, _kind, count, _poff = _PAGE_HEADER.unpack_from(data, offset)
        if codec_id != self.codec_id:
            raise ValueError(
                f"page stamped codec id {codec_id}, decoder is {self.codec_id}")
        return count

    def _header(self, kind: int, count: int, payload_off: int = 0) -> bytes:
        return _PAGE_HEADER.pack(self.codec_id, kind, count, payload_off)

    def _check_header(self, data, offset: int, kind: int) -> Tuple[int, int]:
        codec_id, got_kind, count, payload_off = _PAGE_HEADER.unpack_from(data, offset)
        if codec_id != self.codec_id:
            raise ValueError(
                f"page stamped codec id {codec_id}, decoder is {self.codec_id}")
        if got_kind != kind:
            raise ValueError(f"expected page kind {kind}, got {got_kind}")
        return count, payload_off

    def max_entries(self, budget: int) -> int:
        """Upper bound on entries any page of ``budget`` bytes can hold."""
        raise NotImplementedError


class RawCodec(LeafCodec):
    """The legacy headerless 16-byte-slot layout, unchanged bytes.

    Indexes never route raw pages through the framing API — they branch
    into their pre-existing serialization when ``codec.is_raw`` — so the
    raw layout (and therefore every charged read and write) is
    bit-identical to the code before the codec layer existed.  The
    methods below exist so the property-test suite can exercise one
    uniform interface; decoding needs an explicit ``count`` because raw
    pages carry no header.
    """

    name = "raw"
    codec_id = 0
    is_raw = True

    def encode(self, items: Entries) -> bytes:
        return pack_entries(items)

    def decode_arrays(self, data, offset: int = 0,
                      count: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        if count < 0:
            raise ValueError("raw pages are headerless: decode needs a count")
        flat = np.frombuffer(data, dtype="<u8", count=2 * count, offset=offset)
        return flat[0::2], flat[1::2]

    def encoded_size(self, items: Entries) -> int:
        return ENTRY_SIZE * len(items)

    def pack_greedy(self, items: Entries, start: int, budget: int) -> int:
        return max(1, min(len(items) - start, budget // ENTRY_SIZE))

    def encode_keys(self, keys: Sequence[int]) -> bytes:
        return pack_u64s(list(keys))

    def decode_keys(self, data, offset: int = 0, count: int = -1) -> np.ndarray:
        if count < 0:
            raise ValueError("raw pages are headerless: decode needs a count")
        return np.frombuffer(data, dtype="<u8", count=count, offset=offset)

    def pack_keys_greedy(self, keys: Sequence[int], start: int,
                         budget: int) -> int:
        return max(1, min(len(keys) - start, budget // 8))

    def max_entries(self, budget: int) -> int:
        return budget // ENTRY_SIZE


class DeltaVarintCodec(LeafCodec):
    """Delta + LEB128 varint coding with a split payload column.

    Entries-page wire layout (after the 8-byte page header)::

        u64 first_key
        varint key_delta[1..count-1]        (delta to previous key)
        -- payload column at header.payload_off --
        varint zigzag(payload[i] - key[i])  for i in [0, count)

    The paper's uniform ycsb keys span 2^62, so a delta at 100k-200k
    keys costs ~7 bytes and the ``payload = key + 1`` residual one byte:
    ~8 bytes per entry against raw's 16.  Keys-only pages drop the
    payload column (``payload_off == 0``).  A column is coded and
    decoded whole (:func:`~.vectorize.pack_varints`,
    :func:`~.vectorize.unpack_varints`): the key column must end by
    ``payload_off`` and the payload column by the end of the page.
    """

    name = "delta"
    codec_id = 1
    _FIXED = PAGE_HEADER_SIZE + 8  # page header, first key

    def encode(self, items: Entries) -> bytes:
        entries = _as_entries(items)
        count = _page_count(entries)
        if not count:
            return self._header(KIND_ENTRIES, 0)
        keys = entries[:, 0]
        key_col = pack_varints(np.diff(keys))
        return b"".join((
            self._header(KIND_ENTRIES, count, self._FIXED + len(key_col)),
            _U64.pack(int(keys[0])), key_col,
            pack_varints(_zigzag_arr(keys, entries[:, 1]))))

    def _decode_keys(self, data, offset: int, count: int, stop: int) -> np.ndarray:
        first_key = _U64.unpack_from(data, offset + PAGE_HEADER_SIZE)[0]
        return _keys_from_deltas(first_key, unpack_varints(
            data, count - 1, offset + self._FIXED, stop))

    def decode_arrays(self, data, offset: int = 0,
                      count: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        count, payload_off = self._check_header(data, offset, KIND_ENTRIES)
        if not count:
            return _EMPTY, _EMPTY
        keys = self._decode_keys(data, offset, count, offset + payload_off)
        residuals = unpack_varints(data, count, offset + payload_off, len(data))
        return keys, _unzigzag_arr(keys, residuals)

    def _entry_sizes(self, entries: np.ndarray) -> np.ndarray:
        keys = entries[:, 0]
        return self._key_sizes(keys) + np.cumsum(
            varint_lengths(_zigzag_arr(keys, entries[:, 1])))

    def encode_keys(self, keys: Sequence[int]) -> bytes:
        keys = np.asarray(keys, dtype=np.uint64)
        if not _page_count(keys):
            return self._header(KIND_KEYS, 0)
        return b"".join((self._header(KIND_KEYS, len(keys)),
                         _U64.pack(int(keys[0])), pack_varints(np.diff(keys))))

    def decode_keys(self, data, offset: int = 0, count: int = -1) -> np.ndarray:
        count, _poff = self._check_header(data, offset, KIND_KEYS)
        if not count:
            return _EMPTY
        return self._decode_keys(data, offset, count, len(data))

    def _key_sizes(self, keys: np.ndarray) -> np.ndarray:
        sizes = np.full(len(keys), self._FIXED)
        sizes[1:] += np.cumsum(varint_lengths(np.diff(keys)))
        return sizes

    def max_entries(self, budget: int) -> int:
        # Two bytes per entry minimum, a 1-byte key delta + 1-byte
        # residual; the first entry (its key is in _FIXED) has no delta.
        return min(_MAX_PAGE_COUNT, max(1, (budget - self._FIXED + 1) // 2))


_FOR_SUBHEADER = struct.Struct("<BB6x")  # key width, payload width
_FOR_KEYS_SUBHEADER = struct.Struct("<B7x")  # key width


def _max_width(values: np.ndarray) -> int:
    """Bits the widest of ``values`` needs (0 for none)."""
    return int(values.max()).bit_length() if len(values) else 0


def _column_sizes(values: np.ndarray) -> np.ndarray:
    """``sizes[k - 1]``: bytes of the first ``k`` of ``values`` bit-packed
    at their own widest bit length."""
    counts = np.arange(1, len(values) + 1)
    return (counts * np.maximum.accumulate(bit_lengths(values)) + 7) // 8


class FoRCodec(LeafCodec):
    """Frame-of-reference with numpy bit-packed residual columns.

    Entries-page wire layout (after the 8-byte page header)::

        u64 first_key
        u8  key_width | u8 payload_width | 6 pad
        key column:     (count-1) deltas of key_width bits, LSB-first
        -- payload column at header.payload_off (byte aligned) --
        payload column: count zigzag residuals of payload_width bits

    Both widths are the page-local maximum bit length, so a column is
    ``count`` fixed-width fields: :func:`~.vectorize.unpack_uint_bits`
    gathers each field's bytes as one word, shifts and masks, and a
    running sum over the deltas rebuilds the keys.
    """

    name = "for"
    codec_id = 2
    # page header, first key, sub-header (both sub-headers are 8 bytes)
    _FIXED = PAGE_HEADER_SIZE + 8 + _FOR_SUBHEADER.size

    def encode(self, items: Entries) -> bytes:
        entries = _as_entries(items)
        count = _page_count(entries)
        if not count:
            return self._header(KIND_ENTRIES, 0)
        keys = entries[:, 0]
        deltas = np.diff(keys)
        residuals = _zigzag_arr(keys, entries[:, 1])
        key_width, payload_width = _max_width(deltas), _max_width(residuals)
        key_col = pack_uint_bits(deltas, key_width)
        return b"".join((
            self._header(KIND_ENTRIES, count, self._FIXED + len(key_col)),
            _U64.pack(int(keys[0])),
            _FOR_SUBHEADER.pack(key_width, payload_width),
            key_col, pack_uint_bits(residuals, payload_width)))

    def _decode_keys(self, data, offset: int, count: int, width: int) -> np.ndarray:
        first_key = _U64.unpack_from(data, offset + PAGE_HEADER_SIZE)[0]
        return _keys_from_deltas(first_key, unpack_uint_bits(
            data, count - 1, width, offset + self._FIXED))

    def decode_arrays(self, data, offset: int = 0,
                      count: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        count, payload_off = self._check_header(data, offset, KIND_ENTRIES)
        if not count:
            return _EMPTY, _EMPTY
        key_width, payload_width = _FOR_SUBHEADER.unpack_from(
            data, offset + PAGE_HEADER_SIZE + 8)
        keys = self._decode_keys(data, offset, count, key_width)
        residuals = unpack_uint_bits(data, count, payload_width,
                                     offset + payload_off)
        return keys, _unzigzag_arr(keys, residuals)

    def _entry_sizes(self, entries: np.ndarray) -> np.ndarray:
        keys = entries[:, 0]
        return self._key_sizes(keys) + _column_sizes(
            _zigzag_arr(keys, entries[:, 1]))

    def encode_keys(self, keys: Sequence[int]) -> bytes:
        keys = np.asarray(keys, dtype=np.uint64)
        if not _page_count(keys):
            return self._header(KIND_KEYS, 0)
        deltas = np.diff(keys)
        key_width = _max_width(deltas)
        return b"".join((self._header(KIND_KEYS, len(keys)),
                         _U64.pack(int(keys[0])),
                         _FOR_KEYS_SUBHEADER.pack(key_width),
                         pack_uint_bits(deltas, key_width)))

    def decode_keys(self, data, offset: int = 0, count: int = -1) -> np.ndarray:
        count, _poff = self._check_header(data, offset, KIND_KEYS)
        if not count:
            return _EMPTY
        key_width = _FOR_KEYS_SUBHEADER.unpack_from(
            data, offset + PAGE_HEADER_SIZE + 8)[0]
        return self._decode_keys(data, offset, count, key_width)

    def _key_sizes(self, keys: np.ndarray) -> np.ndarray:
        sizes = np.full(len(keys), self._FIXED)
        sizes[1:] += _column_sizes(np.diff(keys))
        return sizes

    def max_entries(self, budget: int) -> int:
        # Width-0 columns make the true maximum the u16 count ceiling.
        return _MAX_PAGE_COUNT


_CODECS = {codec.name: codec for codec in (RawCodec(), DeltaVarintCodec(), FoRCodec())}
_BY_ID = {codec.codec_id: codec for codec in _CODECS.values()}

#: Registered codec names, in codec-id order.
CODEC_NAMES = tuple(sorted(_CODECS, key=lambda name: _CODECS[name].codec_id))


def get_codec(codec) -> LeafCodec:
    """Resolve a codec name (or pass a :class:`LeafCodec` through)."""
    if isinstance(codec, LeafCodec):
        return codec
    try:
        return _CODECS[codec]
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}; choose from {CODEC_NAMES}") from None


def codec_id_of(data, offset: int = 0) -> int:
    """The codec id stamped in a framed page header."""
    return data[offset]
