"""Scalar reference of the compressed page formats (DESIGN.md Section 16).

``repro.core.codecs`` and ``repro.core.vectorize`` work on whole columns
as numpy arrays; this module states the same wire formats one value at a
time in plain Python integers — the LEB128 reader and writer are the
ones the codecs ran per entry before the array kernels — and is what
``tests/test_codec_kernels.py`` and ``tests/test_codecs.py`` hold the
kernels equal to, byte for byte.  It is deliberately slow and has one
way to do each thing; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

U64_MASK = (1 << 64) - 1
_PAGE_HEADER = struct.Struct("<BBHI")  # codec id, kind, count, payload offset
_U64 = struct.Struct("<Q")
CODEC_IDS = {"delta": 1, "for": 2}
KIND_ENTRIES, KIND_KEYS = 0, 1


# -- LEB128 ------------------------------------------------------------------


def varint_append(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varint_read(data, pos: int) -> Tuple[int, int]:
    """``(value, position after it)``; ``IndexError`` past the data."""
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def pack_varints(values: Sequence[int]) -> bytes:
    out = bytearray()
    for value in values:
        varint_append(out, value)
    return bytes(out)


def unpack_varints(data, count: int, pos: int = 0) -> List[int]:
    values = []
    for _ in range(count):
        value, pos = varint_read(data, pos)
        values.append(value)
    return values


# -- fixed-width bit fields --------------------------------------------------

#: Values per big integer: 64 fields of ``width`` bits are ``8 * width``
#: whole bytes, so a long column is built and taken apart in linear time.
_CHUNK = 64


def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Value ``i`` in bits ``[i*width, (i+1)*width)`` of a little-endian
    bit stream: the integer ``sum(v_i << i*width)``, as bytes."""
    mask = (1 << width) - 1
    out = bytearray()
    for at in range(0, len(values), _CHUNK):
        stream = 0
        for i, value in enumerate(values[at : at + _CHUNK]):
            stream |= (value & mask) << (i * width)
        out += stream.to_bytes(_CHUNK * width // 8, "little")
    return bytes(out[: (len(values) * width + 7) // 8])


def unpack_bits(data, count: int, width: int, offset: int = 0) -> List[int]:
    mask = (1 << width) - 1
    step = _CHUNK * width // 8
    values: List[int] = []
    for at in range(0, count, _CHUNK):
        stream = int.from_bytes(
            data[offset + at // _CHUNK * step :][:step], "little")
        values += [(stream >> (i * width)) & mask
                   for i in range(min(_CHUNK, count - at))]
    return values


# -- pages -------------------------------------------------------------------


def zigzag(key: int, payload: int) -> int:
    """Zigzag-encoded 64-bit residual ``payload - key`` (mod 2^64)."""
    diff = (payload - key) & U64_MASK
    signed = diff - (1 << 64) if diff >= (1 << 63) else diff
    return ((signed << 1) ^ (signed >> 63)) & U64_MASK


def unzigzag(key: int, z: int) -> int:
    return (key + ((z >> 1) ^ -(z & 1))) & U64_MASK


def _deltas(keys: Sequence[int]) -> List[int]:
    return [(key - previous) & U64_MASK for previous, key in zip(keys, keys[1:])]


def _width(values: Sequence[int]) -> int:
    return max((value.bit_length() for value in values), default=0)


def _key_column(name: str, keys: Sequence[int], payload_width: int = 0) -> bytes:
    """First key, the delta column, and between them FoR's sub-header:
    u8 key width | u8 payload width (0 on a keys page) | 6 pad."""
    deltas = _deltas(keys)
    if name == "delta":
        return _U64.pack(keys[0]) + pack_varints(deltas)
    width = _width(deltas)
    return (_U64.pack(keys[0]) + bytes((width, payload_width)) + bytes(6)
            + pack_bits(deltas, width))


def encode(name: str, items: Sequence[Tuple[int, int]]) -> bytes:
    """An entries page of codec ``name``."""
    if len(items) > 0xFFFF:
        raise ValueError(f"page overflow: {len(items)} entries")
    if not items:
        return _PAGE_HEADER.pack(CODEC_IDS[name], KIND_ENTRIES, 0, 0)
    keys = [key for key, _payload in items]
    residuals = [zigzag(key, payload) for key, payload in items]
    if name == "delta":
        key_col, payload_col = _key_column(name, keys), pack_varints(residuals)
    else:
        width = _width(residuals)
        key_col, payload_col = (_key_column(name, keys, width),
                                pack_bits(residuals, width))
    header = _PAGE_HEADER.pack(CODEC_IDS[name], KIND_ENTRIES, len(items),
                               _PAGE_HEADER.size + len(key_col))
    return header + key_col + payload_col


def encode_keys(name: str, keys: Sequence[int]) -> bytes:
    """A keys-only page of codec ``name``."""
    if len(keys) > 0xFFFF:
        raise ValueError(f"page overflow: {len(keys)} keys")
    header = _PAGE_HEADER.pack(CODEC_IDS[name], KIND_KEYS, len(keys), 0)
    return header + (_key_column(name, keys) if keys else b"")


def decode(name: str, page, offset: int = 0) -> List[Tuple[int, int]]:
    """The entries of an entries page, one at a time."""
    codec_id, kind, count, payload_off = _PAGE_HEADER.unpack_from(page, offset)
    assert (codec_id, kind) == (CODEC_IDS[name], KIND_ENTRIES)
    if not count:
        return []
    at = offset + _PAGE_HEADER.size
    keys = [_U64.unpack_from(page, at)[0]]
    if name == "delta":
        deltas = unpack_varints(page, count - 1, at + 8)
        residuals = unpack_varints(page, count, offset + payload_off)
    else:
        key_width, payload_width = page[at + 8], page[at + 9]
        deltas = unpack_bits(page, count - 1, key_width, at + 16)
        residuals = unpack_bits(page, count, payload_width, offset + payload_off)
    for delta in deltas:
        keys.append((keys[-1] + delta) & U64_MASK)
    return [(key, unzigzag(key, z)) for key, z in zip(keys, residuals)]
