"""The codec array kernels against the scalar reference.

``repro.core.vectorize`` packs and unpacks whole columns — fixed-width
bit fields for the frame-of-reference codec, LEB128 varints for the
delta codec — with numpy; ``tests/codec_reference.py`` does the same one
value at a time in Python integers.  The kernels must agree with it on
every width, at the sizes where a column ends mid-byte, mid-word or at
the u16 count ceiling, wherever the column sits in its buffer and
whatever follows it — and a column that is not all there must raise
``ValueError``, never be read out of its neighbour or the padding.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import PAGE_HEADER_SIZE, get_codec
from repro.core.vectorize import (bit_lengths, pack_uint_bits, pack_varints,
                                  unpack_uint_bits, unpack_varints,
                                  varint_lengths)
from tests import codec_reference as reference

U64_MAX = 2**64 - 1

#: one value short of a byte of lanes, a whole one, one over; a column
#: that ends mid-word; the most a page can hold
COUNTS = (1, 7, 8, 9, 601, 0xFFFF)

#: uint64 values biased toward the varint length boundaries
u64 = st.one_of(
    st.integers(0, U64_MAX),
    st.sampled_from([0, 1, 127, 128, 2**14 - 1, 2**14, 2**56 - 1, 2**56,
                     2**63 - 1, 2**63, U64_MAX]),
    st.integers(0, 64).map(lambda bits: (1 << bits) - 1 & U64_MAX),
)


# ---------------------------------------------------------------------------
# fixed-width bit fields
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("width", range(65))
def test_bit_columns_match_the_reference_at_every_width(width):
    rng = random.Random(width)
    for count in COUNTS:
        values = [rng.getrandbits(width) if width else 0 for _ in range(count)]
        values[0] = values[-1] = (1 << width) - 1       # every bit of a field
        column = pack_uint_bits(np.array(values, dtype=np.uint64), width)
        assert column == reference.pack_bits(values, width)
        assert len(column) == (count * width + 7) // 8
        got = unpack_uint_bits(column, count, width)
        assert got.dtype == np.uint64
        assert got.tolist() == values == reference.unpack_bits(column, count, width)
        # anywhere in a buffer, whatever bytes follow the column
        framed = b"\xA5" * 13 + column + b"\xFF" * 11
        assert unpack_uint_bits(framed, count, width, 13).tolist() == values


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 64), st.lists(u64, min_size=1, max_size=80),
       st.integers(0, 9), st.binary(max_size=12))
def test_bit_columns_roundtrip(width, values, offset, trailing):
    """Values wider than the column keep their low ``width`` bits, as in
    the reference."""
    column = pack_uint_bits(np.array(values, dtype=np.uint64), width)
    assert column == reference.pack_bits(values, width)
    framed = bytes(offset) + column + trailing
    kept = [value & ((1 << width) - 1) for value in values]
    assert unpack_uint_bits(framed, len(values), width, offset).tolist() == kept


def test_bit_column_edges():
    assert pack_uint_bits(np.empty(0, dtype=np.uint64), 17) == b""
    assert unpack_uint_bits(b"", 0, 17).tolist() == []
    assert unpack_uint_bits(b"", 5, 0).tolist() == [0] * 5  # width 0 reads nothing
    for call in (lambda: pack_uint_bits(np.ones(3, dtype=np.uint64), 65),
                 lambda: unpack_uint_bits(bytes(64), 3, 65)):
        with pytest.raises(ValueError, match="width"):
            call()
    column = pack_uint_bits(np.arange(100, dtype=np.uint64), 7)
    for short in (column[:-1], b""):
        with pytest.raises(ValueError):
            unpack_uint_bits(short, 100, 7)
    with pytest.raises(ValueError):
        unpack_uint_bits(column, 100, 7, offset=1)


@settings(max_examples=100, deadline=None)
@given(st.lists(u64, min_size=1, max_size=60))
def test_lengths_match_python_ints(values):
    column = np.array(values, dtype=np.uint64)
    assert bit_lengths(column).tolist() == [v.bit_length() for v in values]
    assert varint_lengths(column).tolist() == [
        len(reference.pack_varints([v])) for v in values]


# ---------------------------------------------------------------------------
# LEB128 varint columns
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.lists(u64, min_size=1, max_size=120), st.integers(0, 9),
       st.integers(0, 40))
def test_varint_columns_match_the_reference(values, offset, padding):
    column = pack_varints(np.array(values, dtype=np.uint64))
    assert column == reference.pack_varints(values)
    # a column followed by a block's zero padding: zeros are whole
    # varints, and none of them may be taken for a value
    framed = b"\x80" * offset + column + bytes(padding)
    got = unpack_varints(framed, len(values), offset, len(framed))
    assert got.dtype == np.uint64
    assert got.tolist() == values == reference.unpack_varints(
        framed, len(values), offset)
    exact = unpack_varints(framed, len(values), offset, offset + len(column))
    assert exact.tolist() == values


def test_varint_extremes():
    values = [0, 127, 128, 2**63, U64_MAX]
    column = pack_varints(np.array(values, dtype=np.uint64))
    assert [len(reference.pack_varints([v])) for v in values] == [1, 1, 2, 10, 10]
    assert column == reference.pack_varints(values) and len(column) == 24
    assert unpack_varints(column, 5, 0, len(column)).tolist() == values
    assert pack_varints(np.empty(0, dtype=np.uint64)) == b""
    assert unpack_varints(b"", 0, 0, 0).tolist() == []
    full = pack_varints(np.full(0xFFFF, U64_MAX, dtype=np.uint64))
    assert len(full) == 10 * 0xFFFF
    assert unpack_varints(full, 0xFFFF, 0, len(full)).tolist() == [U64_MAX] * 0xFFFF


def test_malformed_varint_columns_raise_and_never_over_read():
    values = [300, 5, 2**40, 7]
    column = reference.pack_varints(values)
    # truncated: the window ends inside the last value
    for stop in range(len(column)):
        with pytest.raises(ValueError, match="varint column"):
            unpack_varints(column + bytes(30), 4, 0, stop)
    # the bytes after the window are complete varints, and stay unread
    assert unpack_varints(column + bytes(30), 4, 0, len(column)).tolist() == values
    # a window that is not inside the data
    for start, stop in ((0, len(column) + 1), (3, 2), (-1, 2)):
        with pytest.raises(ValueError, match="outside"):
            unpack_varints(column, 1, start, stop)
    # a value that never terminates, and one that runs past ten bytes
    with pytest.raises(ValueError, match="varint column"):
        unpack_varints(b"\x80" * 40, 1, 0, 40)
    with pytest.raises(ValueError, match="ten bytes"):
        unpack_varints(b"\x80" * 10 + b"\x01\x05", 2, 0, 12)


@pytest.mark.parametrize("kind", ["entries", "keys"])
def test_malformed_delta_pages_raise(kind):
    """At the page level: a payload offset before the key column's end,
    past the page, or a page cut short."""
    codec = get_codec("delta")
    items = [(k * 1000, k * 1000 + 1) for k in range(1, 200)]
    if kind == "keys":
        page = codec.encode_keys([key for key, _ in items])
        decode = codec.decode_keys
    else:
        page = codec.encode(items)
        decode = codec.decode_arrays
        payload_off = int.from_bytes(page[4:8], "little")
        for bad in (0, PAGE_HEADER_SIZE + 8 - 1, payload_off - 1,
                    len(page) + 1, 2**32 - 1):
            with pytest.raises(ValueError):
                decode(page[:4] + bad.to_bytes(4, "little") + page[8:])
    decode(page + bytes(100))  # block padding after the page is fine
    for cut in (len(page) - 1, len(page) // 2, PAGE_HEADER_SIZE + 8):
        with pytest.raises(ValueError):
            decode(page[:cut])


def test_malformed_for_pages_raise():
    codec = get_codec("for")
    page = codec.encode([(k * 1000, k * 1000 + 1) for k in range(1, 200)])
    for cut in (len(page) - 1, len(page) // 2):
        with pytest.raises(ValueError):
            codec.decode_arrays(page[:cut])
    too_wide = page[:PAGE_HEADER_SIZE + 8] + b"\x41" + page[PAGE_HEADER_SIZE + 9:]
    with pytest.raises(ValueError, match="width"):
        codec.decode_arrays(too_wide)
    past_the_page = page[:4] + (len(page) + 1).to_bytes(4, "little") + page[8:]
    with pytest.raises(ValueError):
        codec.decode_arrays(past_the_page)
