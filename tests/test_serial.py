"""Unit tests for the binary layout helpers."""

import bisect
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serial
from repro.core.serial import (
    ENTRY_SIZE,
    NULL_BLOCK,
    bisect_left,
    bisect_right,
    entries_per_block,
    find_entry,
    iter_entries,
    key_at,
    pack_entries,
    pack_u64s,
    splice,
    unpack_entries,
)


def test_entry_size_matches_paper_arithmetic():
    # 4 KiB block / 16-byte entries = 256 entries: the paper's B.
    assert ENTRY_SIZE == 16
    assert entries_per_block(4096) == 256
    assert entries_per_block(16384) == 1024


def test_pack_unpack_roundtrip():
    items = [(1, 2), (2**64 - 1, 0), (12345, 54321)]
    raw = pack_entries(items)
    assert len(raw) == len(items) * ENTRY_SIZE
    assert unpack_entries(raw, len(items)) == items


def test_unpack_with_offset():
    raw = b"\x00" * 8 + pack_entries([(7, 8)])
    assert unpack_entries(raw, 1, offset=8) == [(7, 8)]


def test_pack_empty():
    assert pack_entries([]) == b""
    assert unpack_entries(b"", 0) == []


def test_u64_roundtrip():
    values = [0, 1, NULL_BLOCK, 2**64 - 1]
    raw = pack_u64s(values)
    assert list(struct.unpack(f"<{len(values)}Q", raw)) == values


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                max_size=64))
def test_roundtrip_property(items):
    assert unpack_entries(pack_entries(items), len(items)) == items


def test_pack_rejects_out_of_range():
    with pytest.raises(Exception):
        pack_entries([(-1, 0)])
    with pytest.raises(Exception):
        pack_entries([(2**64, 0)])


# -- sorted runs searched and spliced as bytes -------------------------------
#
# A run is ``count`` records of ``stride`` bytes at ``base`` of a page:
# u64 key first, then stride - 8 bytes of data.  The strides are the
# repository's: B+-tree inner entries (12), key-payload entries (16), pgm
# descriptors (24), plid segments (32), FITing directory records (36).

U64_MAX = 2**64 - 1
STRIDES = (12, 16, 24, 32, 36)
BASES = (0, 16)


def _pack_run(keys, stride, base, trailing=b"\xee" * 20):
    """Records whose data bytes are derived from the key, between a
    header and trailing bytes that no search or splice may touch."""
    records = [struct.pack("<Q", key) + bytes([key % 251]) * (stride - 8)
               for key in keys]
    return b"\xaa" * base + b"".join(records) + trailing, records


run_keys = st.lists(st.integers(0, U64_MAX), max_size=80, unique=True).map(sorted)
probe_keys = st.one_of(st.integers(0, U64_MAX), st.sampled_from([0, 1, U64_MAX]))


@settings(max_examples=300, deadline=None)
@given(keys=run_keys, probe=probe_keys, stride=st.sampled_from(STRIDES),
       base=st.sampled_from(BASES), data=st.data())
def test_bisect_over_bytes_matches_bisect_over_keys(keys, probe, stride, base,
                                                    data):
    page, _records = _pack_run(keys, stride, base)
    probe = data.draw(st.sampled_from(keys)) if keys and probe % 3 == 0 else probe
    assert bisect_left(page, probe, len(keys), base, stride) == \
        bisect.bisect_left(keys, probe)
    assert bisect_right(page, probe, len(keys), base, stride) == \
        bisect.bisect_right(keys, probe)
    # ``lo`` exempts a prefix from comparison (inner-node entry 0).
    lo = data.draw(st.integers(0, len(keys)))
    assert bisect_right(page, probe, len(keys), base, stride, lo) == \
        max(lo, bisect.bisect_right(keys, probe))
    for slot, key in enumerate(keys[:3]):
        assert key_at(page, slot, base, stride) == key


@settings(max_examples=300, deadline=None)
@given(keys=run_keys, new_key=probe_keys, stride=st.sampled_from(STRIDES),
       base=st.sampled_from(BASES))
def test_splice_equals_sorted_reference_repacked(keys, new_key, stride, base):
    page, records = _pack_run(keys, stride, base)
    record = struct.pack("<Q", new_key) + b"\x07" * (stride - 8)
    slot = bisect_left(page, new_key, len(keys), base, stride)
    replace = slot < len(keys) and keys[slot] == new_key
    # the reference: rebuild the record list, sort it, pack it again
    reference = dict(zip(keys, records))
    reference[new_key] = record
    repacked = b"".join(reference[key] for key in sorted(reference))
    head = page[base : base + slot * stride]
    assert head + splice(page, slot, record, len(keys), base, replace) == repacked


def test_run_edges():
    # empty run: nothing qualifies, an insert goes to slot 0
    for page in (b"", b"\xaa" * 16):
        base = len(page)
        assert bisect_left(page, 5, 0, base) == bisect_right(page, 5, 0, base) == 0
        assert find_entry(page, 5, 0, base) == (0, None)
        assert splice(page, 0, pack_entries([(5, 6)]), 0, base) == pack_entries([(5, 6)])
        assert list(iter_entries(page, 0, base)) == []
    # one record, and the two ends of the key space
    for key in (0, 7, U64_MAX):
        page = pack_entries([(key, 9)])
        assert find_entry(page, key, 1) == (0, 9)
        assert bisect_left(page, key, 1) == 0 and bisect_right(page, key, 1) == 1
        if key:
            assert find_entry(page, key - 1, 1) == (0, None)
        if key < U64_MAX:
            assert find_entry(page, key + 1, 1) == (1, None)
    # probe below the first and above the last record
    items = [(10, 1), (20, 2), (30, 3)]
    page = pack_entries(items)
    assert bisect_left(page, 0, 3) == bisect_right(page, 9, 3) == 0
    assert bisect_left(page, 31, 3) == bisect_right(page, U64_MAX, 3) == 3
    assert find_entry(page, 20, 3) == (1, 2) and find_entry(page, 25, 3) == (2, None)
    # only the first ``count`` records are the run
    assert bisect_right(page, 30, 2) == 2 and find_entry(page, 30, 2) == (2, None)
    assert splice(page, 1, pack_entries([(15, 0)]), 2) == pack_entries([(15, 0), (20, 2)])
    assert splice(page, 1, pack_entries([(20, 8)]), 3, replace=True) == \
        pack_entries([(20, 8), (30, 3)])
    assert list(iter_entries(page, 2, ENTRY_SIZE)) == items[1:]


# -- the C bisect over a strided key column -----------------------------------
#
# On a little-endian host a run whose stride is a multiple of 8 and whose
# count reaches ``_C_BISECT_MIN`` is bisected by :mod:`bisect` over a
# ``memoryview`` cast of its key column; the Python probe loop takes the
# rest (and every run with the flag off).  Both must give the same slot.

C_STRIDES = (16, 24, 40)  # entries, pgm descriptors, fiting directory records
THRESHOLD = serial._C_BISECT_MIN
C_COUNTS = (0, 1, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 64, 300)
HIGH_KEY = st.integers(2**63, U64_MAX)


def _searches(page, probe, count, base, stride, lo):
    return (bisect_left(page, probe, count, base, stride),
            bisect_right(page, probe, count, base, stride),
            bisect_right(page, probe, count, base, stride, lo),
            find_entry(page, probe, count, base) if stride == ENTRY_SIZE else None)


@settings(max_examples=300, deadline=None)
@given(count=st.sampled_from(C_COUNTS), stride=st.sampled_from(C_STRIDES),
       base=st.sampled_from((0, 12, 16)), data=st.data())
def test_c_bisect_equals_the_python_loop(count, stride, base, data):
    # keys from a drawn seed (drawing 300 unique keys one by one is slow);
    # half the runs keep only keys >= 2**63
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    floor = data.draw(st.sampled_from((0, 2**63)))
    keys = set()
    while len(keys) < count:
        keys.add(rng.randint(floor, U64_MAX))
    keys = sorted(keys)
    page, _records = _pack_run(keys, stride, base)
    probe = data.draw(st.one_of(probe_keys, HIGH_KEY,
                                st.sampled_from(keys) if keys else probe_keys))
    lo = data.draw(st.integers(0, count + 1))
    fast = _searches(page, probe, count, base, stride, lo)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(serial, "_LITTLE_ENDIAN", False)
        loop = _searches(page, probe, count, base, stride, lo)
    assert fast == loop
    assert fast[:3] == (bisect.bisect_left(keys, probe),
                        bisect.bisect_right(keys, probe),
                        max(lo, bisect.bisect_right(keys, probe)))


def test_c_bisect_takes_exactly_the_aligned_long_runs(monkeypatch):
    columns = []
    real = serial._key_column

    def counting(*args):
        columns.append(args[1:])
        return real(*args)

    monkeypatch.setattr(serial, "_key_column", counting)
    for stride in (12, 16, 24, 36, 40):
        for count in (THRESHOLD - 1, THRESHOLD):
            keys = list(range(10, 10 * count + 1, 10))
            page, _records = _pack_run(keys, stride, 12)
            assert bisect_left(page, 25, count, 12, stride) == 2
            assert bisect_right(page, 30, count, 12, stride, 1) == 3
    assert columns == [(THRESHOLD, 12, stride) for stride in C_STRIDES
                       for _search in range(2)]
    columns.clear()
    monkeypatch.setattr(serial, "_LITTLE_ENDIAN", False)
    page, _records = _pack_run(list(range(THRESHOLD)), 16, 0)
    assert bisect_left(page, 5, THRESHOLD) == 5 and columns == []
