"""The batch-prediction and zero-copy machinery (DESIGN.md §15).

Two layers of guarantees, each tested here (that the one execution path
per index charges what the paper's cost model says is the recorded
contract of ``tests/test_*_golden.py``):

* **Model arithmetic is bit-identical.**  ``anchored_diff`` (what
  ``SegmentArray.predict`` multiplies) must reproduce the scalar
  ``float(int(key) - anchor)`` exactly — including keys adjacent to
  2**64, where a naive float subtraction loses thousands of positions —
  because a batch must probe the slots its keys would probe one at a
  time to charge identical I/O.
* **Zero-copy codecs agree with the materializing ones.**
  ``keys_view``/``entry_at`` are strided views over raw block bytes;
  ``np.searchsorted`` over a view must land exactly where bisection
  over ``unpack_entries`` tuples lands, for both 16-byte leaf entries
  and non-u64-aligned strides.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serial import (
    ENTRY_SIZE,
    _u64_struct,
    entry_at,
    keys_view,
    pack_entries,
    unpack_entries,
)
from repro.models import anchored_diff

U64_MAX = 2**64 - 1

# Keys clustered against both ends of the uint64 range, where float64
# cancellation bites, plus the full range.
edge_keys = st.one_of(
    st.integers(0, U64_MAX),
    st.integers(U64_MAX - 2**16, U64_MAX),
    st.integers(0, 2**16),
)


# ---------------------------------------------------------------------------
# The anchored difference every batch prediction rests on
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(key=edge_keys, anchor=edge_keys)
def test_anchored_diff_is_exact_integer_difference(key, anchor):
    got = anchored_diff(np.array([key], dtype=np.uint64), anchor)[0]
    assert repr(float(got)) == repr(float(key - anchor))


# ---------------------------------------------------------------------------
# Zero-copy key views == materialized tuples
# ---------------------------------------------------------------------------
sorted_entries = st.lists(
    st.integers(0, U64_MAX), min_size=1, max_size=200, unique=True
).map(lambda ks: [(k, (k + 1) & U64_MAX) for k in sorted(ks)])


@settings(max_examples=200, deadline=None)
@given(items=sorted_entries, probe=edge_keys)
def test_keys_view_searchsorted_matches_unpacked_bisect(items, probe):
    data = pack_entries(items)
    view = keys_view(data, len(items))
    assert view.base is not None  # a view over data, never a copy
    unpacked = unpack_entries(data, len(items))
    assert unpacked == items
    ref_keys = [k for k, _p in unpacked]
    assert view.tolist() == ref_keys
    for side in ("left", "right"):
        got = int(np.searchsorted(view, np.uint64(probe), side=side))
        expected = (bisect.bisect_left if side == "left"
                    else bisect.bisect_right)(ref_keys, probe)
        assert got == expected
    slot = max(0, int(np.searchsorted(view, np.uint64(probe), "right")) - 1)
    assert entry_at(data, slot) == items[slot]


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=64,
                     unique=True),
       probe=edge_keys)
def test_keys_view_handles_unaligned_strides(keys, probe):
    """12-byte records (u64 key + u32 child) — the B+-tree inner layout —
    go through the record-dtype branch of keys_view."""
    import struct

    keys = sorted(keys)
    data = b"".join(struct.pack("<QI", k, i) for i, k in enumerate(keys))
    view = keys_view(data, len(keys), stride=12)
    assert view.tolist() == keys
    got = int(np.searchsorted(view, np.uint64(probe), side="right"))
    assert got == bisect.bisect_right(keys, probe)


def test_keys_view_offset_and_empty():
    items = [(10, 11), (20, 21), (30, 31)]
    data = b"\x00" * 32 + pack_entries(items)
    assert keys_view(data, 3, offset=32).tolist() == [10, 20, 30]
    assert keys_view(b"", 0).size == 0


# ---------------------------------------------------------------------------
# pack_entries flattening and the bounded Struct cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("count", [0, 1, 3, 5, 7, 255, 256, 257])
def test_pack_entries_round_trips_odd_batches(count):
    items = [(2 * i + 1, (2 * i + 1) * 3) for i in range(count)]
    data = pack_entries(items)
    assert len(data) == count * ENTRY_SIZE
    assert unpack_entries(data, count) == items


def test_u64_struct_cache_is_bounded_and_hit():
    info = _u64_struct.cache_info()
    assert info.maxsize == 1024  # bounded: weird counts cannot grow it forever
    assert _u64_struct(14) is _u64_struct(14)  # same object on repeat
    assert _u64_struct.cache_info().hits > info.hits
    assert _u64_struct(6).size == 48
