"""Property tests: partition geometry and the tier's batched lookup.

Hypothesis draws random partitions and random key batches/ranges and
asserts the structural invariants the sharded tier rests on:

* ``split_range`` tiles the query range exactly — no gap, no overlap,
  in key order;
* a tier answers ``lookup_many`` (unsorted, with duplicates) exactly
  like per-key lookups through the partition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import RangePartition

from tests.util import items_of, make_sharded

KEY_SPACE = 10**6

boundaries_st = st.lists(
    st.integers(1, KEY_SPACE - 1), unique=True, max_size=6).map(sorted)
batch_st = st.lists(st.integers(0, KEY_SPACE - 1), max_size=50)


@settings(max_examples=200, deadline=None)
@given(boundaries=boundaries_st,
       a=st.integers(0, KEY_SPACE), b=st.integers(0, KEY_SPACE))
def test_split_range_tiles_the_query_exactly(boundaries, a, b):
    partition = RangePartition(boundaries)
    low, high = min(a, b), max(a, b)
    parts = partition.split_range(low, high)
    assert parts[0][1] == low and parts[-1][2] == high
    previous_hi = low - 1
    for shard_id, lo, hi in parts:
        assert lo == previous_hi + 1, "gap or overlap between sub-ranges"
        assert lo <= hi
        shard_lo, shard_hi = partition.range_of(shard_id)
        assert shard_lo <= lo and hi < shard_hi
        previous_hi = hi
    assert previous_hi == high


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.integers(0, KEY_SPACE - 1), unique=True,
                     min_size=12, max_size=80).map(sorted),
       shards=st.integers(2, 4),
       batch=batch_st)
def test_router_lookup_many_equals_per_key_lookups(keys, shards, batch):
    index = make_sharded("btree", shards, sample_keys=keys)
    index.bulk_load(items_of(keys))
    # present keys too (a drawn key rarely hits one), then every other
    # key twice, the repeats out of order
    batch = batch + keys[::4]
    batch += batch[::2]
    assert index.lookup_many(batch) == [index.lookup(k) for k in batch]
