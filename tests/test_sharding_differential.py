"""Cross-shard differential oracle: every sharded topology converges
onto the sorted-dict :class:`ReferenceModel`.

The same seeded random streams that validate each single index validate
the whole tier — shard-count x index-class combos, divergent per-shard
classes, replica groups under every read policy, and durable tiers —
because :class:`repro.sharding.ShardedIndex` is a
:class:`~repro.core.DiskIndex` like any other.  The streams include
``lookup_many`` batches (with duplicates) and ``scan_range`` spans drawn
over the full key space, so boundary-straddling splits and merges are
exercised on every run; dedicated tests then pin the boundary cases
exactly (batches and ranges built *from* the partition's split keys).
"""

import pytest

from repro.sharding import ShardTuner

from tests.util import (
    MUTATION_KINDS,
    READONLY_KINDS,
    ReferenceModel,
    check_full_agreement,
    items_of,
    make_sharded,
    random_sorted_keys,
    run_differential,
)

KEY_SPACE = 10**9


def loaded_tier(names, shards, keys, **kwargs):
    index = make_sharded(names, shards, sample_keys=keys, **kwargs)
    index.bulk_load(items_of(keys))
    return index


@pytest.mark.parametrize("name,shards", [
    ("btree", 2), ("btree", 5), ("alex", 3), ("lipp", 2), ("plid", 4),
])
def test_uniform_tier_matches_oracle(name, shards):
    keys = random_sorted_keys(600, seed=shards, key_space=KEY_SPACE)
    index = loaded_tier(name, shards, keys)
    model = ReferenceModel(items_of(keys))
    counts = run_differential(index, model, num_ops=400, seed=shards)
    assert counts["lookup_many"] > 0 and counts["scan_range"] > 0
    assert index.verify() == len(model)


@pytest.mark.parametrize("names", [
    ["btree", "alex"],
    ["alex", "btree", "plid"],
    ["plid", "lipp", "btree", "alex"],
])
def test_divergent_tier_matches_oracle(names):
    """Different index class on every shard, one oracle."""
    keys = random_sorted_keys(700, seed=len(names), key_space=KEY_SPACE)
    index = loaded_tier(names, None, keys)
    assert index.composition() == names
    model = ReferenceModel(items_of(keys))
    run_differential(index, model, num_ops=400, seed=17)
    assert index.verify() == len(model)


def test_replicated_tier_matches_oracle():
    """Read fan-out across replicas never changes an answer, and the
    round robin actually spreads the reads."""
    keys = random_sorted_keys(500, seed=11, key_space=KEY_SPACE)
    index = loaded_tier("btree", 3, keys, replicas=3)
    model = ReferenceModel(items_of(keys))
    run_differential(index, model, num_ops=350, seed=11)
    served = [[m.reads_served for m in shard.members()]
              for shard in index.shards]
    busy = [counts for counts in served if sum(counts) >= 6]
    assert busy and all(min(counts) > 0 for counts in busy), served
    assert index.verify() == len(model)


def test_durable_tier_matches_oracle():
    keys = random_sorted_keys(500, seed=23, key_space=KEY_SPACE)
    index = loaded_tier("btree", 3, keys, durability=True, replicas=2)
    model = ReferenceModel(items_of(keys))
    run_differential(
        index, model, num_ops=300, seed=23,
        kinds=MUTATION_KINDS)
    appended = lambda: sum(wal.records_appended for wal in index.logs())
    assert appended() == 0  # plain path stays unlogged
    # The durable path logs to the owning shard's log.
    index.durable_insert(KEY_SPACE + 5, 1)
    model.insert(KEY_SPACE + 5, 1)
    index.flush()
    assert appended() == 1
    check_full_agreement(index, model)


def test_readonly_hybrid_tier_matches_oracle():
    """A tier of read-only hybrids serves reads and refuses mutations."""
    keys = random_sorted_keys(600, seed=5, key_space=KEY_SPACE)
    index = loaded_tier("hybrid-alex", 3, keys)
    model = ReferenceModel(items_of(keys))
    run_differential(index, model, num_ops=250, seed=5,
                     kinds=READONLY_KINDS)
    with pytest.raises(NotImplementedError):
        index.insert(1, 2)


def test_tuner_divergence_keeps_oracle_agreement():
    """Retuning mid-stream (shards converting class under the tuner's
    P1-P5 scoring) must be invisible to correctness."""
    keys = random_sorted_keys(600, seed=41, key_space=KEY_SPACE)
    index = loaded_tier("btree", 2, keys)
    model = ReferenceModel(items_of(keys))
    boundary = index.partition.boundaries[0]
    # Skewed traffic: reads below the boundary, writes above it.
    for key in model.keys()[:150]:
        if key < boundary:
            assert index.lookup(key) == model.lookup(key)
    fresh = iter(range(KEY_SPACE + 10, KEY_SPACE + 10_000, 7))
    for _ in range(60):
        key = next(f for f in fresh if f not in model)
        model.insert(key, key % 97)
        index.insert(key, key % 97)
    plan = ShardTuner().retune(index)
    assert plan[0] != plan[1], plan  # traffic split forced divergence
    check_full_agreement(index, model)
    # The converted tier still tracks the oracle under a fresh stream
    # (mutations only on the writable shard's range).
    run_differential(index, model, num_ops=150, seed=43,
                     kinds=READONLY_KINDS)


def test_boundary_straddling_batches_and_ranges():
    """Pin the exact boundary cases: batches and ranges built from the
    partition's own split keys."""
    keys = random_sorted_keys(400, seed=67, key_space=KEY_SPACE)
    index = loaded_tier("btree", 4, keys)
    model = ReferenceModel(items_of(keys))
    for b in index.partition.boundaries:
        batch = [b - 1, b, b + 1, b, b - 1, keys[0], keys[-1]]
        assert index.lookup_many(batch) == [model.lookup(k) for k in batch]
        assert index.scan_range(b - 10**6, b + 10**6) == \
            model.scan_range(b - 10**6, b + 10**6)
        assert index.scan(b - 10**6, 25) == model.scan(b - 10**6, 25)
    # A range spanning every shard equals the full content sweep.
    assert index.scan_range(0, 2**64 - 1) == model.items()


def test_empty_shards_answer_correctly():
    """Shards whose range holds no keys still split/merge correctly."""
    keys = [10, 20, 30, 900_000, 900_010]
    index = make_sharded("btree", boundaries=[100, 500_000, 950_000])
    index.bulk_load(items_of(keys))
    model = ReferenceModel(items_of(keys))
    assert index.lookup_many([10, 600, 499_999, 900_010, 10]) == \
        [11, None, None, 900_011, 11]
    assert index.scan_range(0, 2**64 - 1) == model.items()
    assert index.scan(15, 4) == model.scan(15, 4)
    run_differential(index, model, num_ops=120, seed=3, key_space=10**6)
