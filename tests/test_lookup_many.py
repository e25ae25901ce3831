"""Batched lookups: differential parity against the reference model for
every registered index, the fewer-or-equal positionings guarantee, and
the scan_range descent-sharing regression test."""

import random

import pytest

from repro.core import index_names, make_index

from .util import (ReferenceModel, check_full_agreement, items_of, make_pager,
                   random_sorted_keys)

ALL_INDEXES = index_names(include_hybrids=True, include_plid=True)
MUTABLE_INDEXES = index_names(include_plid=True)
#: indexes whose lookup_many fetches the batch's leaf / data-node blocks
#: in one coalesced span; the acceptance bar (strictly fewer blocks at
#: batch 64) applies to these.
SPAN_FETCHING = ("btree", "fiting", "alex")


def _mixed_batch(keys, size, seed, key_space=10**12):
    """Unsorted batch with hits, misses and duplicates."""
    rng = random.Random(seed)
    batch = [rng.choice(keys) if rng.random() < 0.7 else rng.randrange(key_space)
             for _ in range(size)]
    return batch + batch[: size // 8]


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_lookup_many_matches_the_model(name):
    keys = random_sorted_keys(1500, seed=7)
    model = ReferenceModel(items_of(keys))
    index = make_index(name, make_pager())
    index.bulk_load(items_of(keys))
    batch = _mixed_batch(keys, 120, seed=42)
    assert index.lookup_many(batch) == [model.lookup(k) for k in batch]
    assert index.lookup_many([]) == []
    assert index.lookup_many(batch[:1]) == [model.lookup(batch[0])]


@pytest.mark.parametrize("name", MUTABLE_INDEXES)
def test_lookup_many_after_mutations(name):
    keys = random_sorted_keys(900, seed=3)
    model = ReferenceModel(items_of(keys))
    index = make_index(name, make_pager())
    index.bulk_load(items_of(keys))
    rng = random.Random(11)
    for _ in range(120):
        key = rng.randrange(10**12)
        if key not in model:
            model.insert(key, key % 997)
            index.insert(key, key % 997)
    for key in rng.sample(keys, 60):
        model.delete(key)
        index.delete(key)
    batch = _mixed_batch(model.keys(), 150, seed=5)
    assert index.lookup_many(batch) == [model.lookup(k) for k in batch]
    check_full_agreement(index, model)


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_lookup_many_never_charges_more_positionings(name):
    """Two identical indexes: the batched path must answer identically to
    the per-key loop while charging fewer-or-equal positionings."""
    keys = random_sorted_keys(1500, seed=9)
    serial_index = make_index(name, make_pager())
    batched_index = make_index(name, make_pager())
    serial_index.bulk_load(items_of(keys))
    batched_index.bulk_load(items_of(keys))
    batch = _mixed_batch(keys, 64, seed=21)

    before = serial_index.pager.stats.snapshot()
    expected = [serial_index.lookup(k) for k in batch]
    serial = serial_index.pager.stats.diff(before)

    before = batched_index.pager.stats.snapshot()
    got = batched_index.lookup_many(batch)
    coalesced = batched_index.pager.stats.diff(before)

    assert got == expected
    assert coalesced.read_positionings <= serial.read_positionings


@pytest.mark.parametrize("name", SPAN_FETCHING)
def test_vectorized_paths_fetch_strictly_fewer_blocks(name):
    keys = random_sorted_keys(5000, seed=13)
    serial_index = make_index(name, make_pager())
    batched_index = make_index(name, make_pager())
    serial_index.bulk_load(items_of(keys))
    batched_index.bulk_load(items_of(keys))
    rng = random.Random(17)
    batch = [rng.choice(keys) for _ in range(64)]

    before = serial_index.pager.stats.snapshot()
    expected = [serial_index.lookup(k) for k in batch]
    serial = serial_index.pager.stats.diff(before)

    before = batched_index.pager.stats.snapshot()
    got = batched_index.lookup_many(batch)
    coalesced = batched_index.pager.stats.diff(before)

    assert got == expected
    assert coalesced.reads < serial.reads
    assert coalesced.read_positionings < serial.read_positionings


def test_btree_scan_range_descends_once():
    """scan_range used to re-descend from the root for every chunk; it
    must now walk the leaf chain after a single inner descent."""
    keys = random_sorted_keys(5000, seed=23)
    index = make_index("btree", make_pager())
    index.bulk_load(items_of(keys))
    inner_file = index.pager.device.get_file(
        next(n for n, role in index.file_roles().items() if role == "inner"))
    low, high = keys[100], keys[4000]  # spans many leaves
    before = inner_file.reads
    result = index.scan_range(low, high)
    inner_fetches = inner_file.reads - before
    assert result == [(k, k + 1) for k in keys if low <= k <= high]
    assert inner_fetches <= index.height() - 1


def test_btree_floor_records_matches_floor_record():
    keys = random_sorted_keys(2000, seed=29)
    index = make_index("btree", make_pager())
    index.bulk_load(items_of(keys))
    tree = index.tree
    rng = random.Random(31)
    probes = sorted({rng.randrange(keys[-1] + 10) for _ in range(80)}
                    | {keys[0] - 1, keys[0], keys[-1]})
    many = tree.floor_records(probes)
    for key in probes:
        assert many[key] == tree.floor_record(key), key
