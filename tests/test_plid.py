"""PLID-specific tests: the paper's design principles P1-P5, instantiated."""

import random

import pytest

from repro.core import make_index
from repro.core.plid import PlidIndex
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, random_sorted_keys

KEYS = random_sorted_keys(30_000, seed=21)


def fresh(**kwargs):
    device = BlockDevice(4096, NULL_DEVICE)
    return PlidIndex(Pager(device), **kwargs), device


def loaded(**kwargs):
    index, device = fresh(**kwargs)
    index.bulk_load(items_of(KEYS))
    return index, device


def test_parameter_validation():
    with pytest.raises(ValueError):
        fresh(error_bound=0)
    with pytest.raises(ValueError):
        fresh(leaf_fill=0.01)
    with pytest.raises(ValueError):
        fresh(split_buffer_capacity=0)


def test_registered_in_registry():
    index = make_index("plid", Pager(BlockDevice(4096, NULL_DEVICE)))
    assert isinstance(index, PlidIndex)


def test_p1_lookup_cost_at_most_btree():
    """P1: with the root model in the meta block, a lookup is at most
    1 segment block + 1 directory block + 1 leaf block."""
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    index = PlidIndex(pager)
    index.bulk_load(items_of(KEYS))
    costs = []
    for key in random.Random(1).sample(KEYS, 100):
        pager.drop_last_block()
        before = device.stats.reads
        assert index.lookup(key) == key + 1
        costs.append(device.stats.reads - before)
    assert max(costs) <= 3
    assert sum(costs) / len(costs) <= 3.0


def test_p2_insert_writes_no_statistics():
    """P2: a non-splitting insert is exactly one leaf write after the
    search — no header updates, no statistics maintenance."""
    device = BlockDevice(4096, HDD)
    index = PlidIndex(Pager(device))
    index.bulk_load(items_of(KEYS))
    key = KEYS[500] + 1
    assert key not in set(KEYS)
    before = device.stats.snapshot()
    index.insert(key, key + 1)
    delta = device.stats.diff(before)
    assert delta.writes == 1
    assert delta.writes_by_phase.get("maintenance", 0) == 0


def test_p2_split_is_one_buffer_append():
    index, device = fresh(leaf_fill=1.0)  # full leaves: first insert splits
    index.bulk_load(items_of(KEYS))
    before_splits = index.num_splits
    key = KEYS[500] + 1
    index.insert(key, key + 1)
    assert index.num_splits == before_splits + 1
    assert index.split_buffer_count == 1
    # Everything still findable across the split boundary.
    for probe in KEYS[495:505]:
        assert index.lookup(probe) == probe + 1
    assert index.lookup(key) == key + 1


def test_directory_rebuild_trigger():
    index, _ = fresh(leaf_fill=1.0, split_buffer_capacity=4)
    index.bulk_load(items_of(KEYS))
    present = set(KEYS)
    rng = random.Random(2)
    while index.num_rebuilds == 0:
        key = rng.randrange(10**12)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    assert index.split_buffer_count < 4
    assert index.verify() == len(present)
    for key in rng.sample(sorted(present), 300):
        assert index.lookup(key) == key + 1


def test_p3_physical_delete():
    index, _ = loaded()
    assert index.delete(KEYS[10])
    assert index.num_records == len(KEYS) - 1
    assert index.verify() == len(KEYS) - 1  # physically gone, not a tombstone


def test_p3_scan_cost_is_dense():
    """P3: scanning z items costs about z/B leaf blocks, like the B+-tree."""
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    index = PlidIndex(pager)
    index.bulk_load(items_of(KEYS))
    pager.drop_last_block()
    before = device.stats.reads
    result = index.scan(KEYS[1000], 400)
    assert len(result) == 400
    # 400 items / 204 per leaf = 2-3 leaf blocks + <=2 directory blocks.
    assert device.stats.reads - before <= 6


def test_p4_hardness_independence():
    """P4/P1: the directory hides dataset hardness — lookup cost on the
    hardest dataset equals the easiest within one block."""
    from repro.datasets import make_dataset
    costs = {}
    for dataset in ("ycsb", "fb", "osm"):
        device = BlockDevice(4096, HDD)
        pager = Pager(device)
        index = PlidIndex(pager)
        keys = [int(k) for k in make_dataset(dataset, 30_000)]
        index.bulk_load(items_of(keys))
        reads = 0
        for key in random.Random(3).sample(keys, 100):
            pager.drop_last_block()
            before = device.stats.reads
            index.lookup(key)
            reads += device.stats.reads - before
        costs[dataset] = reads / 100
    assert max(costs.values()) - min(costs.values()) <= 1.0


def test_p5_memory_resident_inner_single_block_lookup():
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    index = PlidIndex(pager)
    index.bulk_load(items_of(KEYS))
    index.set_inner_memory_resident(True)
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(KEYS[123])
    assert device.stats.reads - before == 1  # just the leaf


def test_insert_beyond_global_max_routes_to_last_leaf():
    index, _ = loaded()
    big = KEYS[-1] + 10**6
    index.insert(big, 1)
    assert index.lookup(big) == 1
    assert index.scan(KEYS[-1], 3) == [(KEYS[-1], KEYS[-1] + 1), (big, 1)]
    assert index.verify() == len(KEYS) + 1


def test_rightmost_leaf_splits_under_above_max_inserts():
    """The directory holds separators only — no entry for the rightmost
    leaf — so its splits register ordinary (left max -> new block)
    entries and keys above every separator keep routing to it."""
    from repro.datasets import make_dataset
    keys = [int(k) for k in make_dataset("ycsb", 5_000)]
    index, _ = fresh()
    index.bulk_load(items_of(keys))
    splits = index.num_splits
    above = list(range(keys[-1] + 1, keys[-1] + 3_001))
    random.Random(4).shuffle(above)
    for key in above:
        index.insert(key, key + 1)
    assert index.num_splits > splits + 10
    for key in keys + above:
        assert index.lookup(key) == key + 1
    assert index.verify() == 8_000


def test_one_leaf_has_no_directory():
    index, _ = fresh()
    index.bulk_load(items_of(KEYS[:100]))
    assert (index.num_leaves, index.num_dir_entries) == (1, 0)
    assert index.root is None and index.level_table == []
    assert index.lookup(KEYS[50]) == KEYS[50] + 1
    assert index.verify() == 100


def test_file_roles_and_height():
    index, _ = loaded()
    roles = index.file_roles()
    assert set(roles.values()) == {"inner", "leaf"}
    assert index.height() == 3
