"""B+-tree-specific tests: node geometry, splits, deletes, generic records."""

import random
import struct

import pytest

from repro.core.btree import BPlusTree, BTreeIndex
from repro.storage import NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, random_sorted_keys


def make_tree(data_size=8, block_size=4096, **kwargs):
    device = BlockDevice(block_size, NULL_DEVICE)
    pager = Pager(device)
    return BPlusTree(pager, device.create_file("i"), device.create_file("l"),
                     data_size=data_size, **kwargs)


def rec(key):
    return struct.pack("<Q", key + 1)


def test_leaf_capacity_matches_paper_arithmetic():
    tree = make_tree()
    # 4096-byte block, 16-byte header, 16-byte records -> 255 per leaf; at
    # the 0.8 fill factor that is 204, the paper's 980,393 leaves for 200M.
    assert tree.leaves.capacity == 255
    assert int(tree.leaves.capacity * 0.8) == 204


def test_bulk_load_empty_tree():
    tree = make_tree()
    tree.bulk_load([])
    assert tree.lookup(5) is None
    tree.insert(5, rec(5))
    assert tree.lookup(5) == rec(5)


def test_bulk_load_rejects_double_load():
    tree = make_tree()
    tree.bulk_load([(1, rec(1))])
    with pytest.raises(RuntimeError):
        tree.bulk_load([(2, rec(2))])


def test_height_grows_with_size():
    small = make_tree()
    small.bulk_load([(k, rec(k)) for k in range(100)])
    large = make_tree()
    large.bulk_load([(k, rec(k)) for k in range(60_000)])
    assert small.num_levels == 1
    assert large.num_levels >= 2


def test_insert_splits_to_greater_heights():
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in range(0, 4000, 4)])
    height_before = tree.num_levels
    for k in range(1, 4000, 4):
        tree.insert(k, rec(k))
    for k in range(2, 4000, 4):
        tree.insert(k, rec(k))
    assert tree.num_levels >= height_before
    for k in list(range(0, 4000, 4)) + list(range(1, 4000, 4)):
        assert tree.lookup(k) == rec(k)


def test_insert_duplicate_raises():
    tree = make_tree()
    tree.bulk_load([(5, rec(5))])
    with pytest.raises(KeyError):
        tree.insert(5, rec(5))


def test_insert_wrong_record_size_raises():
    tree = make_tree()
    tree.bulk_load([(5, rec(5))])
    with pytest.raises(ValueError):
        tree.insert(6, b"short")


def test_update_wrong_record_size_raises():
    # A wrong-sized splice would shift every later record of the page.
    tree = make_tree()
    tree.bulk_load([(5, rec(5))])
    with pytest.raises(ValueError):
        tree.update(5, b"short")
    assert tree.lookup(5) == rec(5)


def test_floor_record_semantics():
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in (10, 20, 30)])
    assert tree.floor_record(5) is None
    assert tree.floor_record(10) == (10, rec(10))
    assert tree.floor_record(25) == (20, rec(20))
    assert tree.floor_record(99) == (30, rec(30))


def test_floor_record_crosses_leaf_boundary():
    keys = list(range(0, 3000, 2))
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in keys])
    # A key just below some leaf's first key must land on the previous leaf.
    for probe in range(1, 2999, 101):
        expect = probe - 1 if probe % 2 else probe
        assert tree.floor_record(probe)[0] == expect


def test_update_in_place():
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in range(100)])
    assert tree.update(50, rec(999))
    assert tree.lookup(50) == rec(999)
    assert not tree.update(1_000_000, rec(0))


def test_delete_is_lazy():
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in range(500)])
    assert tree.delete(250)
    assert tree.lookup(250) is None
    assert not tree.delete(250)
    assert tree.lookup(249) == rec(249)
    assert tree.lookup(251) == rec(251)


def test_iterate_from_follows_leaf_links():
    keys = random_sorted_keys(5000, seed=9)
    tree = make_tree()
    tree.bulk_load([(k, rec(k)) for k in keys])
    run = [k for k, _ in tree.iterate_from(keys[1000])][:300]
    assert run == keys[1000:1300]


def test_generic_record_size():
    tree = make_tree(data_size=32)
    payload = bytes(range(32))
    tree.bulk_load([(7, payload)])
    assert tree.lookup(7) == payload
    assert tree.leaves.record_size == 40


def test_fill_factor_bounds():
    with pytest.raises(ValueError):
        make_tree(leaf_fill=0.01)
    with pytest.raises(ValueError):
        make_tree(inner_fill=1.5)


def test_tiny_blocks_rejected():
    with pytest.raises(ValueError):
        make_tree(block_size=32)


def test_index_wrapper_counts_leaf_blocks(free_pager):
    index = BTreeIndex(free_pager)
    keys = random_sorted_keys(10_000, seed=2)
    index.bulk_load(items_of(keys))
    expected_leaves = (len(keys) + 203) // 204
    assert index.num_leaf_blocks == expected_leaves


def test_index_delete(free_pager):
    index = BTreeIndex(free_pager)
    keys = random_sorted_keys(1000, seed=3)
    index.bulk_load(items_of(keys))
    assert index.delete(keys[10])
    assert index.lookup(keys[10]) is None


def test_lookup_counts_height_blocks():
    device = BlockDevice(4096, NULL_DEVICE)
    pager = Pager(device)
    index = BTreeIndex(pager)
    index.bulk_load(items_of(random_sorted_keys(60_000, seed=4)))
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(random_sorted_keys(60_000, seed=4)[30_000])
    # One block per level: the defining property of the on-disk B+-tree.
    assert device.stats.reads - before == index.height()
