"""Byte-level page operations of the B+-tree: property and edge tests.

The tree never parses a node; it bisects and splices the block bytes.
These tests hold the inner pages to reference routing over their parsed
entries and the tree to its edges; the leaf pages themselves are held to
the packed reference in ``tests/test_leaffile.py``.
"""

import struct
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.btree import HEADER_SIZE, INNER_ENTRY_SIZE, BPlusTree
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager

from tests.test_leaffile import MAX_KEY, data_of, reference_leaf


def make_tree(data_size=8, block_size=512, profile=NULL_DEVICE):
    device = BlockDevice(block_size, profile)
    return BPlusTree(Pager(device), device.create_file("i"),
                     device.create_file("l"), data_size=data_size)


def parse_inner(page):
    count, child_is_leaf = struct.unpack_from("<HB", page, 0)
    entries = [struct.unpack_from("<QI", page, HEADER_SIZE + i * INNER_ENTRY_SIZE)
               for i in range(count)]
    assert not any(page[HEADER_SIZE + count * INNER_ENTRY_SIZE:]), "tail not zero"
    return bool(child_is_leaf), [k for k, _ in entries], [c for _, c in entries]


def reference_descend(tree, key):
    """Route over parsed inner pages: rightmost separator <= key, entry
    0's separator standing for minus infinity."""
    block, at_leaf = tree.root_block, tree.root_is_leaf
    while not at_leaf:
        at_leaf, keys, children = parse_inner(
            bytes(tree.inner_file.blocks[block]))
        assert keys[1:] == sorted(keys[1:])
        assert len(keys) <= tree.inner_capacity
        block = children[bisect_right(keys[1:], key)]
    return block


def leaf_keys(tree, block):
    page = bytes(tree.leaves.file.blocks[block])
    count = struct.unpack_from("<H", page, 0)[0]
    return [struct.unpack_from("<Q", page, HEADER_SIZE + i * tree.leaves.record_size)[0]
            for i in range(count)]


@pytest.mark.parametrize("data_size", [8, 28])
def test_leaf_split_promotes_the_right_halfs_first_key(data_size):
    tree = make_tree(data_size)
    tree.bulk_load([])
    keys = list(range(10, 10 + 7 * (tree.leaves.capacity + 1), 7))
    for key in keys:
        tree.insert(key, data_of(key, data_size))
    assert leaf_keys(tree, 0) + leaf_keys(tree, 1) == keys
    assert parse_inner(bytes(tree.inner_file.blocks[tree.root_block])) == (
        True, [0, leaf_keys(tree, 1)[0]], [0, 1])


# -- inner pages against reference routing ---------------------------------------

@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(0, MAX_KEY) | st.integers(0, 500),
                     min_size=1, max_size=300, unique=True),
       bulk_share=st.integers(0, 100), data=st.data())
def test_inner_pages_route_like_the_reference(keys, bulk_share, data):
    # 64-byte blocks: 3 records per leaf, 4 separators per inner node, so
    # a few hundred inserts split inner nodes at several levels.
    tree = make_tree(block_size=64)
    bulk = sorted(keys[: len(keys) * bulk_share // 100])
    tree.bulk_load([(k, data_of(k, 8)) for k in bulk])
    for key in keys[len(bulk):]:
        tree.insert(key, data_of(key, 8))
    probes = keys + data.draw(st.lists(st.integers(0, MAX_KEY), max_size=20))
    for key in probes + [0, MAX_KEY]:
        leaf = reference_descend(tree, key)
        assert tree._descend(key) == leaf
        assert (key in leaf_keys(tree, leaf)) == (key in keys)
        assert tree.lookup(key) == (data_of(key, 8) if key in keys else None)
    assert [k for k, _ in tree.iterate_from(0)] == sorted(keys)


def test_inserts_below_the_bulk_minimum_survive_leftmost_splits():
    """Child 0's separator is the bulk-loaded minimum, not minus infinity;
    a split of the leftmost leaf promotes a key at or below it.  Routing
    must not compare entry 0's separator, or the right half is lost."""
    tree = make_tree()
    bulk = list(range(10_000, 40_000, 10))
    tree.bulk_load([(k, data_of(k, 8)) for k in bulk])
    assert tree.num_levels == 3
    small = list(range(5_000, 5_400))
    for key in small:                      # ascending, then descending
        tree.insert(key, data_of(key, 8))
    for key in range(4_999, 4_600, -1):
        tree.insert(key, data_of(key, 8))
        small.append(key)
    for key in bulk + small:
        assert tree.lookup(key) == data_of(key, 8), key
    assert [k for k, _ in tree.iterate_from(0)] == sorted(bulk + small)


# -- edges -------------------------------------------------------------------------

def multi_level_tree():
    tree = make_tree()
    keys = list(range(1000, 61_000, 20))
    tree.bulk_load([(k, data_of(k, 8)) for k in keys])
    assert tree.num_levels == 3
    return tree, keys


def test_key_below_every_separator_clamps_to_child_zero():
    tree, keys = multi_level_tree()
    assert tree._descend(0) == tree._descend(keys[0]) == 0
    assert tree.lookup(0) is None and tree.floor_record(999) is None
    assert next(tree.iterate_from(0)) == (keys[0], data_of(keys[0], 8))
    tree.insert(0, data_of(0, 8))
    assert tree.lookup(0) == data_of(0, 8)
    assert tree.floor_record(999) == (0, data_of(0, 8))


def test_extreme_keys():
    tree, keys = multi_level_tree()
    for key in (0, MAX_KEY):
        assert tree.lookup(key) is None
        assert not tree.update(key, data_of(1, 8)) and not tree.delete(key)
        tree.insert(key, data_of(key, 8))
        assert tree.lookup(key) == data_of(key, 8)
    assert tree.floor_record(MAX_KEY) == (MAX_KEY, data_of(MAX_KEY, 8))
    assert tree.floor_record(MAX_KEY - 1)[0] == keys[-1]
    assert list(tree.iterate_from(MAX_KEY)) == [(MAX_KEY, data_of(MAX_KEY, 8))]
    assert next(tree.iterate_from(0))[0] == 0
    assert tree.lookup_many_records([0, 5, MAX_KEY]) == {
        0: data_of(0, 8), MAX_KEY: data_of(MAX_KEY, 8), 5: None}


def test_empty_tree_is_one_empty_root_leaf():
    tree = make_tree()
    tree.bulk_load([])
    assert tree.root_is_leaf and tree.num_levels == 1
    assert bytes(tree.leaves.file.blocks[0]) == reference_leaf(512, {})
    assert tree.lookup(7) is None and tree.floor_record(7) is None
    assert list(tree.iterate_from(0)) == []
    assert not tree.update(7, data_of(7, 8)) and not tree.delete(7)
    assert tree.lookup_many_records([3, 7]) == {3: None, 7: None}
    assert tree.floor_records([3, 7]) == {3: None, 7: None}


def test_unloaded_tree_refuses_to_descend():
    with pytest.raises(RuntimeError):
        make_tree().lookup(1)


def test_leaf_emptied_by_deletes():
    tree, keys = multi_level_tree()
    second = leaf_keys(tree, 1)
    for key in second:
        assert tree.delete(key)
    assert bytes(tree.leaves.file.blocks[1]) == reference_leaf(
        512, {}, next_=2, prev=0)
    assert all(tree.lookup(key) is None for key in second)
    survivors = [k for k in keys if k not in second]
    # scans walk across the empty leaf
    assert [k for k, _ in tree.iterate_from(second[0] - 50)][:40] == [
        k for k in survivors if k >= second[0] - 50][:40]
    # a floor inside the emptied range finds nothing to its left in that leaf
    assert tree.floor_record(second[3]) is None
    tree.insert(second[3], data_of(1, 8))
    assert tree.floor_record(second[3] + 1) == (second[3], data_of(1, 8))
    assert leaf_keys(tree, 1) == [second[3]]


def test_duplicate_insert_raises_before_any_write():
    tree, keys = multi_level_tree()
    writes = []
    tree.pager.on_block_access = lambda kind, file, block: (
        writes.append((file, block)) if kind == "w" else None)
    before = tree.num_records
    with pytest.raises(KeyError):
        tree.insert(keys[100], data_of(0, 8))
    assert writes == [] and tree.num_records == before
    tree.insert(keys[100] + 1, data_of(0, 8))
    assert len(writes) == 1


def test_floor_record_steps_to_the_previous_leaf():
    device = BlockDevice(512, HDD)
    tree = BPlusTree(Pager(device), device.create_file("i"), device.create_file("l"))
    keys = list(range(1000, 61_000, 20))
    tree.bulk_load([(k, data_of(k, 8)) for k in keys])
    first_of_third = leaf_keys(tree, 2)[0]
    last_of_second = leaf_keys(tree, 1)[-1]
    # Remove the third leaf's first key: a floor for it still routes to
    # the third leaf (its separator is unchanged) and must step back.
    tree.delete(first_of_third)
    tree.pager.drop_last_block()
    reads = device.stats.reads
    assert tree.floor_record(first_of_third) == (
        last_of_second, data_of(last_of_second, 8))
    assert device.stats.reads - reads == tree.num_levels + 1
    batch = tree.floor_records([keys[0] - 1, first_of_third, first_of_third + 1])
    assert batch == {first_of_third: (last_of_second, data_of(last_of_second, 8)),
                     first_of_third + 1: (last_of_second, data_of(last_of_second, 8)),
                     keys[0] - 1: None}
