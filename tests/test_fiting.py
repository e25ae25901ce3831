"""FITing-tree-specific tests: segments, delta buffers, SMOs, head buffer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fiting import FitingTreeIndex
from repro.core.serial import NULL_BLOCK
from repro.storage import NULL_DEVICE, BlockDevice, Pager

from tests.util import (ReferenceModel, check_full_agreement, items_of,
                        random_sorted_keys)


def fresh(block_size=4096, **kwargs):
    device = BlockDevice(block_size, NULL_DEVICE)
    return FitingTreeIndex(Pager(device), **kwargs), device


def test_parameter_validation():
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        FitingTreeIndex(Pager(device), error_bound=0)
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        FitingTreeIndex(Pager(device), buffer_capacity=0)


def test_segment_count_tracks_hardness():
    smooth = list(range(0, 500_000, 10))
    index, _ = fresh()
    index.bulk_load(items_of(smooth))
    assert index.num_segments == 1  # perfectly linear: one segment

    rng = random.Random(1)
    jagged = sorted(rng.sample(range(10**14), 50_000))
    hard, _ = fresh()
    hard.bulk_load(items_of(jagged))
    assert hard.num_segments > index.num_segments


def test_error_bound_controls_segments():
    keys = random_sorted_keys(20_000, seed=5)
    tight, _ = fresh(error_bound=8)
    tight.bulk_load(items_of(keys))
    loose, _ = fresh(error_bound=256)
    loose.bulk_load(items_of(keys))
    assert tight.num_segments >= loose.num_segments


def test_buffer_absorbs_inserts_without_smo():
    keys = list(range(0, 100_000, 10))
    index, _ = fresh(buffer_capacity=256)
    index.bulk_load(items_of(keys))
    for key in range(5, 2000, 10):  # < 256 inserts into one segment region
        index.insert(key, key + 1)
    assert index.num_resegments == 0
    assert index.lookup(15) == 16


def test_resegment_triggers_when_buffer_full():
    keys = list(range(0, 100_000, 10))
    index, _ = fresh(buffer_capacity=16)
    index.bulk_load(items_of(keys))
    for key in range(1, 400, 2):
        index.insert(key, key + 1)
    assert index.num_resegments >= 1
    for key in range(1, 400, 2):
        assert index.lookup(key) == key + 1
    for key in range(0, 400, 10):
        assert index.lookup(key) == key + 1


def test_resegment_updates_segment_count():
    keys = list(range(0, 50_000, 10))
    index, _ = fresh(buffer_capacity=8)
    index.bulk_load(items_of(keys))
    before = index.num_segments
    rng = random.Random(2)
    inserted = set()
    while len(inserted) < 500:
        key = rng.randrange(50_000)
        if key % 10 == 0 or key in inserted:
            continue
        inserted.add(key)
        index.insert(key, key + 1)
    assert index.num_resegments > 0
    assert index.num_segments >= before


def test_head_buffer_collects_small_keys():
    keys = list(range(10_000, 20_000, 5))
    index, _ = fresh()
    index.bulk_load(items_of(keys))
    for key in range(100, 140):
        index.insert(key, key + 1)
    for key in range(100, 140):
        assert index.lookup(key) == key + 1
    # The head buffer participates in scans.
    assert index.scan(100, 3) == [(100, 101), (101, 102), (102, 103)]


def test_head_buffer_flush_creates_segments():
    keys = list(range(100_000, 200_000, 10))
    index, _ = fresh()
    index.bulk_load(items_of(keys))
    segments_before = index.num_segments
    head_capacity = index._head_capacity
    small = list(range(0, (head_capacity + 10) * 3, 3))
    for key in small:
        index.insert(key, key + 1)
    assert index.num_segments > segments_before
    for key in small:
        assert index.lookup(key) == key + 1, key
    assert index.scan(0, 2) == [(0, 1), (3, 4)]
    assert index.global_min == 0


def test_sibling_chain_after_resegment():
    keys = list(range(0, 30_000, 3))
    index, _ = fresh(buffer_capacity=8)
    index.bulk_load(items_of(keys))
    present = sorted(keys)
    rng = random.Random(3)
    import bisect
    for _ in range(300):
        key = rng.randrange(30_000)
        i = bisect.bisect_left(present, key)
        if i < len(present) and present[i] == key:
            continue
        present.insert(i, key)
        index.insert(key, key + 1)
    # A long scan crosses many segments; the sibling chain must be intact.
    result = index.scan(present[0], len(present))
    assert result == [(k, k + 1) for k in present]


def test_lookup_hits_buffered_key_via_header_path(device):
    index = FitingTreeIndex(Pager(device))
    keys = list(range(0, 100_000, 10))
    index.bulk_load(items_of(keys))
    index.insert(15, 16)
    assert index.lookup(15) == 16


def test_data_region_miss_falls_through_to_the_delta_buffer():
    index, _ = fresh()
    keys = list(range(0, 100_000, 10))
    index.bulk_load(items_of(keys))
    index.insert(15, 16)
    index.insert(25, 26)
    assert index.lookup_many([15, 20, 25, 35]) == [16, 21, 26, None]
    assert index.update(15, 17) and index.lookup(15) == 17
    assert index.delete(15)  # a tombstone in the buffer
    assert index.lookup(15) is None and not index.update(15, 1)
    assert index.scan(10, 3) == [(10, 11), (20, 21), (25, 26)]
    index.insert(15, 18)  # over the buffered tombstone
    assert index.lookup(15) == 18
    with pytest.raises(KeyError):
        index.insert(15, 19)
    # A deleted data-region key: the tombstone stays in the data region
    # and the re-insert in the buffer is the live copy.
    assert index.delete(200) and index.lookup(200) is None
    index.insert(200, 7)
    assert index.lookup(200) == 7
    assert index.scan(190, 3) == [(190, 191), (200, 7), (210, 211)]
    assert index.verify() == len(keys) + 2


def test_scan_follows_lookup_precedence_after_shadowing_insert():
    """An insert of a key that lives in a segment's data region cannot
    see it and lands in the delta buffer; the live data-region copy is
    what lookup, resegment and scan serve."""
    index, _ = fresh()
    keys = list(range(0, 100_000, 10))
    index.bulk_load(items_of(keys))
    index.insert(keys[100], 99)
    assert index.lookup(keys[100]) == keys[100] + 1
    assert index.scan(keys[100], 1) == [(keys[100], keys[100] + 1)]
    assert index.scan(keys[99], 3) == items_of(keys[99:102])
    assert index.verify() == len(keys)
    # Updates and deletes reach both copies.
    assert index.update(keys[100], 5)
    assert index.scan(keys[100], 1) == [(keys[100], 5)] == [
        (keys[100], index.lookup(keys[100]))]
    assert index.delete(keys[100])
    assert index.lookup(keys[100]) is None
    assert index.scan(keys[99], 2) == [(keys[99], keys[99] + 1),
                                       (keys[101], keys[101] + 1)]


def test_lookup_miss_reads_more_blocks_than_hit():
    device = BlockDevice(4096)
    pager = Pager(device)
    index = FitingTreeIndex(pager)
    keys = random_sorted_keys(50_000, seed=6)
    index.bulk_load(items_of(keys))
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(keys[25_000])
    hit_cost = device.stats.reads - before
    pager.drop_last_block()
    missing = keys[25_000] + 1
    assert missing not in set(keys)
    before = device.stats.reads
    index.lookup(missing)
    miss_cost = device.stats.reads - before
    # A miss additionally consults the segment header + delta buffer.
    assert miss_cost >= hit_cost


def test_memory_resident_inner_removes_directory_io():
    device = BlockDevice(4096)
    pager = Pager(device)
    index = FitingTreeIndex(pager)
    keys = random_sorted_keys(50_000, seed=7)
    index.bulk_load(items_of(keys))
    index.set_inner_memory_resident(True)
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(keys[123])
    resident_cost = device.stats.reads - before
    index.set_inner_memory_resident(False)
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(keys[456])
    disk_cost = device.stats.reads - before
    assert resident_cost < disk_cost


# -- a segment's first key is its directory key ------------------------------------

def directory_keys(index):
    with index._free_io():
        return [key for key, _ in index.directory.iterate_from(0)]


def chain_first_keys(index):
    """First keys of the segments along the sibling chain."""
    out, block = [], index.first_segment_block
    with index._free_io():
        while block != NULL_BLOCK:
            header = index._read_header(block)
            out.append(header.first_key)
            block = header.right_sib
    return out


def check_against(index, model):
    """Directory == chain, point path == scan path == the model."""
    assert index.verify() == len(model)
    assert directory_keys(index) == chain_first_keys(index)
    assert index.num_segments == index.directory.num_records
    batch = model.keys() + model.keys()[:3]
    assert index.lookup_many(batch) == [model.lookup(key) for key in batch]
    check_full_agreement(index, model, key_space=10**6)


@pytest.mark.parametrize("lost", ["first key", "all keys", "first key, live in buffer"])
@pytest.mark.parametrize("segment", ["first", "middle", "last"])
def test_resegment_of_a_segment_whose_first_key_was_deleted(segment, lost):
    """ROADMAP 1(d): the resegment SMO used to ``update(new first key) or
    insert``, so a segment that lost its first key left the old record
    in the directory, pointing at the freed extent."""
    keys = random_sorted_keys(400, seed=9, key_space=10**6)
    index, _ = fresh(error_bound=8, buffer_capacity=4)
    index.bulk_load(items_of(keys))
    model = ReferenceModel(items_of(keys))
    firsts = directory_keys(index)
    assert len(firsts) >= 3
    at = {"first": 0, "middle": len(firsts) // 2, "last": len(firsts) - 1}[segment]
    victim = firsts[at]
    assert (victim == index.global_min) == (segment == "first")
    end = firsts[at + 1] if at + 1 < len(firsts) else keys[-1] + 100
    doomed = ([key for key in keys if victim <= key < end] if lost == "all keys"
              else [victim])
    for key in doomed:
        assert index.delete(key) and model.delete(key)
    if lost == "first key, live in buffer":
        index.insert(victim, 5)  # over the data region's tombstone
        model.insert(victim, 5)
    before = index.num_resegments
    key = victim
    while index.num_resegments == before:
        key += 1
        if key not in model and key not in doomed:
            assert key < end
            index.insert(key, key + 1)
            model.insert(key, key + 1)
    check_against(index, model)
    assert index.lookup(victim) == model.lookup(victim)
    if victim not in model:
        index.insert(victim, 7)
        model.insert(victim, 7)
        assert index.lookup(victim) == 7
        assert index.lookup_many([victim, victim + 1, victim]) == [
            7, model.lookup(victim + 1), 7]
        check_against(index, model)
    # Below the segment's new first live key, above its directory key.
    assert index.scan(victim + 1, 2) == model.scan(victim + 1, 2)


_HISTORY = st.lists(st.tuples(
    st.sampled_from(["insert", "insert", "insert after first", "delete",
                     "delete first", "update", "reinsert"]),
    st.integers(0, 3999)), min_size=20, max_size=120)


@settings(max_examples=60, deadline=None)
@given(error_bound=st.sampled_from([2, 8]), buffer_capacity=st.sampled_from([4, 8]),
       bulk=st.lists(st.integers(500, 3499), min_size=1, max_size=80, unique=True),
       history=_HISTORY)
def test_histories_that_delete_directory_keys(error_bound, buffer_capacity, bulk,
                                              history):
    """Deletes drawn half from the current directory keys, inserts
    anywhere (the head buffer holds 15 entries of these 256-byte blocks
    and flushes) and right after a directory key, updates and
    re-inserts: after every SMO the index equals the model, ``lookup``
    and ``scan`` agree and ``verify()`` passes."""
    index, _ = fresh(256, error_bound=error_bound, buffer_capacity=buffer_capacity)
    index.bulk_load(items_of(sorted(bulk)))
    model = ReferenceModel(items_of(sorted(bulk)))
    dead = []
    for kind, value in history:
        smos = (index.num_resegments, index.num_segments)
        if kind == "insert after first":
            firsts = directory_keys(index)
            value = firsts[value % len(firsts)] + 1
            while value in model:
                value += 1
            kind = "insert"
        if kind == "insert" or (kind == "reinsert" and not dead):
            if value in model:
                continue
            index.insert(value, value + 2)
            model.insert(value, value + 2)
        elif kind == "reinsert":
            key = dead.pop(value % len(dead))
            if key not in model:
                index.insert(key, value)
                model.insert(key, value)
        elif len(model):
            pool = directory_keys(index) if kind == "delete first" else model.keys()
            key = pool[value % len(pool)]
            if kind == "update":
                assert index.update(key, value) == model.update(key, value)
            else:
                assert index.delete(key) == model.delete(key)
                dead.append(key)
        if smos != (index.num_resegments, index.num_segments):
            check_against(index, model)
    check_against(index, model)
