"""LIPP-specific tests: FMCD nodes, conflict children, path statistics,
the one slot walk against a per-slot reference, the shapes it meets
and the single-pass node build against the one that predicted each key
three times."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lipp import (HEADER_SIZE, SLOT_DATA, SLOT_NODE, SLOT_NULL,
                             SLOT_SIZE, LippIndex)
from repro.datasets import make_dataset
from repro.models import build_fmcd_model
from repro.storage import HDD, NULL_DEVICE, BlockDevice, BufferPool, Pager

from tests.util import (charges_of, items_of, lipp_header, lipp_slot,
                        random_sorted_keys, reference_lipp_build_node)


def fresh(**kwargs):
    device = BlockDevice(4096, NULL_DEVICE)
    return LippIndex(Pager(device), **kwargs), device


def test_parameter_validation():
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        LippIndex(Pager(device), rebuild_factor=0)


@pytest.mark.parametrize("gap_count", [0, -1])
def test_build_gap_count_below_one_is_rejected(gap_count):
    """ROADMAP 1(f): with no gap, 200 random keys over ``2**30 * 200``
    never returned from ``bulk_load`` (-1 died in ``struct``); the
    original LIPP never builds with fewer than one gap per key."""
    with pytest.raises(ValueError, match="build gap count"):
        LippIndex(Pager(BlockDevice(4096, NULL_DEVICE)), build_gap_count=gap_count)
    index = LippIndex(Pager(BlockDevice(4096, NULL_DEVICE)), build_gap_count=1)
    keys = sorted(random.Random(0).sample(range(2**30 * 200), 200))
    index.bulk_load(items_of(keys))
    assert index.verify() == 200


def test_no_memory_resident_inner():
    """The paper excludes LIPP from the hybrid case (Section 6.2)."""
    index, _ = fresh()
    index.bulk_load(items_of([1, 2, 3]))
    with pytest.raises(NotImplementedError):
        index.set_inner_memory_resident(True)


def test_exact_positions_on_uniform_data():
    """FMCD on uniform data places nearly every key at depth 1."""
    index, _ = fresh()
    keys = random_sorted_keys(20_000, seed=1)
    index.bulk_load(items_of(keys))
    assert index.height() <= 3


def test_conflict_insert_creates_child_node():
    index, _ = fresh()
    keys = list(range(0, 100_000, 100))
    index.bulk_load(items_of(keys))
    conflicts_before = index.num_conflict_nodes
    # Keys immediately adjacent to existing keys predict to occupied slots.
    inserted = []
    for key in range(1, 5001, 100):
        index.insert(key, key + 1)
        inserted.append(key)
    assert index.num_conflict_nodes > conflicts_before
    for key in inserted:
        assert index.lookup(key) == key + 1
    for key in keys[:60]:
        assert index.lookup(key) == key + 1


def test_insert_into_null_slot_no_conflict():
    index, _ = fresh()
    # Widely spaced keys: a key placed in the middle of a huge gap lands
    # in a NULL slot.
    keys = [i * 10**9 for i in range(1, 2000)]
    index.bulk_load(items_of(keys))
    before = index.num_conflict_nodes
    index.insert(keys[1000] + 500_000_000, 7)
    assert index.lookup(keys[1000] + 500_000_000) == 7
    assert index.num_conflict_nodes == before


def test_path_statistics_updated_on_insert():
    index, _ = fresh()
    keys = random_sorted_keys(5000, seed=2)
    index.bulk_load(items_of(keys))
    root_before = lipp_header(index, index.root_block)
    key = keys[100] + 1
    assert key not in set(keys)
    index.insert(key, key + 1)
    root_after = lipp_header(index, index.root_block)
    assert root_after.num_inserts == root_before.num_inserts + 1
    assert root_after.item_count == root_before.item_count + 1


def test_every_insert_writes_all_path_headers():
    device = BlockDevice(4096)
    pager = Pager(device)
    index = LippIndex(pager)
    keys = random_sorted_keys(5000, seed=3)
    index.bulk_load(items_of(keys))
    writes_before = device.stats.writes_by_phase.get("maintenance", 0)
    key = keys[42] + 1
    index.insert(key, key + 1)
    maintenance_writes = device.stats.writes_by_phase.get("maintenance", 0) - writes_before
    assert maintenance_writes >= 1  # at least the root header


def test_subtree_rebuild_triggers():
    index, _ = fresh(rebuild_factor=0.5)
    keys = list(range(0, 40_000, 40))
    index.bulk_load(items_of(keys))
    present = set(keys)
    rng = random.Random(4)
    while len(present) < 3000:
        key = rng.randrange(40_000)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    assert index.num_rebuilds >= 1
    for key in rng.sample(sorted(present), 400):
        assert index.lookup(key) == key + 1


def test_rebuild_reduces_conflict_chains():
    index, _ = fresh(rebuild_factor=0.25)
    keys = list(range(0, 10_000, 10))
    index.bulk_load(items_of(keys))
    present = set(keys)
    rng = random.Random(5)
    while len(present) < 2000:
        key = rng.randrange(10_000)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    # After rebuilds the tree must stay shallow relative to insert volume.
    assert index.height() <= 6


def test_node_slot_overallocation():
    """The 5x slot allocation for small nodes (paper O11)."""
    index, device = fresh()
    keys = random_sorted_keys(10_000, seed=6)
    index.bulk_load(items_of(keys))
    header = lipp_header(index, index.root_block)
    assert header.num_slots == 5 * len(keys)


def test_slot_flags_are_consistent():
    index, _ = fresh()
    keys = random_sorted_keys(3000, seed=7)
    index.bulk_load(items_of(keys))
    header = lipp_header(index, index.root_block)
    seen = 0
    for slot in range(header.num_slots):
        flag, slot_key, payload = lipp_slot(index, index.root_block, slot)
        assert flag in (SLOT_NULL, SLOT_DATA, SLOT_NODE)
        if flag == SLOT_DATA:
            seen += 1
            assert payload == slot_key + 1
        elif flag == SLOT_NODE:
            child_header = lipp_header(index, slot_key)
            seen += child_header.item_count
    assert seen == len(keys)


def test_lookup_cost_is_two_blocks_per_level():
    """Table 2: LIPP lookup = 2 log N — header + slot per level."""
    device = BlockDevice(4096)
    pager = Pager(device)
    index = LippIndex(pager)
    keys = random_sorted_keys(30_000, seed=8)
    index.bulk_load(items_of(keys))
    costs = []
    for key in random.Random(9).sample(keys, 50):
        pager.drop_last_block()
        before = device.stats.reads
        index.lookup(key)
        costs.append(device.stats.reads - before)
    assert min(costs) >= 2
    assert sum(costs) / len(costs) <= 2 * index.height()


def test_scan_traverses_children_in_order():
    index, _ = fresh()
    keys = sorted(random.Random(10).sample(range(10**7), 5000))
    index.bulk_load(items_of(keys))
    present = sorted(set(keys))
    # Force conflict children, then scan across them.
    extra = [k + 1 for k in keys[:300] if k + 1 not in set(keys)]
    for key in extra:
        index.insert(key, key + 1)
    present = sorted(set(present) | set(extra))
    assert index.scan(present[0], 500) == [(k, k + 1) for k in present[:500]]


def test_insert_requires_bulk_load():
    index, _ = fresh()
    with pytest.raises(RuntimeError):
        index.insert(1, 2)


# -- the one slot walk, against a reference -----------------------------------


def _per_slot_walk(index, block, start_key=0, depth=1):
    """The walk as the paper charges it: the header, then one
    ``read_bytes`` of 24 bytes per slot, nothing held between them,
    recursing into a conflict child at its slot.  Yields what
    ``LippIndex._walk`` yields, so everything built on the walk (scan,
    subtree rebuild and freeing, verify, height) can run on either."""
    header = lipp_header(index, block)
    first_slot = header.predict(start_key) if start_key else 0
    walked = 0
    for slot in range(first_slot, header.num_slots):
        flag, key, payload = lipp_slot(index, block, slot)
        if flag == SLOT_DATA:
            if key >= start_key:
                walked += 1
                yield slot, key, payload, header
        elif flag == SLOT_NODE:
            child_start = start_key if slot == first_slot else 0
            for event in _per_slot_walk(index, key, child_start, depth + 1):
                yield event
            walked += event[1]  # the child's own leave event comes last
    yield -depth, walked, block, header


def _lipp(block_size, keys, gap_count, pool=None):
    index = LippIndex(Pager(BlockDevice(block_size, HDD), buffer_pool=pool),
                      rebuild_factor=0.5, build_gap_count=gap_count)
    index.bulk_load(items_of(keys))
    return index


def _lipp_pair(block_size, pooled, keys, gap_count):
    """The index under test and a twin built by the same calls whose
    every walk is the per-slot reference."""
    index, twin = (_lipp(block_size, keys, gap_count,
                         BufferPool(2) if pooled else None) for _ in range(2))
    twin._walk = lambda root, start_key=0: _per_slot_walk(twin, root, start_key)
    return index, twin


@st.composite
def _lipp_histories(draw):
    """Clustered keys (conflict children several levels deep), then
    inserts beside stored keys (more children; enough of them rebuild a
    subtree at ``rebuild_factor=0.5``), deletes (NULL slots, emptied
    children) and scans from anywhere for any count."""
    spread = draw(st.sampled_from([3, 40, 1 << 30]))
    low = draw(st.integers(1, 1 << 62))
    keys = sorted({low + draw(st.integers(0, spread * 200))
                   for _ in range(draw(st.integers(1, 200)))})
    gap_count = draw(st.sampled_from([1, 2, 4]))  # 2x, 3x, 5x slots per item
    key = st.one_of(st.sampled_from(keys),
                    st.integers(low - 2, low + spread * 200 + 2),
                    st.sampled_from([0, 1, keys[0] - 1, keys[-1] + 1, 2**64 - 1]))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("scan"), key, st.integers(1, 2 * len(keys) + 2)),
        st.tuples(st.just("insert"), key, st.just(0)),
        st.tuples(st.just("delete"), key, st.just(0))),
        min_size=1, max_size=30))
    return keys, gap_count, ops


@pytest.mark.parametrize("pooled", [False, True], ids=["nopool", "pool2"])
@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=60, deadline=None)
@given(history=_lipp_histories())
def test_walk_matches_and_charges_like_per_slot_reads(block_size, pooled, history):
    """Same answers, and after every operation every ``StorageStats``
    field (and every buffer-pool probe, with two frames) equals the
    per-slot reference's: the walker may leave out only the requests the
    pager answers from its last-block copy.  24-byte slots do not divide
    256- or 512-byte blocks, so slots lie across block boundaries.

    Kills: holding the block across a child subtree (the parent's block
    is charged again after it); holding a block after a slot read as a
    two-block range; reading a node or a block ahead of the slot needed
    (a scan ending on a block's last slot must not touch the next one);
    dropping the start-key filter below the first slot's child.
    """
    keys, gap_count, ops = history
    index, twin = _lipp_pair(block_size, pooled, keys, gap_count)
    stored = set(keys)
    for op, key, count in ops:
        if op == "scan":
            expected = [(k, k + 1) for k in sorted(stored) if k >= key][:count]
            assert index.scan(key, count) == expected
            assert twin.scan(key, count) == expected
        elif op == "insert" and key not in stored and key + 1 < 2**64:
            stored.add(key)
            index.insert(key, key + 1)
            twin.insert(key, key + 1)
        elif op == "delete":
            stored.discard(key)
            assert index.delete(key) == twin.delete(key)
        assert charges_of(index) == charges_of(twin), (op, key, count)
        if pooled:
            assert ((index.pager.buffer_pool.hits, index.pager.buffer_pool.misses)
                    == (twin.pager.buffer_pool.hits, twin.pager.buffer_pool.misses))
    assert index.num_rebuilds == twin.num_rebuilds
    assert index.verify() == twin.verify() == len(stored)
    assert index.height() == twin.height()
    assert charges_of(index) == charges_of(twin)


@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=40, deadline=None)
@given(history=_lipp_histories())
def test_walk_inside_a_batch_asks_for_each_block_once(block_size, history):
    """``scan_range`` pages through ``scan`` inside ``pager.batch()``:
    same rows and same charges as per-slot reads in a batch of their
    own, and no block is charged twice while it is pinned."""
    keys, gap_count, ops = history
    index, twin = _lipp_pair(block_size, False, keys, gap_count)
    for _op, low, span in ops:
        high = min(low + span * 7, 2**64 - 1)
        expected = [(k, k + 1) for k in keys if low <= k <= high]
        reads = index.pager.stats.reads
        assert index.scan_range(low, high, batch=5) == expected
        assert twin.scan_range(low, high, batch=5) == expected
        assert charges_of(index) == charges_of(twin), (low, high)
        assert index.pager.stats.reads - reads <= index._file.num_blocks


def test_walk_reference_cases_are_really_generated():
    """The shapes the properties above (and the lipp cases of
    tests/test_held_block.py) are meant to cover do occur on 256-byte
    blocks: a conflict child in the first and in the last whole slot of
    a block, a child in a slot lying across two blocks, a one-key node
    (two slots, the smallest a build makes) and a node of several
    blocks."""
    rng = random.Random(11)
    keys = sorted({rng.randrange(1 << 20) * 1000 + rng.randrange(6)
                   for _ in range(400)})
    index = _lipp(256, keys, 1)
    shapes = set()
    nodes = [index.root_block]
    while nodes:
        block = nodes.pop()
        header = lipp_header(index, block)
        if header.num_slots * SLOT_SIZE > 3 * 256:
            shapes.add("several blocks")
        for slot in range(header.num_slots):
            flag, child, _payload = lipp_slot(index, block, slot)
            if flag != SLOT_NODE:
                continue
            nodes.append(child)
            at = (HEADER_SIZE + slot * SLOT_SIZE) % 256
            shapes.add("first of block" if at < SLOT_SIZE and at + SLOT_SIZE <= 256
                       else "across blocks" if at + SLOT_SIZE > 256
                       else "last of block" if at + 2 * SLOT_SIZE > 256
                       else "inside")
    one = _lipp(256, [7], 1)
    assert lipp_header(one, one.root_block).num_slots == 2
    assert shapes >= {"several blocks", "first of block", "across blocks",
                      "last of block", "inside"}


# -- the single-pass node build, against the per-key one ----------------------


def _dense_run_plus_outliers(n):
    """An OSM-like shape: a run of near-consecutive keys at 2**62 behind
    a few far smaller ones.  Anchored at the first key, the run's offsets
    are past float64's integers, FMCD's fine slots collapse and the
    min-max fallback takes over."""
    rng = random.Random(13)
    dense = rng.sample(range(2**62, 2**62 + 2 * n), n - 40)
    return sorted(set(dense) | {rng.randrange(2**63, 2**64) for _ in range(20)}
                  | {rng.randrange(10**6) for _ in range(20)})


def test_dense_run_plus_outliers_takes_the_min_max_fallback():
    """Without it the comparison below would not reach the fallback."""
    index, _ = fresh()
    node_model = index._node_model
    fell_back = []

    def spy(keys, num_slots):
        model, slots, cuts = node_model(keys, num_slots)
        fell_back.append(model != build_fmcd_model(keys, num_slots).model)
        return model, slots, cuts

    index._node_model = spy
    index.bulk_load(items_of(_dense_run_plus_outliers(2000)))
    assert any(fell_back)


@pytest.mark.parametrize("shape", ["osm", "fb", "wise", "dense-run-plus-outliers"])
def test_single_pass_build_writes_what_the_per_key_build_writes(shape):
    """Bulk load, conflict children and subtree rebuilds included: the
    same bytes in the same blocks for the same charges."""
    keys = (_dense_run_plus_outliers(2000) if shape == "dense-run-plus-outliers"
            else make_dataset(shape, 2000, seed=5).tolist())
    rng = random.Random(3)
    rng.shuffle(keys)
    bulk, later = sorted(keys[:1200]), keys[1200:]
    indexes = []
    for reference in (False, True):
        index = LippIndex(Pager(BlockDevice(512, HDD)))
        if reference:
            index._build_node = lambda items, index=index: (
                reference_lipp_build_node(index, items))
        index.bulk_load(items_of(bulk))
        for key in later:
            index.insert(key, key + 1)
        assert index.verify() == len(keys)
        indexes.append(index)
    got, want = indexes
    assert got.num_conflict_nodes == want.num_conflict_nodes > 0
    assert got.num_rebuilds == want.num_rebuilds > 0
    assert charges_of(got) == charges_of(want)
    assert (zlib.crc32(b"".join(bytes(b) for b in got._file.blocks))
            == zlib.crc32(b"".join(bytes(b) for b in want._file.blocks)))
