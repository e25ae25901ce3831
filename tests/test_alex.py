"""ALEX-specific tests: gapped arrays, bitmap, SMO mechanisms, layouts,
the one in-node search against bisect and a per-probe reference, the
bitmap walk and the gap search against per-bit references and the
node-placement kernels against a per-key one."""

import dataclasses
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alex import (AlexIndex, _DataHeader, _entry_array, _pack_ptr,
                             _ptr_block, _ptr_is_data)
from repro.core.interface import TOMBSTONE
from repro.core.serial import ENTRY_SIZE, pack_entries
from repro.models import LinearModel
from repro.storage import HDD, NULL_DEVICE, BlockDevice, BufferPool, Pager

from tests.util import (ReferenceModel, Watch, charges_of, items_of, pages_of,
                        random_sorted_keys,
                        reference_alex_data_node, reference_alex_partition,
                        reference_fit_least_squares)


def fresh(**kwargs):
    device = BlockDevice(4096, NULL_DEVICE)
    return AlexIndex(Pager(device), **kwargs), device


def test_pointer_packing_roundtrip():
    for is_data in (True, False):
        for block in (0, 1, 2**31, 2**32 - 1):
            ptr = _pack_ptr(is_data, block)
            assert _ptr_is_data(ptr) == is_data
            assert _ptr_block(ptr) == block


def test_parameter_validation():
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        AlexIndex(Pager(device), layout=3)
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        AlexIndex(Pager(device), init_density=0.9, full_density=0.8)
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        AlexIndex(Pager(device), max_data_node_entries=4)


def test_layouts_agree_on_results():
    keys = random_sorted_keys(20_000, seed=1)
    for layout in (1, 2):
        index, _ = fresh(layout=layout)
        index.bulk_load(items_of(keys))
        for key in random.Random(2).sample(keys, 200):
            assert index.lookup(key) == key + 1


def test_layout2_uses_two_files_layout1_one():
    index2, device2 = fresh(layout=2)
    assert len(device2.files) == 2
    index1, device1 = fresh(layout=1)
    assert len(device1.files) == 1


def test_layout1_rejects_memory_resident_inner():
    index, _ = fresh(layout=1)
    index.bulk_load(items_of(list(range(100))))
    with pytest.raises(NotImplementedError):
        index.set_inner_memory_resident(True)


def test_expand_smo_fires_before_split():
    index, _ = fresh(max_data_node_entries=256)
    index.bulk_load(items_of(list(range(0, 1000, 10))))
    for key in range(1, 500, 10):
        index.insert(key, key + 1)
    assert index.num_expands >= 1
    assert index.num_splits == 0  # capacity cap not reached yet


def test_split_smo_fires_at_max_capacity():
    index, _ = fresh(max_data_node_entries=64, max_fanout=8)
    keys = random_sorted_keys(1000, seed=3, key_space=10**9)
    index.bulk_load(items_of(keys))
    present = set(keys)
    rng = random.Random(4)
    while len(present) < 4000:
        key = rng.randrange(10**9)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    assert index.num_splits > 0
    for key in rng.sample(sorted(present), 500):
        assert index.lookup(key) == key + 1


def test_split_down_grows_height():
    index, _ = fresh(max_data_node_entries=64, max_fanout=4)
    keys = list(range(0, 800, 4))
    index.bulk_load(items_of(keys))
    height_before = index.height()
    present = set(keys)
    rng = random.Random(5)
    while len(present) < 2500:
        key = rng.randrange(3000)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    assert index.num_split_downs > 0
    assert index.height() > height_before


def test_skewed_data_builds_deeper_tree():
    uniform, _ = fresh()
    uniform.bulk_load(items_of(random_sorted_keys(30_000, seed=6)))
    rng = random.Random(7)
    clusters = sorted(set(
        int(c) + off
        for c in rng.sample(range(0, 2**50, 2**40), 25)
        for off in rng.sample(range(50_000), 1200)
    ))
    skewed, _ = fresh()
    skewed.bulk_load(items_of(clusters))
    assert skewed.height() >= uniform.height()


def test_lookup_never_touches_bitmap():
    """ALEX overwrites gaps with entry copies so lookups skip the bitmap
    (paper S5); verify a lookup costs only header + entry probes."""
    device = BlockDevice(4096)
    pager = Pager(device)
    index = AlexIndex(pager)
    keys = random_sorted_keys(30_000, seed=8)
    index.bulk_load(items_of(keys))
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(keys[15_000])
    assert device.stats.reads - before <= index.height() + 3


def test_insert_updates_header_statistics():
    index, _ = fresh()
    keys = list(range(0, 5000, 10))
    index.bulk_load(items_of(keys))
    block, _parent = index._descend(4001)
    before = index._read_data_header(block)
    index.insert(4001, 4002)
    after = index._read_data_header(block)
    assert after.num_inserts == before.num_inserts + 1
    assert after.num_keys == before.num_keys + 1


def test_gapped_insert_cheaper_than_shift():
    """Inserting into a gap writes one entry; a conflicting slot forces
    shift writes — the gapped array's raison d'etre."""
    index, device = fresh()
    keys = list(range(0, 100_000, 100))
    index.bulk_load(items_of(keys))
    block, _ = index._descend(keys[50])
    header_before = index._read_data_header(block)
    shifts_before = header_before.num_shifts
    rng = random.Random(9)
    for key in rng.sample(range(1, 100_000), 300):
        if key % 100 == 0:
            continue
        try:
            index.insert(key, key + 1)
        except KeyError:
            pass
    # Some inserts found gaps (no shift) — the counter grows slower than
    # the insert count.
    block, _ = index._descend(keys[50])
    header_after = index._read_data_header(block)
    assert header_after.num_shifts - shifts_before < 300


def test_scan_uses_bitmap_blocks():
    device = BlockDevice(4096)
    pager = Pager(device)
    index = AlexIndex(pager)
    keys = random_sorted_keys(30_000, seed=10)
    index.bulk_load(items_of(keys))
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(keys[9])
    lookup_cost = device.stats.reads - before
    pager.drop_last_block()
    before = device.stats.reads
    index.scan(keys[9], 2000)
    scan_cost = device.stats.reads - before
    assert scan_cost > lookup_cost  # bitmap + extra entry blocks


def test_empty_bulk_load():
    index, _ = fresh()
    index.bulk_load([])
    assert index.lookup(42) is None
    index.insert(42, 43)
    assert index.lookup(42) == 43


# -- the one in-node search, against a reference ------------------------------


def _synthetic_node(block_size, pooled, keys, slope, intercept):
    """An index whose data file holds one hand-built data node (every
    slot real; gap runs are just equal neighbours to a search) one block
    in, so the node's blocks are not the file's first."""
    pool = BufferPool(2) if pooled else None
    index = AlexIndex(Pager(BlockDevice(block_size, HDD), buffer_pool=pool))
    capacity = len(keys)
    block = index._data_file.allocate(1 + index._data_extent_blocks(capacity)) + 1
    header = _DataHeader(capacity, capacity, slope, intercept, anchor=keys[0])
    index.pager.write_bytes(
        index._data_file, block * block_size,
        header.pack() + bytes([0xFF]) * index._bitmap_bytes(capacity)
        + pack_entries([(key, key ^ 1) for key in keys]))
    return index, block


def _per_probe_search(index, block, key):
    """ALEX's exponential search as the paper charges it: the header,
    then one ``read_bytes`` of 16 bytes per probe, nothing held between
    them.  What `_search_node` must ask of the pager."""
    pager, file = index.pager, index._data_file
    header = index._read_data_header(block)  # read_bytes of its 64 bytes
    capacity = header.capacity

    def key_at(slot):
        raw = pager.read_bytes(
            file, index._entries_offset(block, capacity, slot), ENTRY_SIZE)
        return int.from_bytes(raw[:8], "little")

    pos = LinearModel(header.slope, header.intercept,
                      header.anchor).predict_clamped(key, capacity)
    bound = 1
    if key_at(pos) <= key:
        while pos + bound < capacity and key_at(pos + bound) <= key:
            bound *= 2
        lo, hi = pos + bound // 2, min(pos + bound, capacity - 1)
    else:
        while pos - bound >= 0 and key_at(pos - bound) > key:
            bound *= 2
        lo, hi = max(pos - bound, 0), pos - bound // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if key_at(mid) <= key:
            lo = mid
        else:
            hi = mid - 1
    return lo if key_at(lo) <= key else -1


@st.composite
def _nodes(draw):
    """Sorted slot keys with long equal runs (gap copies), and a model
    that may predict anywhere: below slot 0, past the last slot, or at a
    slope that has nothing to do with the keys."""
    # Bitmap lengths 3..38 put slot 0 at byte 67..102 of the node, so
    # 16-byte entries lie across the 256- and 512-byte block boundaries.
    capacity = draw(st.integers(17, 300))
    spread = draw(st.sampled_from([4, capacity // 3 + 1, 1 << 40]))
    low = draw(st.integers(2, 1 << 62))
    keys = sorted(low + draw(st.integers(0, spread)) for _ in range(capacity))
    slope = draw(st.sampled_from([0.0, 1e-12, capacity / (spread + 1), 1e6, -3.5]))
    intercept = draw(st.sampled_from([0.0, -50.0, capacity / 2, capacity * 4.0]))
    probes = draw(st.lists(st.one_of(
        st.sampled_from(keys), st.integers(low - 2, low + spread + 2),
        st.sampled_from([0, keys[0] - 1, keys[-1] + 1, 2**64 - 1])),
        min_size=1, max_size=12))
    return keys, slope, intercept, probes


@pytest.mark.parametrize("pooled", [False, True], ids=["nopool", "pool2"])
@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=60, deadline=None)
@given(node=_nodes())
def test_search_node_matches_bisect_and_charges_like_per_probe_reads(
        block_size, pooled, node):
    """From the pager: the slot is ``bisect``'s, and every charged number
    (and every buffer-pool probe) equals the per-probe reference's, over
    a run of searches that inherit each other's last block."""
    keys, slope, intercept, probes = node
    index, block = _synthetic_node(block_size, pooled, keys, slope, intercept)
    twin, _ = _synthetic_node(block_size, pooled, keys, slope, intercept)
    for key in probes:
        slot, header = index._search_node(block, key)
        assert slot == bisect_right(keys, key) - 1
        assert header[1] == len(keys)
        assert _per_probe_search(twin, block, key) == slot
        assert dataclasses.asdict(index.pager.stats) == dataclasses.asdict(
            twin.pager.stats), key
        if pooled:
            assert ((index.pager.buffer_pool.hits, index.pager.buffer_pool.misses)
                    == (twin.pager.buffer_pool.hits, twin.pager.buffer_pool.misses))


@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=60, deadline=None)
@given(node=_nodes())
def test_search_node_from_a_batch_mirror(block_size, node):
    """Inside ``pager.batch()``, reading the blocks the batch pins: same
    slots, same charges as per-probe reads in a batch of their own."""
    keys, slope, intercept, probes = node
    index, block = _synthetic_node(block_size, False, keys, slope, intercept)
    twin, _ = _synthetic_node(block_size, False, keys, slope, intercept)
    with index.pager.batch(), twin.pager.batch():
        for key in probes:
            slot = index._search_node(block, key)[0]
            assert slot == bisect_right(keys, key) - 1
            assert _per_probe_search(twin, block, key) == slot
    assert dataclasses.asdict(index.pager.stats) == dataclasses.asdict(
        twin.pager.stats)


def test_search_node_on_an_empty_node():
    index, _ = fresh()
    index.bulk_load([])
    block = _ptr_block(index.root_ptr)
    slot, header = index._search_node(block, 42)
    assert slot == -1 and header[2] == 0


@pytest.mark.parametrize("layout", [1, 2])
def test_lookup_agrees_with_lookup_many_through_mutations(layout):
    """``lookup(k) == lookup_many([k, k])[0]`` over hits, misses,
    tombstones and re-inserted keys."""
    index = AlexIndex(Pager(BlockDevice(512, NULL_DEVICE)), layout=layout,
                      max_data_node_entries=64, max_fanout=16)
    keys = random_sorted_keys(1500, seed=41, key_space=10**7)
    model = ReferenceModel(items_of(keys))
    index.bulk_load(items_of(keys))
    rng = random.Random(43)
    deleted = rng.sample(keys, 200)
    for key in deleted:
        assert index.delete(key) and model.delete(key)
    back = deleted[:60]
    for key in back:
        index.insert(key, 5)
        model.insert(key, 5)
    for _ in range(400):
        key = rng.randrange(10**7)
        if key not in model:
            index.insert(key, key + 1)
            model.insert(key, key + 1)
    probes = (rng.sample(keys, 150) + deleted[60:120] + back[:30]
              + [rng.randrange(10**7) for _ in range(80)]
              + [0, 1, 10**7, 2**63, TOMBSTONE])
    for key in probes:
        found = index.lookup(key)
        assert found == model.lookup(key), key
        assert index.lookup_many([key, key]) == [found, found], key
    assert index.lookup_many(probes) == [model.lookup(key) for key in probes]


@pytest.mark.parametrize("write_back", [False, True], ids=["wt", "wb"])
@pytest.mark.parametrize("layout", [1, 2])
def test_no_stale_bytes_survive_an_smo(layout, write_back):
    """Right after an insert that expanded, split sideways or split down
    the node it searched, lookups and scans read the node's new bytes —
    also from a batch, and with the old extent's blocks in the pool."""
    device = BlockDevice(512, NULL_DEVICE)
    pager = (Pager(device, buffer_pool=BufferPool(16), write_back=True)
             if write_back else Pager(device))
    index = AlexIndex(pager, layout=layout, max_data_node_entries=64, max_fanout=16)
    rng = random.Random(47)
    # bunched bulk keys, uniform inserts: nodes spanning several parent
    # slots fill up and split sideways (see gen_learned_pages._bunched_key)
    keys = sorted({b * 10**6 + rng.randrange(4000) for b in range(20)
                   for _ in range(60)})
    model = ReferenceModel(items_of(keys))
    index.bulk_load(items_of(keys))
    kinds = set()
    while len(kinds) < 3 or len(model) < 4000:
        key = rng.randrange(20 * 10**6)
        if key in model:
            continue
        before = (index.num_expands, index.num_splits, index.num_split_downs)
        index.insert(key, key + 1)
        model.insert(key, key + 1)
        after = (index.num_expands, index.num_splits, index.num_split_downs)
        if after == before:
            continue
        kinds.update(kind for kind, a, b in zip(
            ("expand", "split", "split_down"), after, before) if a > b)
        around = model.scan(max(key - 5000, 0), 12)
        for probe, payload in around:
            assert index.lookup(probe) == payload, (key, probe)
        assert index.lookup_many([p for p, _ in around]) == [v for _, v in around]
        assert index.scan(around[0][0], 12) == around, key
    assert kinds == {"expand", "split", "split_down"}
    assert index.num_splits > index.num_split_downs + 1, "sideways splits"
    assert index.verify() == len(model)


# -- the bitmap walk, against a reference --------------------------------------
#
# The per-bit references here and in the gap search below stay: they
# check the bit logic (which slots a word of bitmap bytes sets or
# clears), not the held block, which tests/test_held_block.py covers.


def _per_bit_scan_node(index, block, capacity, start_slot, start_key, count, out):
    """``_scan_node`` one bit and one entry at a time, as it was before
    the bitmap kernel: the same ``read_bytes`` for the rest of a bitmap
    block and for each capped group of entries."""
    bs = index.pager.block_size
    bitmap_bytes = index._bitmap_bytes(capacity)
    byte_index = start_slot >> 3
    while byte_index < bitmap_bytes and len(out) < count:
        block_end = min(bitmap_bytes,
                        ((index._bitmap_offset(block, byte_index) // bs) + 1) * bs
                        - index._bitmap_offset(block, 0))
        chunk = index.pager.read_bytes(index._data_file,
                                       index._bitmap_offset(block, byte_index),
                                       block_end - byte_index)
        slots = [(byte_index + i) * 8 + bit
                 for i, byte in enumerate(chunk) for bit in range(8)
                 if byte & (1 << bit)]
        slots = [s for s in slots if s >= start_slot and s < capacity]
        group_start = 0
        while group_start < len(slots) and len(out) < count:
            group = slots[group_start : group_start + (count - len(out))]
            entries = index._read_entries(block, capacity, group[0],
                                          group[-1] - group[0] + 1)
            for s in group:
                key, payload = entries[s - group[0]]
                if key >= start_key and payload != TOMBSTONE:
                    out.append((key, payload))
                    if len(out) >= count:
                        break
            group_start += len(group)
        byte_index = block_end


def _per_bit_real_entries(index, block, header):
    """``_read_real_entries`` testing one bitmap bit per slot."""
    capacity = header.capacity
    bitmap = index.pager.read_bytes(index._data_file, index._bitmap_offset(block, 0),
                                    index._bitmap_bytes(capacity))
    entries = index._read_entries(block, capacity, 0, capacity)
    return [entries[slot] for slot in range(capacity)
            if bitmap[slot >> 3] & (1 << (slot & 7))
            and entries[slot][1] != TOMBSTONE]


@st.composite
def _gapped_nodes(draw):
    """A data node's gapped array: which slots are real (2% to all of
    them, so the cap on an entry group matters at one end and runs of
    set bits at the other), tombstones among them, gap slots copying the
    real entry to their left, and scans from anywhere for any count."""
    # 256-byte blocks: a bitmap of more than 192 bytes (capacity > 1536)
    # runs into the node's second block.
    capacity = draw(st.one_of(st.integers(17, 400), st.integers(1537, 2600)))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.02, 0.3, 0.8, 1.0]))
    real = sorted(rng.sample(range(capacity), max(1, int(capacity * density))))
    low = draw(st.integers(2, 1 << 62))
    keys = sorted(rng.sample(range(low, low + 4 * capacity), len(real)))
    dead = draw(st.sampled_from([0.0, 0.1, 0.6]))
    entries = [(key, TOMBSTONE if rng.random() < dead else key ^ 1) for key in keys]
    scans = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(keys), st.integers(low - 2, low + 4 * capacity + 2),
                  st.sampled_from([0, 2**64 - 1])),
        st.integers(1, 150)), min_size=1, max_size=8))
    return capacity, real, entries, scans


def _gapped_node(block_size, layout, pooled, capacity, real, entries):
    """An index whose only node is the hand-built data node, one block
    into its file, with stray bits set past ``capacity`` in the bitmap's
    last byte."""
    pool = BufferPool(2) if pooled else None
    index = AlexIndex(Pager(BlockDevice(block_size, HDD), buffer_pool=pool),
                      layout=layout)
    block = index._data_file.allocate(1 + index._data_extent_blocks(capacity)) + 1
    bitmap = bytearray(index._bitmap_bytes(capacity))
    slots = [entries[0]] * capacity
    for slot, entry in zip(real, entries):
        bitmap[slot >> 3] |= 1 << (slot & 7)
        slots[slot:] = [entry] * (capacity - slot)
    if capacity & 7:
        bitmap[-1] |= 0xFF & ~((1 << (capacity & 7)) - 1)
    header = _DataHeader(capacity, len(real), 0.25, 0.0, anchor=entries[0][0])
    index.pager.write_bytes(index._data_file, block * block_size,
                            header.pack() + bytes(bitmap) + pack_entries(slots))
    index.root_ptr = _pack_ptr(True, block)
    return index, block, header


@pytest.mark.parametrize("pooled", [False, True], ids=["nopool", "pool2"])
@pytest.mark.parametrize("layout", [1, 2])
@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=40, deadline=None)
@given(node=_gapped_nodes())
def test_bitmap_walk_matches_and_charges_like_per_bit_reads(
        block_size, layout, pooled, node):
    """Scans, the SMO's read of a node and ``verify`` give the per-bit
    answers, and scans and the SMO read charge (and probe a two-frame
    pool) exactly alike, over a run of scans that inherit each other's
    last block.

    Kills: reading the whole bitmap where only the rest of its block is
    due; fetching a chunk's entries as one span rather than in groups
    capped by what the scan still needs; counting a bit below the start
    slot or a stray bit past ``capacity``; keeping a tombstone or a gap
    copy's key below ``start_key``.
    """
    capacity, real, entries, scans = node
    index, block, header = _gapped_node(block_size, layout, pooled,
                                        capacity, real, entries)
    twin, _, _ = _gapped_node(block_size, layout, pooled, capacity, real, entries)
    twin._scan_node = lambda *args: _per_bit_scan_node(twin, *args)
    live = [entry for entry in entries if entry[1] != TOMBSTONE]
    for start, count in scans:
        expected = [entry for entry in live if entry[0] >= start][:count]
        assert index.scan(start, count) == expected
        assert twin.scan(start, count) == expected
        assert charges_of(index) == charges_of(twin), (start, count)
    assert index._read_real_entries(block, header) == live
    assert _per_bit_real_entries(twin, block, header) == live
    assert charges_of(index) == charges_of(twin)
    assert index.verify() == len(live)


# -- the insert's gap search, against a reference -----------------------------


def _per_bit_insert_into_node(index, block, header, position, key, payload):
    """``_insert_into_node`` as it was before ``_next_gap``: one
    ``_bit_is_set`` (a one-byte ``read_bytes``) per bitmap bit probed."""
    capacity = header.capacity
    if position >= capacity:
        if not index._bit_is_set(block, capacity - 1):
            position = capacity - 1
        else:
            _per_bit_shift_left_insert(index, block, header, capacity, key, payload)
            return
    if not index._bit_is_set(block, position):
        index._write_entries(block, capacity, position, [(key, payload)])
        index._set_bit(block, position)
        run = position + 1
        while run < capacity and not index._bit_is_set(block, run):
            index._write_entries(block, capacity, run, [(key, payload)])
            run += 1
        return
    gap = position + 1
    while gap < capacity and index._bit_is_set(block, gap):
        gap += 1
    if gap >= capacity:
        _per_bit_shift_left_insert(index, block, header, position, key, payload)
        return
    entries = index._read_entries(block, capacity, position, gap - position)
    index._write_entries(block, capacity, position, [(key, payload)] + entries)
    index._set_bit(block, gap)
    header.num_shifts += gap - position


def _per_bit_shift_left_insert(index, block, header, position, key, payload):
    """``_shift_left_insert`` as it was before ``_prev_gap``."""
    capacity = header.capacity
    gap = position - 1
    while gap >= 0 and index._bit_is_set(block, gap):
        gap -= 1
    assert gap >= 0
    entries = index._read_entries(block, capacity, gap + 1, position - gap - 1)
    index._write_entries(block, capacity, gap, entries + [(key, payload)])
    index._set_bit(block, gap)
    header.num_shifts += position - gap


@pytest.mark.parametrize("pooled", [False, True], ids=["nopool", "pool2"])
@pytest.mark.parametrize("block_size", [256, 512])
@settings(max_examples=25, deadline=None)
@given(node=_gapped_nodes(), data=st.data())
def test_gap_search_matches_and_charges_like_per_bit_reads(block_size, pooled,
                                                           node, data):
    """``_next_gap`` / ``_prev_gap`` on bitmaps of up to 2,600 slots (so
    across block boundaries, stray bits past ``capacity`` included) give
    the per-bit loops' slot and charge what they charge."""
    capacity, real, entries, _scans = node
    index, block, _header = _gapped_node(block_size, 2, pooled, capacity,
                                         real, entries)
    twin, _, _ = _gapped_node(block_size, 2, pooled, capacity, real, entries)
    real_slots = set(real)
    starts = data.draw(st.lists(st.integers(0, capacity - 1), min_size=1,
                                max_size=8))
    for start in starts:
        forward = next((slot for slot in range(start, capacity)
                        if slot not in real_slots), capacity)
        backward = next((slot for slot in range(start, -1, -1)
                         if slot not in real_slots), -1)
        assert index._next_gap(block, capacity, start) == forward
        gap = start
        while gap < capacity and twin._bit_is_set(block, gap):
            gap += 1
        assert gap == forward
        assert charges_of(index) == charges_of(twin)
        assert index._prev_gap(block, start) == backward
        gap = start
        while gap >= 0 and twin._bit_is_set(block, gap):
            gap -= 1
        assert gap == backward
        assert charges_of(index) == charges_of(twin)


#: (block size, max_data_node_entries): nodes inside block 0; entries
#: past block 0 (bitmap in it); a bitmap across the block 0/1 boundary.
_GEOMETRIES = {"block0": (4096, 64), "multiblock": (4096, 1024),
               "bitmap-across": (256, 2048)}


_BULK_KEYS = random_sorted_keys(1500, seed=34, key_space=10**9)


def _alex_stack(geometry, pool):
    block_size, max_entries = _GEOMETRIES[geometry]
    buffer_pool = None if pool == "none" else BufferPool(8)
    pager = Pager(BlockDevice(block_size, HDD), buffer_pool=buffer_pool,
                  write_back=pool == "write-back")
    index = AlexIndex(pager, max_data_node_entries=max_entries)
    index.bulk_load(items_of(_BULK_KEYS))
    return index


@pytest.mark.parametrize("instrument", ["bare", "traced", "hooked"])
@pytest.mark.parametrize("pool", ["none", "lru", "write-back"])
@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
def test_insert_gap_search_charges_like_per_bit_reads(geometry, pool, instrument):
    """A seeded insert/lookup stream, once with the word-wise gap search
    and once with the per-bit probes it replaced: every ``StorageStats``
    field and pool probe after every operation, the pages, and what a
    tracer or an access hook saw are the same.  The tracer's
    ``reuse_hits`` are the one number that falls, by design: the bits
    after the first in a block were last-block reuse hits."""
    index = _alex_stack(geometry, pool)
    twin = _alex_stack(geometry, pool)
    twin._insert_into_node = (
        lambda *args: _per_bit_insert_into_node(twin, *args))
    watch, twin_watch = Watch(index, instrument), Watch(twin, instrument)
    rng = random.Random(34)
    present = _BULK_KEYS
    fresh_keys = [key for key in rng.sample(range(1, 10**9), 300)
                  if key not in set(present)]
    # a run of ascending keys past the largest fills the last node's tail
    fresh_keys += range(10**9 + 1, 10**9 + 100)
    for i, key in enumerate(fresh_keys):
        index.insert(key, key + 1)
        twin.insert(key, key + 1)
        probe = present[i * 7 % len(present)]
        assert index.lookup(probe) == twin.lookup(probe) == probe + 1
        assert charges_of(index) == charges_of(twin), key
    assert watch.seen() == twin_watch.seen()
    assert watch.reuse_hits <= twin_watch.reuse_hits
    assert pages_of(index) == pages_of(twin)
    assert index.verify() == twin.verify() == 1500 + len(fresh_keys)
    shifts = sum(index._read_data_header(block).num_shifts
                 for block in _data_blocks(index))
    assert shifts > 0  # the stream took the shifting paths, not only gaps


def _data_blocks(index):
    blocks = []
    index._collect_leaves(index.root_ptr, blocks)
    return blocks


# -- node placement as array kernels, against the per-key loops ---------------


@st.composite
def _sorted_items(draw):
    """Sorted unique keys — spread out, in a few tight clusters, or hard
    against 2**64 — with payloads that are not a function of the slot."""
    n = draw(st.integers(1, 120))
    shape = draw(st.sampled_from(["spread", "clusters", "top"]))
    if shape == "spread":
        pool = st.integers(0, 1 << 62)
    elif shape == "clusters":
        bases = draw(st.lists(st.integers(0, 1 << 61), min_size=1, max_size=4))
        pool = st.builds(lambda base, off: base + off,
                         st.sampled_from(bases), st.integers(0, 200))
    else:
        pool = st.integers((1 << 64) - 5000, (1 << 64) - 1)
    keys = sorted(draw(st.sets(pool, min_size=n, max_size=n)))
    return [(key, key ^ 0x5A5A) for key in keys]


@settings(max_examples=60, deadline=None)
@given(items=_sorted_items(), slack=st.floats(0.0, 2.0))
def test_data_node_kernel_writes_the_per_key_placement(items, slack):
    """Header (the fit included), bitmap and gap-filled entries of a
    built node are those of the one-key-at-a-time placement, for every
    capacity from ``n`` (no gap anywhere) to ``3n``.

    Kills: a prefix maximum that forgets the ``capacity - (n - i)`` cap
    or applies it before the running maximum; an unsigned ``cumsum - 1``
    wrapping for the gaps ahead of the first key; a big-endian bitmap.
    """
    n = len(items)
    capacity = n + int(slack * n)
    index, _ = fresh()
    block = index._build_data_node(_entry_array(items), capacity=capacity,
                                   prev=7, next_=9)
    model, bitmap, slots = reference_alex_data_node(items, capacity)
    expected = (_DataHeader(capacity, n, model.slope, model.intercept,
                            model.anchor, 7, 9).pack()
                + bitmap + pack_entries(slots))
    assert index.pager.read_bytes(index._data_file, block * 4096,
                                  len(expected)) == expected


def test_empty_data_node_is_all_gaps():
    index, _ = fresh()
    block = index._build_data_node(_entry_array([]), capacity=16)
    model, bitmap, slots = reference_alex_data_node([], 16)
    assert index.pager.read_bytes(index._data_file, block * 4096, 64 + 2 + 256) == (
        _DataHeader(16, 0, 0.0, 0.0).pack() + bitmap + pack_entries(slots))


@settings(max_examples=60, deadline=None)
@given(items=_sorted_items(), fanout=st.sampled_from([2, 8, 64]),
       min_max=st.booleans())
def test_partition_kernel_cuts_where_the_per_key_routing_does(items, fanout, min_max):
    keys = [key for key, _ in items]
    n = len(keys)
    if min_max:
        model = LinearModel.fit_min_max(keys[0], keys[-1], fanout)
    else:
        model = LinearModel.fit_least_squares(
            keys, [int(i * fanout / n) for i in range(n)])
    partitions = AlexIndex._partition(_entry_array(items), model, fanout)
    assert [list(map(tuple, part.tolist())) for part in partitions] == (
        reference_alex_partition(items, model, fanout))


@settings(max_examples=60, deadline=None)
@given(items=_sorted_items(), size=st.integers(2, 5000))
def test_least_squares_fit_is_the_per_key_subtraction_bit_for_bit(items, size):
    """``fit_least_squares`` takes the key offsets as one exact array
    subtraction, from a list or from the uint64 column the builders pass."""
    keys = [key for key, _ in items]
    positions = [int(i * size / len(keys)) for i in range(len(keys))]
    expected = reference_fit_least_squares(keys, positions)
    assert LinearModel.fit_least_squares(keys, positions) == expected
    assert LinearModel.fit_least_squares(_entry_array(items)[:, 0], positions) == expected
