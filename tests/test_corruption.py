"""Failure injection: on-disk corruption must be caught.

Two independent detection layers are exercised:

* ``verify()`` — each test flips bytes an index's verifier actually
  guards, then checks the structural walk raises instead of silently
  serving garbage (verification reads are free and skip the envelope,
  so these tests see the corrupt bytes directly);
* the checksum envelope — for *every* registered index, a byte flipped
  behind the device's back (media corruption: the stored bytes change,
  the envelope does not) makes the next charged read of that block on
  the lookup and scan paths raise :class:`ChecksumError` instead of
  returning the corrupt payload.
"""

import pytest

from repro.core import make_index
from repro.storage import ChecksumError, NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, lipp_header, lipp_slot, random_sorted_keys

KEYS = random_sorted_keys(5000, seed=31)

#: Every registered index shape (one hybrid stands in for all four —
#: they share the leaf machinery under test).
ALL_INDEXES = ("btree", "fiting", "pgm", "alex", "lipp", "plid", "hybrid-pgm")


def loaded(name):
    index = make_index(name, Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    return index


def _swap_entries(file, block_no, first_offset, second_offset, width=8):
    block = bytearray(file.blocks[block_no])
    (block[first_offset : first_offset + width],
     block[second_offset : second_offset + width]) = (
        block[second_offset : second_offset + width],
        block[first_offset : first_offset + width])
    file.blocks[block_no] = block


def test_btree_detects_leaf_disorder():
    index = loaded("btree")
    _swap_entries(index._leaf_file, 0, 16, 32)  # swap first two keys
    with pytest.raises(AssertionError):
        index.verify()


def test_btree_detects_count_mismatch():
    index = loaded("btree")
    index.tree.num_records += 1  # meta lies about the record count
    with pytest.raises(AssertionError):
        index.verify()


def test_fiting_detects_segment_disorder():
    index = loaded("fiting")
    # Segment 1 starts at block 1 of the data file (block 0 = head buffer);
    # its entries start 64 bytes in.
    _swap_entries(index._data, 1, 64, 80)
    with pytest.raises(AssertionError):
        index.verify()


def test_fiting_detects_chain_break():
    index = loaded("fiting")
    header = index._read_header(index.first_segment_block)
    header.right_sib = index.first_segment_block  # self-loop
    index._write_header(index.first_segment_block, header)
    if index.num_segments > 1:
        with pytest.raises(AssertionError):
            index.verify()


def test_pgm_detects_component_disorder():
    index = loaded("pgm")
    component = next(c for c in index.components if c is not None)
    _swap_entries(component.data_file, 0, 0, 16)
    with pytest.raises(AssertionError):
        index.verify()


def test_alex_detects_bitmap_corruption():
    index = loaded("alex")
    block, _ = index._descend(KEYS[0])
    # Zero the first bitmap byte: the population no longer matches the
    # header's num_keys.
    offset = index._bitmap_offset(block, 0) % 4096
    bitmap_block = index._bitmap_offset(block, 0) // 4096
    raw = bytearray(index._data_file.blocks[bitmap_block])
    raw[offset] = 0 if raw[offset] else 0xFF
    index._data_file.blocks[bitmap_block] = raw
    with pytest.raises(AssertionError):
        index.verify()


def test_alex_detects_corrupted_inner_model():
    """Child pointers, bitmaps and the sibling chain intact, every
    descent through the root misrouted: the walk has to use the models."""
    from repro.core.alex import _ptr_block, _ptr_is_data
    index = loaded("alex")
    assert not _ptr_is_data(index.root_ptr)
    # The slope sits 8 bytes into an inner node ("<BxxxIddQ"); written
    # through the pager, so the envelope is valid and lookups run.
    index.pager.write_bytes(index._inner_file,
                            _ptr_block(index.root_ptr) + 8, bytes(8))
    assert index.lookup(KEYS[0]) is None or index.lookup(KEYS[-1]) is None
    with pytest.raises(AssertionError):
        index.verify()


def test_lipp_detects_misplaced_key():
    index = loaded("lipp")
    header = lipp_header(index, index.root_block)
    # Find a DATA slot and move its entry to a wrong (NULL) slot.
    from repro.core.lipp import SLOT_DATA, SLOT_NULL
    data_slot = null_slot = None
    for slot in range(header.num_slots):
        flag, key, payload = lipp_slot(index, index.root_block, slot)
        if flag == SLOT_DATA and data_slot is None:
            data_slot = (slot, key, payload)
        elif flag == SLOT_NULL and null_slot is None and data_slot is not None:
            null_slot = slot
        if data_slot and null_slot:
            break
    assert data_slot and null_slot is not None
    slot, key, payload = data_slot
    index._write_slot(index.root_block, null_slot, SLOT_DATA, key, payload)
    with pytest.raises(AssertionError):
        index.verify()


def _point_first_leaf_at_itself(index, first):
    """Break the leaf chain through the ``LeafFile`` API: rewrite the
    first leaf unchanged but for a next link pointing at itself."""
    slot = index.leaves.locate(first, 0)
    assert not slot.hit
    index.leaves.store(slot._replace(next=first), b"")


def test_plid_detects_directory_divergence():
    index = loaded("plid")
    _point_first_leaf_at_itself(index, index.first_leaf_block)
    with pytest.raises(AssertionError):
        index.verify()


def test_hybrid_detects_leaf_disorder():
    index = loaded("hybrid-pgm")
    _swap_entries(index._leaf_file, 0, 16, 32)  # swap first two keys
    with pytest.raises(AssertionError):
        index.verify()


def test_hybrid_detects_chain_break():
    index = loaded("hybrid-pgm")
    assert index.num_leaves > 1
    _point_first_leaf_at_itself(index, index.leaf_base)
    with pytest.raises(AssertionError):
        index.verify()


# -- misroutes: every leaf is intact, the structure above points wrong ------

def test_btree_detects_swapped_separators_off_the_leftmost_spine():
    """Two separators swapped in an inner node the leftmost walk never
    visits: the chain, the counts and the spine's ordering all still
    hold; only descending for the leaves' own keys can tell."""
    index = make_index("btree", Pager(BlockDevice(512, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    assert index.tree.num_levels == 3
    # bulk load lays the level above the leaves out first: block 1 is its
    # second node
    _swap_entries(index._inner_file, 1, 16 + 12, 16 + 24)
    with pytest.raises(AssertionError, match="routes elsewhere"):
        index.verify()


def test_plid_detects_swapped_directory_entries():
    """Two adjacent (max key, block) directory entries swapped on the
    device: read back and sorted they are the same directory, so only
    routing through the stored order can tell."""
    index = loaded("plid")
    at = index._dir_offset + 3 * 16
    _swap_entries(index._dir_file, at // 4096, at % 4096, at % 4096 + 16, width=16)
    with pytest.raises(AssertionError, match="routes elsewhere"):
        index.verify()


def test_hybrid_detects_swapped_fences():
    """Two fences' leaf blocks swapped in the inner index's data file."""
    index = loaded("hybrid-pgm")
    component = next(c for c in index.inner.components if c is not None)
    _swap_entries(component.data_file, 0, 16 + 8, 32 + 8)
    with pytest.raises(AssertionError, match="routes elsewhere"):
        index.verify()


def test_verify_passes_on_untouched_indexes():
    for name in ALL_INDEXES:
        assert loaded(name).verify() == len(KEYS)


# -- checksum-level detection (the storage layer, below verify()) ----------

def _blocks_read_during(index, op):
    """Run ``op`` and return the (file_name, block_no) reads it charged."""
    device = index.pager.device
    touched = []
    device.on_access = lambda kind, fn, no, phase, cost: (
        touched.append((fn, no)) if kind == "r" else None)
    try:
        op()
    finally:
        device.on_access = None
    return touched


def _flip_byte(device, file_name, block_no, offset=100):
    """Media corruption: mutate stored bytes, leave the envelope stale."""
    handle = device.get_file(file_name)
    block = bytearray(handle.blocks[block_no])
    block[offset] ^= 0xFF
    handle.blocks[block_no] = block


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_checksum_catches_flipped_byte_on_lookup(name):
    index = loaded(name)
    key = KEYS[len(KEYS) // 2]
    reads = _blocks_read_during(index, lambda: index.lookup(key))
    assert reads, "lookup must charge at least one device read"
    file_name, block_no = reads[-1]  # the leaf/data block holding the key
    _flip_byte(index.pager.device, file_name, block_no)
    index.pager.drop_last_block()
    with pytest.raises(ChecksumError):
        index.lookup(key)


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_checksum_catches_flipped_byte_on_scan(name):
    index = loaded(name)
    key = KEYS[len(KEYS) // 2]
    reads = _blocks_read_during(index, lambda: index.scan(key, 50))
    assert reads, "scan must charge at least one device read"
    file_name, block_no = reads[-1]
    _flip_byte(index.pager.device, file_name, block_no)
    index.pager.drop_last_block()
    with pytest.raises(ChecksumError):
        index.scan(key, 50)


def test_checksum_failure_counted_and_carries_coordinates():
    index = loaded("btree")
    key = KEYS[0]
    reads = _blocks_read_during(index, lambda: index.lookup(key))
    file_name, block_no = reads[-1]
    _flip_byte(index.pager.device, file_name, block_no)
    index.pager.drop_last_block()
    with pytest.raises(ChecksumError) as exc:
        index.lookup(key)
    assert exc.value.file_name == file_name
    assert exc.value.block_no == block_no
    assert index.pager.device.stats.checksum_failures == 1


def test_checksums_can_be_disabled():
    index = loaded("btree")
    index.pager.device.checksums = False
    key = KEYS[0]
    reads = _blocks_read_during(index, lambda: index.lookup(key))
    file_name, block_no = reads[-1]
    _flip_byte(index.pager.device, file_name, block_no, offset=4000)
    index.pager.drop_last_block()
    # With verification off the corrupt payload is served (the flip at a
    # padding offset keeps the structural decode intact).
    index.lookup(key)
    assert index.pager.device.stats.checksum_failures == 0


def test_checksums_leave_every_device_counter_bit_identical():
    """Verification reads bytes the access already paid for: a fault-free
    Read-Heavy run charges the same StorageStats, simulated clock
    included, with the envelope checked or not."""
    from repro.bench import Scale, fresh_index
    from repro.stack import StackSpec
    from repro.workloads import run_workload

    scale = Scale(n_read=4000, n_write_bulk=2000, n_write_ops=600,
                  n_lookup_ops=100, n_scan_ops=20)

    def stats(checksums):
        setup = fresh_index(StackSpec("btree"), "ycsb", "read_heavy", scale)
        setup.device.checksums = checksums
        run_workload(setup.index, setup.ops, workload="read_heavy")
        return setup.device.stats

    checked = stats(True)
    assert checked == stats(False)
    assert checked.reads > 0 and checked.elapsed_us > 0
