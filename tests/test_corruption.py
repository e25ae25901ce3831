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

import struct

import pytest

from repro.core import make_index
from repro.storage import ChecksumError, NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, random_sorted_keys

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


def test_lipp_detects_misplaced_key():
    index = loaded("lipp")
    header = index._read_header(index.root_block)
    # Find a DATA slot and move its entry to a wrong (NULL) slot.
    from repro.core.lipp import SLOT_DATA, SLOT_NULL
    data_slot = null_slot = None
    for slot in range(header.num_slots):
        flag, key, payload = index._read_slot(index.root_block, slot)
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


def test_plid_detects_directory_divergence():
    index = loaded("plid")
    # Break the leaf chain: point the first leaf's next at itself.
    raw, count, _next, prev = index._read_leaf(index.first_leaf_block)
    index._write_leaf(index.first_leaf_block, raw[16 : 16 + count * 16],
                      index.first_leaf_block, prev)
    with pytest.raises(AssertionError):
        index.verify()


def test_hybrid_detects_leaf_disorder():
    index = loaded("hybrid-pgm")
    _swap_entries(index._leaf_file, 0, 16, 32)  # swap first two keys
    with pytest.raises(AssertionError):
        index.verify()


def test_hybrid_detects_chain_break():
    index = loaded("hybrid-pgm")
    from repro.core.hybrid import _LEAF_HEADER
    # Point the first leaf's next pointer at itself: a cycle.
    raw = bytearray(index._leaf_file.blocks[0])
    count, pad, _next, prev, pad2 = _LEAF_HEADER.unpack_from(raw, 0)
    _LEAF_HEADER.pack_into(raw, 0, count, pad, 0, prev, pad2)
    index._leaf_file.blocks[0] = raw
    assert index.num_leaves > 1
    with pytest.raises(AssertionError):
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
