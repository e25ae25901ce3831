"""Property tests: the pager's byte-addressed I/O against a flat model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import NULL_DEVICE, BlockDevice, Pager

BLOCK = 256  # small blocks so ranges cross boundaries often
FILE_BLOCKS = 8
SIZE = BLOCK * FILE_BLOCKS


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["read", "write"]),
              st.integers(0, SIZE - 1),
              st.integers(1, 600)),
    max_size=40))
def test_byte_io_matches_flat_reference(ops):
    device = BlockDevice(BLOCK, NULL_DEVICE)
    pager = Pager(device)
    handle = device.create_file("f")
    handle.allocate(FILE_BLOCKS)
    reference = bytearray(SIZE)
    fill = 0
    for kind, offset, length in ops:
        length = min(length, SIZE - offset)
        if length <= 0:
            continue
        if kind == "write":
            fill = (fill + 1) % 251
            data = bytes([fill]) * length
            pager.write_bytes(handle, offset, data)
            reference[offset : offset + length] = data
        else:
            assert pager.read_bytes(handle, offset, length) == bytes(
                reference[offset : offset + length])
    # Final full-file comparison.
    assert pager.read_bytes(handle, 0, SIZE) == bytes(reference)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, SIZE - 1), st.integers(0, 600))
def test_read_never_exceeds_covering_blocks(offset, length):
    device = BlockDevice(BLOCK, NULL_DEVICE)
    pager = Pager(device)
    handle = device.create_file("f")
    handle.allocate(FILE_BLOCKS)
    length = min(length, SIZE - offset)
    if length == 0:
        return
    pager.drop_last_block()
    before = device.stats.reads
    pager.read_bytes(handle, offset, length)
    covering = (offset + length - 1) // BLOCK - offset // BLOCK + 1
    assert device.stats.reads - before == covering
