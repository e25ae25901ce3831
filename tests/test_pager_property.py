"""Property tests: the pager's byte-addressed I/O against a flat model."""

from contextlib import nullcontext
from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import WriteAheadLog
from repro.obs import Tracer
from repro.storage import NULL_DEVICE, BlockDevice, Pager, make_buffer_pool

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


# -- read_bytes' one-block branch ---------------------------------------------
#
# ``Pager.read_bytes`` takes a one-block range from ``Pager.view``, which
# serves it from the held block (the pin cache inside a batch, else the
# last block) instead of calling ``read_block``.  The reference below is
# the pager without that branch: every one-block range goes through
# ``read_block``.  The property holds the two to the same bytes, device
# counters, pool probes, tracer records and access-hook calls.  Each of
# these mutations of ``view``'s branch turns it red:
#   - serve the last block inside a batch instead of consulting (and
#     filling) the pin cache: a block that was last before the batch
#     began is served without being pinned, and is charged again once
#     another read moves the last block;
#   - drop the hook guard (``self.on_block_access is None``): the serving
#     engine's footprint misses the read;
#   - drop the resident guard (``not file.memory_resident``): a file made
#     resident after it was read keeps serving its stale last block (and
#     counts a reuse hit for a free read);
#   - drop the ``tracer.reuse_hit()`` call: the tracer's ``reuse_hits``
#     fall behind.
# Random draws rarely produce the batch and resident cases, so the two
# sequences that show them are pinned as examples.


class _ReadBlockPager(Pager):
    """Every one-block ``read_bytes`` range goes through ``read_block``."""

    def read_bytes(self, file, offset, length):
        bs = self.block_size
        if length > 0 and offset // bs == (offset + length - 1) // bs:
            start = offset % bs
            return self.read_block(file, offset // bs)[start : start + length]
        return Pager.read_bytes(self, file, offset, length)


_FILES = ("f", "g")
_BLOCKS = 3  # few blocks, so a sequence revisits the last one often
_one_block = st.tuples(st.just("read_bytes"), st.sampled_from(_FILES),
                       st.integers(0, _BLOCKS - 1), st.integers(0, BLOCK - 1),
                       st.integers(1, BLOCK))
_spanning = st.tuples(st.just("read_bytes"), st.sampled_from(_FILES),
                      st.integers(0, _BLOCKS - 2), st.integers(0, BLOCK - 1),
                      st.integers(BLOCK, 2 * BLOCK))
_block = st.tuples(st.just("read_block"), st.sampled_from(_FILES),
                   st.integers(0, _BLOCKS - 1), st.just(0), st.just(0))
_write = st.tuples(st.just("write_bytes"), st.sampled_from(_FILES),
                   st.integers(0, _BLOCKS - 1), st.integers(0, BLOCK - 1),
                   st.integers(1, BLOCK))
_other = st.tuples(st.sampled_from(["drop_last_block", "make_g_resident"]),
                   st.just("f"), st.just(0), st.just(0), st.just(0))
_op = st.one_of(_one_block, _one_block, _spanning, _block, _write, _other)


def _replay(pager_cls, pool, traced, hooked, ops, logged=False, frames=6):
    """Run ``ops`` on a fresh pager; what it returned and everything it
    counted.  ``pool`` is None, a policy name, or "write-back" (an LRU
    pool of ``frames`` frames); ``logged`` attaches a WAL that logs
    before each write."""
    device = BlockDevice(BLOCK, NULL_DEVICE)
    policy = "lru" if pool == "write-back" else pool
    buffer_pool = make_buffer_pool(frames, policy) if pool else None
    pager = pager_cls(device, buffer_pool, write_back=pool == "write-back")
    handles = {}
    for name in _FILES:
        handles[name] = device.create_file(name)
        handles[name].allocate(_BLOCKS)
    # "r" is resident from the start, as an index's pinned inner file
    resident = device.create_file("r")
    resident.allocate(1)
    resident.memory_resident = True
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.bind(pager)
    calls = []
    if hooked:
        pager.on_block_access = lambda *access: calls.append(access)
    wal = WriteAheadLog(pager, group_commit=3) if logged else None
    returned = []
    fill = 0
    for batched, group in groupby(ops, key=lambda op: op[-1]):
        with pager.batch() if batched else nullcontext():
            for kind, name, block, at, length, _batched in group:
                handle = handles[name]
                offset = block * BLOCK + at
                if kind == "read_bytes":
                    length = min(length, _BLOCKS * BLOCK - offset)
                    returned.append(pager.read_bytes(handle, offset, length))
                    returned.append(pager.read_bytes(resident, at, 1))
                elif kind == "read_block":
                    returned.append(pager.read_block(handle, block))
                elif kind == "write_bytes":
                    fill = fill % 251 + 1
                    length = min(length, _BLOCKS * BLOCK - offset)
                    if wal is not None:
                        wal.append("insert", fill, length)
                    pager.write_bytes(handle, offset, bytes([fill]) * length)
                    pager.write_bytes(resident, at, bytes([fill]))
                elif kind == "drop_last_block":
                    pager.drop_last_block()
                elif kind == "flush":
                    pager.flush()
                else:
                    # as a stack pins its inner file after the bulk load
                    handles["g"].memory_resident = True
    state = None
    if buffer_pool is not None:
        # the pool's whole state: recency (LRU) or queue (FIFO) order,
        # the dirty set and each dirty frame's covering LSN, CLOCK's ring
        state = (list(buffer_pool._blocks.items()), sorted(buffer_pool._dirty),
                  dict(pager._dirty_lsn), getattr(buffer_pool, "_ring", None),
                  getattr(buffer_pool, "_referenced", None),
                  getattr(buffer_pool, "_hand", None))
    pager.flush()
    counters = (device.stats.snapshot(),
                (buffer_pool.hits, buffer_pool.misses) if buffer_pool else None)
    records = list(tracer.iter_records()) if tracer is not None else None
    returned.append([bytes(handle.blocks[no]) for handle in handles.values()
                     for no in range(_BLOCKS)])
    return returned, counters, records, calls, state


# The sequences the batch and resident guards exist for.
_PINNED_BEFORE_BATCH = [("read_block", "f", 0, 0, 0, False),
                        ("read_bytes", "f", 0, 8, 8, True),
                        ("read_block", "f", 1, 0, 0, True),
                        ("read_bytes", "f", 0, 8, 8, True)]
_RESIDENT_AFTER_READ = [("read_block", "g", 0, 0, 0, False),
                        ("make_g_resident", "f", 0, 0, 0, False),
                        ("write_bytes", "g", 0, 8, 8, False),
                        ("read_bytes", "g", 0, 8, 8, False)]


@settings(max_examples=300, deadline=None)
@example(pool=None, traced=False, hooked=False, ops=_PINNED_BEFORE_BATCH)
@example(pool=None, traced=False, hooked=False, ops=_RESIDENT_AFTER_READ)
@given(pool=st.sampled_from([None, "lru", "write-back"]), traced=st.booleans(),
       hooked=st.booleans(),
       ops=st.lists(st.tuples(_op, st.booleans()).map(lambda p: (*p[0], p[1])),
                    max_size=30))
def test_read_bytes_one_block_branch_matches_read_block(pool, traced, hooked, ops):
    assert (_replay(Pager, pool, traced, hooked, ops)
            == _replay(_ReadBlockPager, pool, traced, hooked, ops))


# -- write_bytes' one-block branch --------------------------------------------
#
# ``Pager.write_bytes`` patches a one-block range into the image
# ``Pager.view`` holds, instead of calling ``read_block`` for it.  The
# reference below is the pager without that branch.  The property holds the two to the same bytes read back
# (and left on the device), device counters, pool probes, pool order,
# dirty set and covering LSNs, tracer records and access-hook calls,
# with and without a WAL, under every pool policy and write-back.  Each
# of these mutations of the branch turns it red:
#   - drop the hook guard (``self.on_block_access is None``): the serving
#     engine's footprint misses the read half of the patch;
#   - drop the resident guard (``not file.memory_resident``): a file made
#     resident after it was read patches its stale last block, and the
#     write loses every byte written to it since;
#   - drop the ``tracer.reuse_hit()`` call: the tracer's ``reuse_hits``
#     fall behind.
# Serving the last block inside a batch leaves it green: there the last
# block and the pinned copy of a block hold the same bytes, and the write
# that follows pins its new image either way.  The read_bytes property
# above is the one that turns red on it.


class _ReadBlockWritePager(Pager):
    """Every one-block ``write_bytes`` patch reads through ``read_block``."""

    def write_bytes(self, file, offset, data):
        bs = self.block_size
        block_no, in_block = divmod(offset, bs)
        end = in_block + len(data)
        if data and end <= bs and len(data) < bs:
            current = bytearray(self.read_block(file, block_no))
            current[in_block:end] = data
            self.write_block(file, block_no, bytes(current))
            return
        Pager.write_bytes(self, file, offset, data)


_write_spanning = st.tuples(st.just("write_bytes"), st.sampled_from(_FILES),
                            st.integers(0, _BLOCKS - 2),
                            st.integers(0, BLOCK - 1),
                            st.integers(BLOCK, 2 * BLOCK))
_flush = st.tuples(st.just("flush"), st.just("f"), st.just(0), st.just(0),
                   st.just(0))
_write_op = st.one_of(_write, _write, _write_spanning, _one_block, _spanning,
                      _block, _other, _flush)

# A write patching the block a file had in the last-block cache when the
# file became resident (what the resident guard is for); its first and
# third steps, hooked, are a patch the hook must see read.
_WRITE_RESIDENT_AFTER_READ = [("read_block", "g", 0, 0, 0, False),
                              ("make_g_resident", "f", 0, 0, 0, False),
                              ("write_bytes", "g", 0, 8, 8, False),
                              ("write_bytes", "g", 0, 20, 8, False),
                              ("read_bytes", "g", 0, 0, 40, False)]


@settings(max_examples=300, deadline=None)
@example(pool=None, traced=False, hooked=True, logged=False,
         ops=_WRITE_RESIDENT_AFTER_READ[:1] + _WRITE_RESIDENT_AFTER_READ[2:3])
@example(pool=None, traced=False, hooked=False, logged=False,
         ops=_WRITE_RESIDENT_AFTER_READ)
@given(pool=st.sampled_from([None, "lru", "fifo", "clock", "write-back"]),
       traced=st.booleans(), hooked=st.booleans(), logged=st.booleans(),
       ops=st.lists(st.tuples(_write_op, st.booleans()).map(
           lambda p: (*p[0], p[1])), max_size=30))
def test_write_bytes_one_block_branch_matches_read_block(pool, traced, hooked,
                                                         logged, ops):
    # four frames for 2 x 3 blocks, so writes evict dirty frames
    assert (_replay(Pager, pool, traced, hooked, ops, logged, frames=4)
            == _replay(_ReadBlockWritePager, pool, traced, hooked, ops, logged,
                       frames=4))
