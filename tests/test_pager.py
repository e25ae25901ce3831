"""Unit tests for the byte-addressed pager and its cache hierarchy."""

import dataclasses
import random

import pytest

from repro.core import make_index
from repro.storage import HDD, BlockDevice, BufferPool, Pager

from .util import make_sharded


def _prepared(pager, nblocks=4, name="f"):
    f = pager.device.create_file(name)
    f.allocate(nblocks)
    return f


def test_read_bytes_within_one_block(pager):
    f = _prepared(pager)
    block = bytearray(4096)
    block[100:105] = b"hello"
    pager.write_block(f, 0, bytes(block))
    reads_before = pager.stats.reads
    pager.drop_last_block()
    assert pager.read_bytes(f, 100, 5) == b"hello"
    assert pager.stats.reads - reads_before == 1


def test_read_bytes_spanning_blocks(pager):
    f = _prepared(pager)
    pager.write_bytes(f, 4090, b"0123456789AB")  # crosses block 0 -> 1
    pager.drop_last_block()
    assert pager.read_bytes(f, 4090, 12) == b"0123456789AB"


def test_read_bytes_counts_covering_blocks(pager):
    f = _prepared(pager)
    pager.write_bytes(f, 0, bytes(3 * 4096))
    pager.drop_last_block()
    before = pager.stats.reads
    pager.read_bytes(f, 100, 2 * 4096)  # spans 3 blocks
    assert pager.stats.reads - before == 3


def test_zero_length_read(pager):
    f = _prepared(pager)
    assert pager.read_bytes(f, 0, 0) == b""


def test_negative_range_rejected(pager):
    f = _prepared(pager)
    with pytest.raises(ValueError):
        pager.read_bytes(f, -1, 4)
    with pytest.raises(ValueError):
        pager.read_bytes(f, 0, -4)
    with pytest.raises(ValueError):
        pager.write_bytes(f, -1, b"x")


def test_partial_block_write_is_read_modify_write(pager):
    f = _prepared(pager)
    pager.write_block(f, 0, b"\xAA" * 4096)
    pager.drop_last_block()
    pager.write_bytes(f, 10, b"\x00\x00")
    data = pager.read_block(f, 0)
    assert data[9] == 0xAA
    assert data[10:12] == b"\x00\x00"
    assert data[12] == 0xAA


def test_full_block_write_skips_read(pager):
    f = _prepared(pager)
    before = pager.stats.reads
    pager.write_bytes(f, 4096, bytes(4096))  # exactly block 1
    assert pager.stats.reads == before


def test_last_block_reuse(pager):
    f = _prepared(pager)
    pager.write_block(f, 0, bytes(4096))
    before = pager.stats.reads
    pager.read_bytes(f, 0, 8)
    pager.read_bytes(f, 100, 8)   # same block: served from the one-block cache
    assert pager.stats.reads == before  # write primed the cache


def test_drop_last_block_forces_refetch(pager):
    f = _prepared(pager)
    pager.write_block(f, 0, bytes(4096))
    pager.drop_last_block()
    before = pager.stats.reads
    pager.read_bytes(f, 0, 8)
    assert pager.stats.reads == before + 1


def test_buffer_pool_serves_repeat_reads():
    device = BlockDevice(4096, HDD)
    pager = Pager(device, buffer_pool=BufferPool(8))
    f = device.create_file("f")
    f.allocate(2)
    pager.write_block(f, 0, bytes(4096))
    pager.write_block(f, 1, bytes(4096))
    before = device.stats.reads
    for block_no in (0, 1, 0):
        pager.drop_last_block()  # served by the pool, not the reuse cache
        pager.read_block(f, block_no)
    assert device.stats.reads == before  # writes were write-through cached


def test_buffer_pool_invalidation_via_pager():
    device = BlockDevice(4096, HDD)
    pool = BufferPool(8)
    pager = Pager(device, buffer_pool=pool)
    f = device.create_file("f")
    f.allocate(1)
    pager.write_block(f, 0, bytes(4096))
    pager.invalidate_file("f")
    assert pool.get("f", 0) is None


def test_phase_context_manager(pager):
    f = _prepared(pager)
    with pager.phase("search"):
        pager.read_block(f, 0)
        with pager.phase("smo"):
            pager.read_block(f, 1)
        pager.read_block(f, 2)
    assert pager.stats.reads_by_phase["search"] == 2
    assert pager.stats.reads_by_phase["smo"] == 1
    assert pager.device.phase == "default"


def test_phase_scope_restores_the_previous_phase_on_raise_and_repeat(pager):
    f = _prepared(pager)
    with pytest.raises(KeyError):
        with pager.phase("search"):
            pager.read_block(f, 0)
            raise KeyError("body failed")
    assert pager.device.phase == "default"
    with pager.phase("insert"):
        with pager.phase("insert"):
            with pager.phase("insert"):
                pager.read_block(f, 1)
            assert pager.device.phase == "insert"
        with pytest.raises(ValueError):
            with pager.phase("smo"), pager.phase("smo"):
                raise ValueError
        assert pager.device.phase == "insert"
    assert pager.device.phase == "default"
    assert pager.stats.reads_by_phase == {"search": 1, "insert": 1}


def test_tier_phase_scope_restores_every_member_on_raise_and_repeat():
    index = make_sharded("btree", 2, sample_keys=list(range(0, 4000, 4)))
    index.bulk_load([(k, k + 1) for k in range(0, 4000, 4)])
    devices = [member.device for shard in index.shards
               for member in shard.members()]
    with pytest.raises(KeyError):
        with index.pager.phase("search"):
            assert {d.phase for d in devices} == {"search"}
            raise KeyError
    assert {d.phase for d in devices} == {"default"}
    with index.pager.phase("scan"), index.pager.phase("scan"):
        index.scan(100, 50)
        assert {d.phase for d in devices} == {"scan"}
    assert {d.phase for d in devices} == {"default"}


def test_batch_scope_is_reentrant_and_drops_pins_on_raise(pager):
    f = _prepared(pager)
    with pytest.raises(KeyError):
        with pager.batch():
            with pager.batch():
                pager.read_block(f, 0)
            pager.read_block(f, 1)
            before = pager.stats.reads
            pager.read_block(f, 0)  # still pinned by the outer scope
            assert pager.stats.reads == before
            raise KeyError
    assert pager._batch_depth == 0 and not pager._batch_cache
    before = pager.stats.reads
    pager.read_block(f, 0)
    assert pager.stats.reads == before + 1


def test_memory_resident_file_bypasses_caches(pager):
    f = _prepared(pager)
    f.memory_resident = True
    pager.write_block(f, 0, b"\x01" * 4096)
    assert pager.read_block(f, 0) == b"\x01" * 4096
    assert pager.stats.reads == 0
    assert pager.stats.writes == 0


def test_memory_resident_reads_see_unflushed_dirty_frames():
    """Free reads under a write-back pager must serve the dirty frame —
    the device copy is stale until the next flush."""
    device = BlockDevice(4096, HDD)
    pager = Pager(device, buffer_pool=BufferPool(8), write_back=True)
    f = _prepared(pager)
    pager.write_block(f, 0, b"\x42" * 4096)   # dirty frame, not on device
    assert bytes(f.blocks[0]) != b"\x42" * 4096
    f.memory_resident = True
    hits_before = pager.buffer_pool.hits
    assert pager.read_block(f, 0) == b"\x42" * 4096
    assert pager.read_span(f, [0]) == {0: b"\x42" * 4096}
    # The peek is recency- and counter-neutral: not a cache probe.
    assert pager.buffer_pool.hits == hits_before
    assert pager.stats.reads == 0
    # Once flushed, the device copy is current and serves as before.
    f.memory_resident = False
    pager.flush()
    f.memory_resident = True
    assert pager.read_block(f, 0) == b"\x42" * 4096


# ---------------------------------------------------------------------------
# Per-frame parse cache (Pager.cached_meta)
# ---------------------------------------------------------------------------
def _compressed_btree(pool_blocks):
    """A ``codec="for"`` B+-tree over 512-byte blocks (about 40 leaves),
    its keys, and a counter of leaf transcodes — the parse the cache holds."""
    device = BlockDevice(512, HDD)
    pool = BufferPool(pool_blocks) if pool_blocks else None
    index = make_index("btree", Pager(device, buffer_pool=pool), codec="for")
    rng = random.Random(17)
    keys = sorted(rng.sample(range(1 << 40), 3000))
    index.bulk_load([(key, key + 1) for key in keys])
    leaves = index.tree.leaves
    builds = []
    transcode = leaves._transcode
    leaves._transcode = lambda block: builds.append(1) or transcode(block)
    return index, keys, builds


def test_parse_cache_without_a_pool_keeps_only_the_last_block():
    """Hits are by identity of the block's bytes object, and without a
    pool every charged read returns a new one: outside a batch only the
    last-block copy can ever match, so that is all the cache may hold —
    not one dead transcoded image per block ever read."""
    index, keys, builds = _compressed_btree(pool_blocks=0)
    plain, _keys, _builds = _compressed_btree(pool_blocks=0)
    plain.pager.cached_meta = lambda file, block_no, data, build: build(data)
    pager = index.pager
    rng = random.Random(3)
    stored = set(keys)
    for key in [rng.choice(keys) for _ in range(400)] + [5, 1 << 41]:
        assert index.lookup(key) == plain.lookup(key) == (
            key + 1 if key in stored else None)
        assert len(pager._meta_cache) <= 1
    # the one entry is live: the last block read again is the same object
    leaves = index.tree.leaves
    before = len(builds)
    assert leaves.read(3) is leaves.read(3)
    assert len(builds) == before + 1 and list(pager._meta_cache) == [
        (leaves.file.name, 3)]
    # inside a batch every pinned block's parse is served again ...
    batch = sorted(rng.sample(keys, 64)) * 2
    before = len(builds)
    assert index.lookup_many(batch) == plain.lookup_many(batch)
    assert len(builds) - before <= leaves.file.num_blocks < 64
    # ... and goes when the pins go
    assert not pager._meta_cache
    assert index.scan(keys[100], 500) == plain.scan(keys[100], 500)
    assert len(pager._meta_cache) <= 1
    # the cache only ever replaced a parse: not one charge moved
    plain.tree.leaves.read(3), plain.tree.leaves.read(3)
    assert dataclasses.asdict(pager.device.stats) == dataclasses.asdict(
        plain.pager.device.stats)


def test_parse_cache_with_a_pool_drops_nothing_it_could_serve():
    """With a pool a frame is handed out again until it is evicted.  The
    cache must parse exactly as often as one that keeps every entry until
    a write or an eviction drops it (what it did before it learned to
    skip entries no read can match) — alone, batched, pool thrashing."""
    index, keys, builds = _compressed_btree(pool_blocks=16)
    twin, _keys, twin_builds = _compressed_btree(pool_blocks=16)
    kept = twin.pager._meta_cache   # shared with the write and eviction hooks

    def keep_everything(file, block_no, data, build):
        entry = kept.get((file.name, block_no))
        if entry is None or entry[0] is not data:
            entry = kept[file.name, block_no] = (data, build(data))
        return entry[1]

    twin.pager.cached_meta = keep_everything
    leaf_file = index.tree.leaves.file
    assert leaf_file.num_blocks > 2 * 16      # the pool evicts
    rng = random.Random(5)
    for _ in range(30):
        for key in (rng.choice(keys) for _ in range(10)):
            assert index.lookup(key) == twin.lookup(key) == key + 1
        batch = rng.sample(keys, 48)
        assert index.lookup_many(batch) == twin.lookup_many(batch)
    # some frames are parsed again without a fetch: evicted from the
    # pool by the very span that still holds them
    assert len(builds) == len(twin_builds) > leaf_file.reads
    assert dataclasses.asdict(index.pager.device.stats) == dataclasses.asdict(
        twin.pager.device.stats)
