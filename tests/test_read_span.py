"""Vectorized multi-block I/O: device ``read_blocks``, pager
``read_span``, the bulk buffer-pool API, and the coalescing cost-model
property (coalesced reads never charge more positionings than a serial
sorted loop, and return identical bytes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import HDD, BlockDevice, Pager
from repro.storage.buffer_pool import make_buffer_pool


def _loaded(num_blocks=16, buffer_blocks=0, block_size=4096):
    """A device + pager + file with distinct per-block payloads."""
    device = BlockDevice(block_size=block_size, profile=HDD)
    pool = make_buffer_pool(buffer_blocks) if buffer_blocks else None
    pager = Pager(device, buffer_pool=pool)
    f = device.create_file("f")
    f.allocate(num_blocks)
    for i in range(num_blocks):
        device.write_block(f, i, bytes([i % 256]) * block_size)
    return device, pager, f


# -- device.read_blocks ------------------------------------------------------

def test_read_blocks_empty_and_data():
    device, _pager, f = _loaded(8)
    assert device.read_blocks(f, []) == []
    out = device.read_blocks(f, [1, 4, 5])
    assert out == [bytes([1]) * 4096, bytes([4]) * 4096, bytes([5]) * 4096]


def test_read_blocks_rejects_unsorted_and_duplicates():
    device, _pager, f = _loaded(8)
    with pytest.raises(ValueError):
        device.read_blocks(f, [3, 1])
    with pytest.raises(ValueError):
        device.read_blocks(f, [2, 2])
    with pytest.raises(IndexError):
        device.read_blocks(f, [7, 8])


def test_read_blocks_charges_one_positioning_per_run():
    device, _pager, f = _loaded(16)
    before = device.stats.snapshot()
    device.read_blocks(f, [2, 3, 4, 9, 10, 13])
    delta = device.stats.diff(before)
    assert delta.reads == 6
    # three runs: [2..4], [9..10], [13] -> one positioning each
    assert delta.read_positionings == 3
    assert delta.coalesced_runs == 2
    assert delta.coalesced_blocks == 5  # 3 + 2; the singleton isn't a run
    # run members after the first pay the sequential cost
    seq = device.profile.read_cost_us(device.block_size, sequential=True)
    rand = device.profile.read_cost_us(device.block_size, sequential=False)
    assert delta.elapsed_us == 3 * rand + 3 * seq


def test_read_blocks_extends_a_preceding_sequential_access():
    device, _pager, f = _loaded(16)
    device.read_block(f, 4)
    before = device.stats.snapshot()
    device.read_blocks(f, [5, 6])
    delta = device.stats.diff(before)
    assert delta.read_positionings == 0  # the head joins the prior access
    assert delta.coalesced_runs == 1


def test_on_run_hook_reports_each_multiblock_run():
    device, _pager, f = _loaded(16)
    runs = []
    device.on_run = lambda name, length: runs.append((name, length))
    device.read_blocks(f, [0, 1, 2, 5, 8, 9])
    assert runs == [("f", 3), ("f", 2)]


def test_read_blocks_memory_resident_is_free():
    device, _pager, f = _loaded(8)
    f.memory_resident = True
    before = device.stats.snapshot()
    out = device.read_blocks(f, [0, 3])
    delta = device.stats.diff(before)
    assert out[1] == bytes([3]) * 4096
    assert delta.reads == 0 and delta.elapsed_us == 0


# -- pager.read_span ---------------------------------------------------------

def test_read_span_sorts_dedups_and_matches_read_block():
    _device, pager, f = _loaded(16)
    span = pager.read_span(f, [9, 2, 2, 5])
    assert sorted(span) == [2, 5, 9]
    for no, data in span.items():
        assert data == bytes([no]) * 4096
    assert pager.read_span(f, []) == {}


def test_read_span_serves_pool_hits_and_backfills():
    _device, pager, f = _loaded(16, buffer_blocks=8)
    pager.read_span(f, [3, 4, 5])
    assert pager.buffer_pool.get_many("f", [3, 4, 5])  # back-filled
    before = pager.device.stats.snapshot()
    span = pager.read_span(f, [3, 4, 5, 6])
    delta = pager.device.stats.diff(before)
    assert delta.reads == 1  # only block 6 goes to the device
    assert span[4] == bytes([4]) * 4096


def test_read_span_last_block_reuse_only_at_the_span_head():
    # A serial ascending loop can only ever hit the pager's one-block
    # reuse cache on its first block; read_span must not do better.
    _device, pager, f = _loaded(16)
    pager.read_block(f, 7)  # _last = block 7
    before = pager.device.stats.snapshot()
    pager.read_span(f, [7, 8])
    assert pager.device.stats.diff(before).reads == 1  # 7 from _last
    pager.read_block(f, 9)  # _last = block 9
    before = pager.device.stats.snapshot()
    pager.read_span(f, [8, 9])
    assert pager.device.stats.diff(before).reads == 2  # 9 is mid-span: refetch


def test_batch_scope_pins_blocks_across_read_spans():
    _device, pager, f = _loaded(16)
    with pager.batch():
        pager.read_span(f, [4, 5])
        before = pager.device.stats.snapshot()
        assert pager.read_block(f, 4) == bytes([4]) * 4096
        pager.read_span(f, [4, 5])
        assert pager.device.stats.diff(before).reads == 0
    before = pager.device.stats.snapshot()
    pager.read_block(f, 4)  # pins dropped at scope exit
    assert pager.device.stats.diff(before).reads == 1


# -- bulk buffer-pool API ----------------------------------------------------

@pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
def test_put_many_get_many_roundtrip(policy):
    pool = make_buffer_pool(4, policy)
    pool.put_many("f", {1: b"a", 2: b"b", 3: b"c"})
    hits = pool.get_many("f", [1, 2, 3, 9])
    assert hits == {1: b"a", 2: b"b", 3: b"c"}
    assert pool.hits == 3 and pool.misses == 1
    assert len(pool) == 3


@pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
def test_put_many_respects_capacity(policy):
    pool = make_buffer_pool(2, policy)
    pool.put_many("f", {i: bytes([i]) for i in range(5)})
    assert len(pool) == 2


@pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
def test_zero_capacity_bulk_ops_are_noops(policy):
    pool = make_buffer_pool(0, policy)
    pool.put_many("f", {1: b"a"})
    assert pool.get_many("f", [1]) == {}


def test_bulk_eviction_order_matches_policy():
    lru = make_buffer_pool(2, "lru")
    lru.put_many("f", {1: b"a", 2: b"b"})
    lru.get_many("f", [1])          # 1 becomes most recent
    lru.put_many("f", {3: b"c"})    # evicts 2
    assert lru.get_many("f", [1, 2, 3]) == {1: b"a", 3: b"c"}

    fifo = make_buffer_pool(2, "fifo")
    fifo.put_many("f", {1: b"a", 2: b"b"})
    fifo.get_many("f", [1])         # recency ignored
    fifo.put_many("f", {1: b"A", 3: b"c"})  # refresh keeps 1 oldest; evicts 1
    assert fifo.get_many("f", [1, 2, 3]) == {2: b"b", 3: b"c"}

    clock = make_buffer_pool(2, "clock")
    clock.put_many("f", {1: b"a", 2: b"b"})
    clock.get_many("f", [1])        # referenced bit set -> second chance
    clock.put_many("f", {3: b"c"})  # hand skips 1, evicts 2
    assert clock.get_many("f", [1, 2, 3]) == {1: b"a", 3: b"c"}


# -- the coalescing cost-model property --------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=20),
       st.booleans())
def test_read_span_matches_serial_sorted_loop(block_nos, use_pool):
    """Coalescing is a pure scheduling optimization: identical bytes, and
    never more device reads, positionings, or simulated time than reading
    the same sorted blocks one at a time."""
    buffer_blocks = 8 if use_pool else 0
    _d1, serial_pager, f1 = _loaded(32, buffer_blocks=buffer_blocks)
    _d2, span_pager, f2 = _loaded(32, buffer_blocks=buffer_blocks)

    before = serial_pager.device.stats.snapshot()
    expected = {no: serial_pager.read_block(f1, no) for no in sorted(block_nos)}
    serial = serial_pager.device.stats.diff(before)

    before = span_pager.device.stats.snapshot()
    span = span_pager.read_span(f2, block_nos)
    coalesced = span_pager.device.stats.diff(before)

    assert span == expected
    assert coalesced.reads <= serial.reads
    assert coalesced.read_positionings <= serial.read_positionings
    assert coalesced.elapsed_us <= serial.elapsed_us
