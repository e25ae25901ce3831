"""Write-back buffer pool: device ``write_blocks``, per-frame dirty bits,
the pager's buffered write path and its three flush points (dirty
eviction, explicit flush, checkpoint), WAL log-before-data ordering, and
crash recovery with dropped dirty pages."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.__main__ import main as bench_main
from repro.bench.config import default_scale, fresh_index
from repro.stack import StackSpec
from repro.core import load_index, make_index, save_index
from repro.durability import (
    FaultInjector,
    WriteAheadLog,
    recover,
    take_checkpoint,
)
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager
from repro.storage.buffer_pool import make_buffer_pool
from repro.workloads import run_workload

BS = 4096
POLICIES = ("lru", "fifo", "clock")


def _payload(i):
    return bytes([i % 256]) * BS


def _loaded(num_blocks=16, profile=HDD):
    device = BlockDevice(block_size=BS, profile=profile)
    f = device.create_file("f")
    f.allocate(num_blocks)
    return device, f


def _wb_pager(device, capacity=8, policy="lru"):
    pool = make_buffer_pool(capacity, policy)
    return Pager(device, buffer_pool=pool, write_back=True)


# ---------------------------------------------------------------------------
# device.write_blocks
# ---------------------------------------------------------------------------

def test_write_blocks_stores_payloads_and_coalesces_one_run():
    device, f = _loaded(8)
    before = device.stats.write_positionings
    device.write_blocks(f, [(2, _payload(2)), (3, _payload(3)),
                            (4, _payload(4))])
    assert device.stats.write_positionings - before == 1
    assert device.stats.coalesced_runs == 1
    assert device.stats.coalesced_blocks == 3
    for i in (2, 3, 4):
        assert bytes(f.blocks[i]) == _payload(i)


def test_write_blocks_charges_one_positioning_per_run():
    device, f = _loaded(16)
    before = device.stats.write_positionings
    # Runs: [0,1], [5], [8,9,10] -> 3 positionings for 6 writes.
    device.write_blocks(f, [(0, _payload(0)), (1, _payload(1)),
                            (5, _payload(5)), (8, _payload(8)),
                            (9, _payload(9)), (10, _payload(10))])
    assert device.stats.write_positionings - before == 3
    assert device.stats.writes == 6
    assert device.stats.coalesced_runs == 2


def test_write_blocks_empty_is_noop():
    device, f = _loaded(4)
    device.write_blocks(f, [])
    assert device.stats.writes == 0


def test_write_blocks_rejects_unsorted_duplicates_and_bad_sizes():
    device, f = _loaded(8)
    with pytest.raises(ValueError):
        device.write_blocks(f, [(3, _payload(3)), (1, _payload(1))])
    with pytest.raises(ValueError):
        device.write_blocks(f, [(2, _payload(2)), (2, _payload(2))])
    with pytest.raises(ValueError):
        device.write_blocks(f, [(0, b"short")])
    with pytest.raises(IndexError):
        device.write_blocks(f, [(99, _payload(0))])
    assert device.stats.writes == 0  # validation precedes any charging


def test_write_blocks_memory_resident_is_free():
    device, f = _loaded(4)
    f.memory_resident = True
    device.write_blocks(f, [(0, _payload(0)), (1, _payload(1))])
    assert device.stats.writes == 0
    assert device.stats.elapsed_us == 0
    assert bytes(f.blocks[1]) == _payload(1)


def test_write_blocks_head_extends_previous_access():
    device, f = _loaded(8)
    device.write_block(f, 3, _payload(3))
    before = device.stats.write_positionings
    device.write_blocks(f, [(4, _payload(4)), (5, _payload(5))])
    # Block 4 rides sequentially after the write of block 3.
    assert device.stats.write_positionings - before == 0


def test_write_blocks_fires_on_run_hook():
    device, f = _loaded(16)
    runs = []
    device.on_run = lambda name, length: runs.append((name, length))
    device.write_blocks(f, [(0, _payload(0)), (1, _payload(1)),
                            (4, _payload(4)),
                            (7, _payload(7)), (8, _payload(8)),
                            (9, _payload(9))])
    assert runs == [("f", 2), ("f", 3)]


def test_write_blocks_cost_matches_serial_sorted_loop():
    """Coalesced writes charge exactly what a serial sorted write_block
    loop would — the device's sequential detection already coalesces."""
    blocks = [0, 1, 2, 7, 9, 10, 15]
    device_a, fa = _loaded(16)
    device_a.write_blocks(fa, [(b, _payload(b)) for b in blocks])
    device_b, fb = _loaded(16)
    for b in blocks:
        device_b.write_block(fb, b, _payload(b))
    assert (device_a.stats.write_positionings
            == device_b.stats.write_positionings)
    assert device_a.stats.elapsed_us == device_b.stats.elapsed_us


# ---------------------------------------------------------------------------
# buffer-pool dirty bits (all three policies)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_dirty_bit_lifecycle(policy):
    pool = make_buffer_pool(4, policy)
    pool.put_dirty(("f", 0), b"a")
    pool.put("f", 1, b"b")
    assert pool.is_dirty("f", 0)
    assert not pool.is_dirty("f", 1)
    assert pool.dirty_count == 1
    assert pool.dirty_items() == {("f", 0): b"a"}
    assert pool.dirty_items("other") == {}
    pool.mark_clean([("f", 0)])
    assert pool.dirty_count == 0
    assert pool.get("f", 0) == b"a"  # frame stays cached after cleaning


@pytest.mark.parametrize("policy", POLICIES)
def test_put_dirty_frame_evicted_at_once_is_written_back(policy):
    """The frame is dirty before the eviction pass runs: with every other
    frame pinned, LRU and FIFO evict the new frame itself, through
    ``on_evict``; CLOCK overflows instead."""
    pool = make_buffer_pool(2, policy)
    evicted = []
    pool.on_evict = lambda name, no, data: evicted.append((name, no, data))
    for no in (0, 1):
        pool.put("f", no, b"pinned")
        pool.pin("f", no)
    pool.put_dirty(("f", 2), b"two")
    if policy == "clock":
        assert evicted == [] and pool.is_dirty("f", 2) and len(pool) == 3
    else:
        assert evicted == [("f", 2, b"two")] and pool.dirty_evictions == 1
        assert pool.dirty_count == 0 and len(pool) == 2


@pytest.mark.parametrize("policy", POLICIES)
def test_dirty_eviction_hands_exactly_that_frame(policy):
    pool = make_buffer_pool(2, policy)
    evicted = []
    pool.on_evict = lambda name, no, data: evicted.append((name, no, data))
    pool.put_dirty(("f", 0), b"zero")
    pool.put("f", 1, b"one")
    pool.put("f", 2, b"two")  # evicts frame 0 (dirty) in every policy
    assert evicted == [("f", 0, b"zero")]
    assert pool.dirty_evictions == 1
    assert pool.clean_evictions == 0
    assert pool.dirty_count == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_clean_eviction_never_calls_back(policy):
    pool = make_buffer_pool(2, policy)
    evicted = []
    pool.on_evict = lambda name, no, data: evicted.append((name, no))
    for i in range(5):
        pool.put("f", i, bytes([i]))
    assert evicted == []
    assert pool.dirty_evictions == 0
    assert pool.clean_evictions == 3


@pytest.mark.parametrize("policy", POLICIES)
def test_invalidate_discards_dirty_without_flushing(policy):
    pool = make_buffer_pool(4, policy)
    evicted = []
    pool.on_evict = lambda *args: evicted.append(args)
    pool.put_dirty(("f", 0), b"a")
    pool.invalidate("f", 0)
    assert pool.dirty_count == 0
    assert evicted == []
    pool.put_dirty(("g", 1), b"b")
    pool.invalidate_file("g")
    assert pool.dirty_count == 0
    assert evicted == []


# ---------------------------------------------------------------------------
# pager write-back mode
# ---------------------------------------------------------------------------

def test_write_back_requires_a_real_pool():
    device = BlockDevice(BS, HDD)
    with pytest.raises(ValueError):
        Pager(device, write_back=True)
    with pytest.raises(ValueError):
        Pager(device, buffer_pool=make_buffer_pool(0), write_back=True)


def test_buffered_write_defers_device_io_and_serves_reads():
    device, f = _loaded(8)
    pager = _wb_pager(device, capacity=8)
    pager.write_block(f, 3, _payload(3))
    assert device.stats.writes == 0
    assert pager.dirty_blocks == 1
    # The read must see the buffered copy, not the device's zeros...
    assert pager.read_block(f, 3) == _payload(3)
    # ...and the device image is still unwritten until the flush.
    assert bytes(f.blocks[3]) == bytes(BS)
    assert pager.flush() == 1
    assert bytes(f.blocks[3]) == _payload(3)
    assert pager.dirty_blocks == 0


def test_buffered_write_validates_eagerly():
    device, f = _loaded(4)
    pager = _wb_pager(device)
    with pytest.raises(ValueError):
        pager.write_block(f, 99, _payload(0))
    with pytest.raises(ValueError):
        pager.write_block(f, 0, b"short")


def test_flush_coalesces_adjacent_dirty_pages():
    device, f = _loaded(16)
    pager = _wb_pager(device, capacity=16)
    # Written in scattered order; the flush sorts them into runs.
    for b in (9, 2, 3, 8, 4, 10):
        pager.write_block(f, b, _payload(b))
    before = device.stats.write_positionings
    assert pager.flush() == 6
    # Runs [2,3,4] and [8,9,10]: two positionings for six writes.
    assert device.stats.write_positionings - before == 2
    assert device.stats.writes_by_phase.get("flush") == 6
    assert pager.flushes == 1
    assert pager.flushed_blocks == 6
    # Second flush is a no-op.
    assert pager.flush() == 0
    assert pager.flushes == 1


def test_flush_single_file_filter():
    device, f = _loaded(4)
    g = device.create_file("g")
    g.allocate(4)
    pager = _wb_pager(device, capacity=8)
    pager.write_block(f, 0, _payload(1))
    pager.write_block(g, 0, _payload(2))
    assert pager.flush("f") == 1
    assert pager.dirty_blocks == 1
    assert bytes(g.blocks[0]) == bytes(BS)
    assert pager.flush() == 1
    assert bytes(g.blocks[0]) == _payload(2)


def test_rewriting_a_dirty_page_flushes_once():
    device, f = _loaded(4)
    pager = _wb_pager(device, capacity=4)
    for i in range(5):
        pager.write_block(f, 2, _payload(i))
    assert pager.dirty_blocks == 1
    assert pager.flush() == 1
    assert device.stats.writes == 1
    assert bytes(f.blocks[2]) == _payload(4)


@pytest.mark.parametrize("policy", POLICIES)
def test_dirty_eviction_writes_exactly_that_frame(policy):
    device, f = _loaded(8)
    pager = _wb_pager(device, capacity=2, policy=policy)
    pager.write_block(f, 0, _payload(0))
    pager.write_block(f, 4, _payload(4))
    assert device.stats.writes == 0
    pager.write_block(f, 6, _payload(6))  # evicts frame 0 in every policy
    assert device.stats.writes == 1
    assert device.stats.writes_by_phase.get("flush") == 1
    assert bytes(f.blocks[0]) == _payload(0)
    assert pager.buffer_pool.dirty_evictions == 1
    # The evicted frame is clean on disk; the two survivors still flush.
    assert pager.flush() == 2


@pytest.mark.parametrize("policy", POLICIES)
def test_write_into_a_pool_of_pinned_frames_is_written_back(policy):
    """Every other frame pinned: LRU and FIFO evict the frame just
    written.  It was dirty when it left, so it reaches the device (after
    the WAL records covering it) instead of being dropped clean.  CLOCK
    overflows rather than evict a frame the hand has not passed."""
    device, f = _loaded(4)
    pager = _wb_pager(device, capacity=2, policy=policy)
    wal = WriteAheadLog(pager, group_commit=1000)  # nothing auto-flushes
    for block_no in (0, 1):
        assert pager.quarantine("f", block_no, _payload(block_no))
    wal.append("insert", 7, 8)
    phases = []
    device.on_access = lambda kind, name, no, phase, cost: phases.append(
        (name, no, phase))
    pager.write_block(f, 2, _payload(2))
    pager.flush()
    assert bytes(f.blocks[2]) == _payload(2)
    assert wal.durable_seqno == 1
    data_writes = [access for access in phases if access[0] == "f"]
    assert data_writes == [("f", 2, "flush")]
    assert phases.index(data_writes[0]) > phases.index(("wal", 0, "log"))
    assert pager.read_block(f, 2) == _payload(2)


def test_clean_eviction_charges_zero_writes():
    device, f = _loaded(8)
    for i in range(8):
        device.write_block(f, i, _payload(i))
    writes_before = device.stats.writes
    pager = _wb_pager(device, capacity=2)
    for i in range(8):
        assert pager.read_block(f, i) == _payload(i)
    assert device.stats.writes == writes_before
    assert pager.buffer_pool.clean_evictions == 6
    assert pager.buffer_pool.dirty_evictions == 0


def test_write_bytes_read_modify_write_under_write_back():
    device, f = _loaded(4)
    pager = _wb_pager(device, capacity=4)
    pager.write_bytes(f, 100, b"hello")
    assert pager.read_bytes(f, 100, 5) == b"hello"
    assert device.stats.writes == 0
    pager.flush()
    assert bytes(f.blocks[0][100:105]) == b"hello"


def test_pager_write_blocks_buffers_in_write_back_mode():
    device, f = _loaded(8)
    pager = _wb_pager(device, capacity=8)
    pager.write_blocks(f, [(1, _payload(1)), (2, _payload(2))])
    assert device.stats.writes == 0
    assert pager.dirty_blocks == 2
    pager.write_blocks(f, [(5, _payload(5))], through=True)
    assert device.stats.writes == 1
    assert not pager.buffer_pool.is_dirty("f", 5)


def test_pager_write_blocks_through_supersedes_dirty_copy():
    device, f = _loaded(4)
    pager = _wb_pager(device, capacity=4)
    pager.write_block(f, 1, _payload(7))
    pager.write_blocks(f, [(1, _payload(9))], through=True)
    assert pager.dirty_blocks == 0
    assert bytes(f.blocks[1]) == _payload(9)
    assert pager.read_block(f, 1) == _payload(9)
    assert pager.flush() == 0


def test_drop_dirty_discards_buffered_pages():
    device, f = _loaded(8)
    device.write_block(f, 1, _payload(1))
    pager = _wb_pager(device, capacity=8)
    pager.write_block(f, 1, _payload(200))
    pager.write_block(f, 2, _payload(201))
    assert pager.drop_dirty() == 2
    assert pager.dirty_blocks == 0
    # The only trustworthy copy is the device's pre-crash image.
    assert pager.read_block(f, 1) == _payload(1)
    assert pager.read_block(f, 2) == bytes(BS)
    assert pager.flush() == 0


def test_drop_dirty_without_pool_is_noop(pager):
    assert pager.drop_dirty() == 0
    assert pager.flush() == 0


# ---------------------------------------------------------------------------
# flush cost parity + write-through equivalence (hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=23),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=40))
def test_flush_parity_and_write_through_equivalence(ops):
    """For arbitrary write sequences: (a) the coalesced dirty flush never
    charges more write positionings than a serial sorted write_block loop
    over the same dirty set, and (b) the final device bytes equal
    write-through's."""
    num_blocks = 24

    device_wt, f_wt = _loaded(num_blocks)
    pager_wt = Pager(device_wt)
    for block_no, fill in ops:
        pager_wt.write_block(f_wt, block_no, bytes([fill]) * BS)

    device_wb, f_wb = _loaded(num_blocks)
    pager_wb = _wb_pager(device_wb, capacity=num_blocks)
    for block_no, fill in ops:
        pager_wb.write_block(f_wb, block_no, bytes([fill]) * BS)
    dirty = {no: data for (_n, no), data
             in pager_wb.buffer_pool.dirty_items().items()}
    before = device_wb.stats.write_positionings
    pager_wb.flush()
    flush_positionings = device_wb.stats.write_positionings - before

    # (b) byte-identical images.
    assert [bytes(b) for b in f_wb.blocks] == [bytes(b) for b in f_wt.blocks]

    # (a) cost parity vs the serial sorted loop over the same dirty set.
    device_loop, f_loop = _loaded(num_blocks)
    for no in sorted(dirty):
        device_loop.write_block(f_loop, no, dirty[no])
    assert flush_positionings <= device_loop.stats.write_positionings
    assert device_wb.stats.writes == device_loop.stats.writes


# ---------------------------------------------------------------------------
# WAL ordering + checkpoint flush point
# ---------------------------------------------------------------------------

def _wb_index(name="btree", bulk=None, capacity=64, profile=NULL_DEVICE):
    device = BlockDevice(BS, profile)
    pager = _wb_pager(device, capacity=capacity)
    index = make_index(name, pager)
    if bulk:
        index.bulk_load(bulk)
    return index


def test_flush_forces_wal_durable_first():
    """Log before data: the explicit flush must push the WAL's pending
    records out ahead of any dirty page — observed on the device's access
    stream as every 'log' write preceding every 'flush' write."""
    index = _wb_index(bulk=[(k, k + 1) for k in range(0, 200, 2)])
    wal = WriteAheadLog(index.pager, group_commit=1000)  # nothing auto-flushes
    index.attach_wal(wal)
    for k in range(1, 50, 2):
        index.durable_insert(k, k + 1)
    assert wal.pending > 0
    assert index.pager.dirty_blocks > 0
    phases = []
    index.pager.device.on_access = (
        lambda kind, name, no, phase, cost: phases.append(phase))
    index.pager.flush()
    assert wal.pending == 0
    assert "log" in phases and "flush" in phases
    assert max(i for i, p in enumerate(phases) if p == "log") < \
        min(i for i, p in enumerate(phases) if p == "flush")


def test_dirty_eviction_forces_wal_durable_first():
    index = _wb_index(capacity=2, bulk=[(k, k + 1) for k in range(0, 400, 2)])
    index.pager.flush()  # bulk-load phase boundary: start from clean frames
    wal = WriteAheadLog(index.pager, group_commit=1000)
    index.attach_wal(wal)
    evictions_before = index.pager.buffer_pool.dirty_evictions
    phases = []
    index.pager.device.on_access = (
        lambda kind, name, no, phase, cost: phases.append(phase))
    k = 1
    while index.pager.buffer_pool.dirty_evictions == evictions_before:
        index.durable_insert(k, k + 1)
        k += 2
    flush_writes = [i for i, p in enumerate(phases) if p == "flush"]
    log_writes = [i for i, p in enumerate(phases) if p == "log"]
    assert flush_writes and log_writes
    assert log_writes[0] < flush_writes[0]
    # Nothing the eviction flushed can be ahead of the log's high water:
    assert wal.durable_seqno == wal.current_lsn


def test_index_flush_convenience_covers_wal_and_pages():
    index = _wb_index(bulk=[(k, k + 1) for k in range(0, 100, 2)])
    wal = WriteAheadLog(index.pager, group_commit=1000)
    index.attach_wal(wal)
    index.durable_insert(1, 2)
    assert index.flush() > 0
    assert wal.pending == 0
    assert index.pager.dirty_blocks == 0


def test_checkpoint_and_save_index_flush_dirty_pages():
    """save_index (and take_checkpoint through it) must image the device
    *after* the dirty pages land, so a reload sees every write."""
    index = _wb_index(bulk=[(k, k + 1) for k in range(0, 300, 3)])
    index.insert(1, 2)
    index.insert(4, 5)
    assert index.pager.dirty_blocks > 0
    buffer = io.BytesIO()
    save_index(index, buffer)
    assert index.pager.dirty_blocks == 0
    reopened = load_index(io.BytesIO(buffer.getvalue()))
    assert reopened.lookup(1) == 2
    assert reopened.lookup(4) == 5
    assert reopened.scan(0, 1000) == index.scan(0, 1000)


# ---------------------------------------------------------------------------
# crash recovery with dropped dirty pages
# ---------------------------------------------------------------------------

def test_crash_report_counts_dropped_dirty_pages():
    index = _wb_index(bulk=[(k, k + 1) for k in range(0, 100, 2)])
    wal = WriteAheadLog(index.pager, group_commit=8)
    index.attach_wal(wal)
    index.durable_insert(1, 2)
    assert index.pager.dirty_blocks > 0
    injector = FaultInjector(crash_at_op=0)
    report = injector.crash(wal, 5, pager=index.pager)
    assert report.dropped_dirty_pages > 0
    assert index.pager.dirty_blocks == 0


@pytest.mark.parametrize("index_name", ["btree", "alex"])
def test_recovery_with_dirty_pages_matches_oracle(index_name):
    """The PR 1 crash-recovery property, under a write-back pager with a
    pool small enough to force dirty evictions mid-run: dirty unflushed
    pages are dropped at the crash and recovery still equals the oracle
    that executed exactly the recovered prefix."""
    rng = random.Random(0xBACC)
    keys = sorted(rng.sample(range(1, 10**9), 600))
    bulk = [(k, k + 1) for k in keys[:300]]
    ops = [("insert", k) for k in keys[300:]]

    for _trial in range(6):
        crash_at = rng.randrange(0, len(ops) + 1)
        batch = rng.choice([1, 4, 16, 64])
        torn = rng.random() < 0.5
        capacity = rng.choice([4, 16, 64])

        index = _wb_index(index_name, bulk, capacity=capacity)
        wal = WriteAheadLog(index.pager, group_commit=batch)
        index.attach_wal(wal)
        checkpoint = take_checkpoint(index, wal)

        injector = FaultInjector(crash_at_op=crash_at, torn_tail=torn)
        result = run_workload(index, ops, fault_injector=injector)
        assert result.crashed_at_op == crash_at

        recovered = recover(checkpoint, wal)
        assert recovered.last_seqno <= crash_at

        oracle = _wb_index(index_name, bulk)
        for _kind, key in ops[:recovered.last_seqno]:
            oracle.insert(key, key + 1)
        oracle.pager.flush()
        assert (recovered.index.scan(0, 100_000)
                == oracle.scan(0, 100_000))
        recovered.index.verify()


# ---------------------------------------------------------------------------
# differential + runner accounting
# ---------------------------------------------------------------------------

def test_differential_write_back_vs_reference_model():
    from tests.util import (ReferenceModel, check_full_agreement, items_of,
                            random_sorted_keys, run_differential)

    keys = random_sorted_keys(400, seed=99, key_space=10**9)
    index = _wb_index("btree", items_of(keys), capacity=8)
    model = ReferenceModel(items_of(keys))
    run_differential(index, model, num_ops=300, seed=99)
    index.pager.flush()
    check_full_agreement(index, model)


def test_runner_flushes_at_phase_end_and_counts():
    scale = default_scale().scaled(0.02)
    setup = fresh_index(StackSpec("btree", buffer_blocks=64, write_back=True),
                        "ycsb", "write_heavy", scale)
    res = run_workload(setup.index, setup.ops, workload="write_heavy",
                       validate=True)
    assert res.flushes >= 1
    assert setup.pager.dirty_blocks == 0
    assert res.dirty_evictions == setup.pager.buffer_pool.dirty_evictions
    # The flush's coalesced writes appear under the "flush" phase.
    assert res.writes_by_phase.get("flush", 0) > 0


def test_runner_write_back_results_match_write_through():
    scale = default_scale().scaled(0.02)
    wt = fresh_index(StackSpec("btree", buffer_blocks=64),
                     "ycsb", "write_heavy", scale)
    wb = fresh_index(StackSpec("btree", buffer_blocks=64, write_back=True),
                     "ycsb", "write_heavy", scale)
    res_wt = run_workload(wt.index, wt.ops, validate=True)
    res_wb = run_workload(wb.index, wb.ops, validate=True)
    assert wb.index.scan(0, 10**9) == wt.index.scan(0, 10**9)
    assert res_wb.write_positionings <= res_wt.write_positionings


# ---------------------------------------------------------------------------
# bench wiring
# ---------------------------------------------------------------------------

def test_fresh_index_write_back_flag():
    scale = default_scale().scaled(0.01)
    setup = fresh_index(StackSpec("btree", buffer_blocks=32, write_back=True,
                                  buffer_policy="clock"),
                        "ycsb", "write_only", scale)
    assert setup.pager.write_back
    assert setup.pager.buffer_pool.policy == "clock"
    with pytest.raises(ValueError):
        StackSpec("btree", write_back=True)


def test_cli_write_back_experiment(capsys):
    assert bench_main(["run", "write_back", "--scale", "0.005"]) == 0
    out = capsys.readouterr().out
    assert "write_positionings" in out
