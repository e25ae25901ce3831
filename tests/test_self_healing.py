"""Self-healing storage: fault model, retries, quarantine, scrub, repair.

The fault-safety invariant under test: with checksums on and a
checkpoint + WAL available, any injected single-block corruption or torn
data write is (a) never served to the application and (b) repaired with
zero lost acknowledged writes; transient errors are absorbed by
retry/backoff with their latency and counts visible in ``StorageStats``
and tracer spans.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_workload
from repro.core import make_index
from repro.durability import (SelfHealer, WriteAheadLog, repair_blocks,
                              restore_index, take_checkpoint)
from repro.obs import Tracer
from repro.storage import pager as pager_module
from repro.storage import (HDD, NULL_DEVICE, BlockDevice, ChecksumError,
                           DeviceFaultModel, Pager, PersistentIOError,
                           TransientIOError, block_crc, make_buffer_pool)

from tests.util import (ReferenceModel, check_full_agreement, items_of,
                        random_sorted_keys, run_differential)

KEYS = random_sorted_keys(4000, seed=7)


def build(name="btree", profile=NULL_DEVICE, buffer_blocks=0, group_commit=4,
          durable=True, keys=KEYS):
    device = BlockDevice(4096, profile)
    pool = make_buffer_pool(buffer_blocks, "lru") if buffer_blocks else None
    pager = Pager(device, buffer_pool=pool)
    index = make_index(name, pager)
    index.bulk_load(items_of(keys))
    wal = None
    if durable:
        wal = WriteAheadLog(pager, group_commit=group_commit)
        index.attach_wal(wal)
    return index, device, pager, wal


def corrupt_in_place(device, file_name, block_no, offset=200):
    """Media corruption: stored bytes change, envelope does not."""
    handle = device.get_file(file_name)
    block = bytearray(handle.blocks[block_no])
    block[offset] ^= 0x5A
    handle.blocks[block_no] = block


# -- fault model -----------------------------------------------------------

def test_fault_model_rejects_bad_rates():
    with pytest.raises(ValueError):
        DeviceFaultModel(transient_error_rate=1.5)
    with pytest.raises(ValueError):
        DeviceFaultModel(bit_rot_rate=-0.1)


def test_fault_model_is_deterministic_per_seed():
    def run(seed):
        device = BlockDevice(4096, NULL_DEVICE)
        device.fault_model = DeviceFaultModel(seed=seed,
                                              transient_error_rate=0.2)
        f = device.create_file("f")
        f.allocate(8)
        outcomes = []
        for i in range(200):
            try:
                device.read_block(f, i % 8)
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("transient")
        return outcomes

    assert run(3) == run(3)
    assert run(3) != run(4)  # astronomically unlikely to collide


def test_fault_model_excludes_wal_file():
    device = BlockDevice(4096, NULL_DEVICE)
    device.fault_model = DeviceFaultModel(seed=0, transient_error_rate=1.0)
    wal_file = device.create_file("wal")
    wal_file.allocate(1)
    device.write_block(wal_file, 0, bytes(4096))
    device.read_block(wal_file, 0)  # never faults
    data = device.create_file("data")
    data.allocate(1)
    with pytest.raises(TransientIOError):
        device.read_block(data, 0)


def test_persistent_error_sticks_until_rewritten():
    device = BlockDevice(4096, NULL_DEVICE)
    device.fault_model = DeviceFaultModel(seed=0, persistent_error_rate=1.0)
    f = device.create_file("f")
    f.allocate(1)
    for _ in range(3):
        with pytest.raises(PersistentIOError):
            device.read_block(f, 0)
    assert ("f", 0) in device.fault_model.bad_blocks
    # A write remaps the grown defect, as real drives do.
    device.fault_model.persistent_error_rate = 0.0
    device.write_block(f, 0, b"\x01" * 4096)
    assert device.read_block(f, 0) == b"\x01" * 4096


def test_bit_rot_flips_exactly_one_bit_and_is_detected():
    device = BlockDevice(4096, NULL_DEVICE)
    f = device.create_file("f")
    f.allocate(1)
    device.write_block(f, 0, b"\x00" * 4096)
    good = bytes(f.blocks[0])
    device.fault_model = DeviceFaultModel(seed=1, bit_rot_rate=1.0)
    with pytest.raises(ChecksumError):
        device.read_block(f, 0)
    rotted = bytes(f.blocks[0])
    diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(good, rotted))
    assert diff_bits == 1
    assert device.fault_model.injected_bit_rots == 1
    assert device.stats.checksum_failures == 1


def test_torn_write_persists_prefix_and_taints_last_block(pager):
    device = pager.device
    f = device.create_file("data")
    f.allocate(3)
    device.fault_model = DeviceFaultModel(seed=0, torn_write_rate=1.0)
    pager.write_blocks(f, [(0, b"\xaa" * 4096), (1, b"\xbb" * 4096),
                           (2, b"\xcc" * 4096)])
    pager.drop_last_block()
    assert device.fault_model.torn_blocks == [("data", 2)]
    assert pager.read_block(f, 0) == b"\xaa" * 4096  # prefix fully persisted
    assert pager.read_block(f, 1) == b"\xbb" * 4096
    with pytest.raises(ChecksumError):
        pager.read_block(f, 2)
    # The torn block holds the new prefix and the old tail.
    assert bytes(f.blocks[2][:2048]) == b"\xcc" * 2048
    assert bytes(f.blocks[2][2048:]) == b"\x00" * 2048


def test_single_block_writes_never_tear(pager):
    device = pager.device
    f = device.create_file("data")
    f.allocate(1)
    device.fault_model = DeviceFaultModel(seed=0, torn_write_rate=1.0)
    pager.write_block(f, 0, b"\xdd" * 4096)
    pager.drop_last_block()
    assert pager.read_block(f, 0) == b"\xdd" * 4096


# -- retry / backoff -------------------------------------------------------

def test_transient_errors_absorbed_with_charged_backoff():
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    f = device.create_file("f")
    f.allocate(1)
    device.write_block(f, 0, b"\x07" * 4096)
    clean_us = device.stats.elapsed_us
    device.fault_model = DeviceFaultModel(seed=2, transient_error_rate=0.5)
    pager.drop_last_block()
    assert pager.read_block(f, 0) == b"\x07" * 4096
    retries = device.stats.io_retries
    if retries:  # seed 2 at rate 0.5 does fault, but stay self-checking
        # Backoff is exponential in the HDD positioning cost and charged
        # as simulated latency on top of the successful read.
        expected_backoff = sum(
            device.profile.read_positioning_us * 2 ** i for i in range(retries))
        read_cost = device.profile.read_cost_us(4096, sequential=False)
        charged = device.stats.elapsed_us - clean_us
        assert charged == pytest.approx(
            expected_backoff + read_cost * (retries + 1))
    assert device.stats.reads >= 1


def test_retries_exhaust_to_persistent_error(monkeypatch):
    monkeypatch.setattr(pager_module, "MAX_READ_RETRIES", 3)
    device = BlockDevice(4096, NULL_DEVICE)
    pager = Pager(device)
    f = device.create_file("f")
    f.allocate(1)
    device.fault_model = DeviceFaultModel(seed=0, transient_error_rate=1.0)
    with pytest.raises(PersistentIOError):
        pager.read_block(f, 0)
    assert device.stats.io_retries == 3


def test_checksum_errors_are_never_retried(monkeypatch):
    monkeypatch.setattr(pager_module, "MAX_READ_RETRIES", 8)
    device = BlockDevice(4096, NULL_DEVICE)
    pager = Pager(device)
    f = device.create_file("f")
    f.allocate(1)
    device.write_block(f, 0, bytes(4096))
    corrupt_in_place(device, "f", 0)
    with pytest.raises(ChecksumError):
        pager.read_block(f, 0)
    assert device.stats.io_retries == 0


def test_tracer_span_sees_retries_and_charged_backoff(monkeypatch):
    monkeypatch.setattr(pager_module, "MAX_READ_RETRIES", 6)
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    f = device.create_file("f")
    f.allocate(4)
    for no in range(4):
        device.write_block(f, no, bytes([no]) * 4096)
    tracer = Tracer()
    before = device.stats.snapshot()
    tracer.bind(pager)
    device.fault_model = DeviceFaultModel(seed=5, transient_error_rate=0.4)
    spans = []
    for i in range(12):
        pager.drop_last_block()
        with tracer.op("lookup", i, i):
            pager.read_block(f, i % 4)
        spans.append(tracer.events[-1])
    total_retries = sum(s["io_retries"] for s in spans)
    assert total_retries == device.stats.io_retries > 0
    # Bitwise µs reconciliation (since bind) survives latency-only charges.
    assert (sum(tracer.totals()["us"].values())
            == device.stats.diff(before).elapsed_us)
    tracer.unbind()


# -- quarantine & scrub ----------------------------------------------------

def test_quarantined_frames_survive_eviction_pressure():
    device = BlockDevice(4096, NULL_DEVICE)
    pool = make_buffer_pool(4, "lru")
    pager = Pager(device, buffer_pool=pool)
    f = device.create_file("f")
    f.allocate(16)
    payload = b"\x42" * 4096
    device.write_block(f, 0, payload)
    assert pager.quarantine("f", 0, payload)
    for no in range(1, 16):  # far more traffic than the pool holds
        pager.read_block(f, no)
    assert pool.is_pinned("f", 0)
    assert pool.get("f", 0) == payload
    pager.release_quarantine("f", 0)
    assert not pool.is_pinned("f", 0)


def test_quarantine_without_pool_reports_failure(pager):
    f = pager.device.create_file("f")
    f.allocate(1)
    assert pager.quarantine("f", 0, bytes(4096)) is False


def test_scrub_finds_exactly_the_corrupted_blocks():
    index, device, pager, _ = build("btree", durable=False)
    inner, leaf = index._inner_file.name, index._leaf_file.name
    corrupt_in_place(device, inner, 0)
    corrupt_in_place(device, leaf, 1)
    corrupt_in_place(device, leaf, 4)
    report = pager.scrub()
    assert report.bad_blocks == [(inner, 0), (leaf, 1), (leaf, 4)]
    assert not report.clean
    assert report.blocks_scanned == sum(
        f.num_blocks for f in device.files.values() if not f.memory_resident)


def test_scrub_charges_io_under_scrub_phase():
    index, device, pager, _ = build("btree", profile=HDD, durable=False)
    before = device.stats.snapshot()
    report = pager.scrub()
    delta = device.stats.diff(before)
    assert report.clean
    assert delta.reads_by_phase["scrub"] == report.blocks_scanned
    assert delta.time_by_phase["scrub"] > 0
    assert report.elapsed_us == pytest.approx(delta.time_by_phase["scrub"])


def test_scrub_releases_quarantines_that_verify_clean():
    device = BlockDevice(4096, NULL_DEVICE)
    pager = Pager(device, buffer_pool=make_buffer_pool(8, "lru"))
    f = device.create_file("f")
    f.allocate(2)
    good = b"\x11" * 4096
    device.write_block(f, 0, good)
    device.write_block(f, 1, good)
    pager.quarantine("f", 0, good)
    report = pager.scrub()
    assert report.clean
    assert ("f", 0) in report.released
    assert not pager.buffer_pool.is_pinned("f", 0)


# -- WAL-assisted repair ---------------------------------------------------

def test_repair_restores_byte_identical_contents():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    for k in range(1, 99, 2):
        index.durable_insert(k, k + 1)
    wal.flush()
    inner, leaf = index._inner_file.name, index._leaf_file.name

    def contents():
        return {name: [bytes(b) for b in device.get_file(name).blocks]
                for name in (inner, leaf)}

    pristine = contents()
    corrupt_in_place(device, inner, 0)
    corrupt_in_place(device, leaf, 0)
    corrupt_in_place(device, leaf, 2)
    report = pager.scrub()
    result = repair_blocks(index, ckpt, report.bad_blocks, wal)
    assert result.repaired == [(inner, 0), (leaf, 0), (leaf, 2)]
    assert not result.skipped
    assert device.stats.repaired_blocks == 3
    assert contents() == pristine
    assert pager.scrub().clean
    assert index.verify() == len(KEYS) + 49


def test_repair_preserves_unflushed_acknowledged_writes():
    """Records still in the group-commit buffer were acknowledged to the
    caller of durable_insert; repair must flush them before rebuilding,
    so zero acknowledged writes are lost."""
    index, device, pager, wal = build("btree", group_commit=64)
    ckpt = take_checkpoint(index, wal)
    inserted = list(range(1, 41, 2))
    for k in inserted:
        index.durable_insert(k, k + 1)
    assert wal.pending > 0  # the tail batch has NOT reached the device
    leaf = index._leaf_file.name
    corrupt_in_place(device, leaf, 0)
    repair_blocks(index, ckpt, [(leaf, 0)], wal)
    assert wal.pending == 0
    for k in inserted:
        assert index.lookup(k) == k + 1
    assert pager.scrub().clean


def test_repair_skips_wal_blocks_and_out_of_range():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    index.durable_insert(1, 2)
    wal.flush()
    leaf = index._leaf_file.name
    out_of_range = device.get_file(leaf).num_blocks + 100
    result = repair_blocks(index, ckpt,
                           [(wal.file.name, 0), (leaf, out_of_range)], wal)
    assert not result.repaired
    assert sorted(result.skipped) == sorted(
        [(wal.file.name, 0), (leaf, out_of_range)])


def test_repair_charges_real_io():
    index, device, pager, wal = build("btree", profile=HDD)
    ckpt = take_checkpoint(index, wal)
    index.durable_insert(1, 2)
    wal.flush()
    leaf = index._leaf_file.name
    corrupt_in_place(device, leaf, 0)
    before = device.stats.snapshot()
    result = repair_blocks(index, ckpt, [(leaf, 0)], wal)
    delta = device.stats.diff(before)
    assert result.repair_us > 0
    assert delta.writes_by_phase.get("repair") == 1
    assert delta.reads_by_phase.get("log", 0) >= 1  # the WAL scan is paid


def test_restore_index_after_fault_escaping_a_mutation():
    index, device, pager, wal = build("btree", buffer_blocks=16)
    ckpt = take_checkpoint(index, wal)
    for k in range(1, 201, 2):
        index.durable_insert(k, k + 1)
    leaf = index._leaf_file.name
    corrupt_in_place(device, leaf, 3)
    result = restore_index(index, ckpt, wal)
    assert result.full_restore
    assert (leaf, 3) in result.repaired
    assert result.records_replayed == 100
    assert pager.scrub().clean
    assert index.verify() == len(KEYS) + 100
    for k in range(1, 201, 2):
        assert index.lookup(k) == k + 1


def test_self_healer_retry_vs_applied_vs_unhandled():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    healer = SelfHealer(index, ckpt, wal)
    leaf = index._leaf_file.name
    # Non-mutating fault: repair in place, ask the runner to retry.
    assert healer.handle(ChecksumError(leaf, 0), mutating=False) == "retry"
    # Mutating fault: full restore, the op's record was replayed.
    assert healer.handle(ChecksumError(leaf, 0), mutating=True) == "applied"
    assert healer.repairs[1].full_restore
    # The WAL's own blocks cannot be rebuilt from themselves.
    assert healer.handle(ChecksumError(wal.file.name, 0)) is None
    # Non-storage exceptions are not the healer's business.
    assert healer.handle(ValueError("boom")) is None
    assert healer.unhandled == 1


def test_self_healer_respects_repair_budget():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    healer = SelfHealer(index, ckpt, wal, max_repairs=1)
    leaf = index._leaf_file.name
    assert healer.handle(ChecksumError(leaf, 0)) == "retry"
    assert healer.handle(ChecksumError(leaf, 1)) is None
    assert healer.unhandled == 1


def test_healer_quarantines_persistent_bad_blocks():
    index, device, pager, wal = build("btree", buffer_blocks=32)
    ckpt = take_checkpoint(index, wal)
    healer = SelfHealer(index, ckpt, wal)
    leaf = index._leaf_file.name
    assert healer.handle(PersistentIOError(leaf, 0)) == "retry"
    assert pager.buffer_pool.is_pinned(leaf, 0)
    assert (leaf, 0) in pager.quarantined_blocks


def test_tracer_counts_checksum_failures_and_repairs():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    tracer = Tracer()
    index.attach_tracer(tracer)
    key = KEYS[0]
    touched = []
    device.on_access_prev = device.on_access

    def spy(kind, fn, no, phase, cost, _inner=device.on_access):
        if kind == "r":
            touched.append((fn, no))
        if _inner is not None:
            _inner(kind, fn, no, phase, cost)

    device.on_access = spy
    index.lookup(key)
    device.on_access = device.on_access_prev
    file_name, block_no = touched[-1]
    corrupt_in_place(device, file_name, block_no)
    pager.drop_last_block()
    with tracer.op("lookup", key, 0):
        with pytest.raises(ChecksumError):
            index.lookup(key)
    assert tracer.events[-1]["checksum_failures"] == 1
    with tracer.op("repair", 0, 1):
        repair_blocks(index, ckpt, [(file_name, block_no)], wal)
    assert tracer.events[-1]["repaired_blocks"] == 1
    tracer.unbind()


# -- workload-level properties --------------------------------------------

def _oracle_results(ops, keys):
    index, _, _, _ = build("btree", durable=False, keys=keys)
    return [index.lookup(k) if kind == "lookup" else tuple(index.scan(k, 10))
            for kind, k in ops]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.001, 0.2))
def test_transient_faults_never_change_answers(seed, rate):
    """A read-only stream under seeded transient faults (absorbed by the
    pager's retries) returns results identical to a fault-free run."""
    rng = random.Random(seed)
    keys = random_sorted_keys(600, seed=11)
    ops = [("lookup" if rng.random() < 0.7 else "scan",
            rng.choice(keys) if rng.random() < 0.8 else rng.randrange(10**12))
           for _ in range(120)]
    expected = _oracle_results(ops, keys)
    index, device, pager, _ = build("btree", durable=False, keys=keys)
    # At the top of the drawn rate range a streak longer than the default
    # retry budget (4) is statistically reachable (rate^5 per read over
    # ~10^3 reads) and would legitimately escalate to PersistentIOError.
    # The property under test is about *transient* faults, so give the
    # pager a budget no streak can exhaust: 0.2^41 ~ 2e-29 per read.
    device.fault_model = DeviceFaultModel(seed=seed, transient_error_rate=rate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pager_module, "MAX_READ_RETRIES", 40)
        got = [index.lookup(k) if kind == "lookup" else tuple(index.scan(k, 10))
               for kind, k in ops]
    assert got == expected
    assert device.stats.checksum_failures == 0


def test_fault_free_stats_are_bit_identical_with_checksums():
    """The checksum envelope costs zero extra block accesses and zero
    extra simulated time on the clean path."""
    def run(checksums):
        device = BlockDevice(4096, HDD, checksums=checksums)
        pager = Pager(device, buffer_pool=make_buffer_pool(16, "lru"))
        index = make_index("btree", pager)
        index.bulk_load(items_of(KEYS))
        for k in KEYS[:300]:
            index.lookup(k)
        index.scan(KEYS[0], 200)
        s = device.stats
        return (s.reads, s.writes, s.elapsed_us, dict(s.reads_by_phase),
                dict(s.writes_by_phase), s.io_retries, s.checksum_failures)

    assert run(True) == run(False)
    assert run(True) == run(True)


def test_differential_harness_under_transient_faults():
    """Full mutation stream (inserts/updates/deletes/scans) on a faulty
    device still matches the oracle exactly — retries are invisible."""
    index, device, pager, _ = build("btree", durable=False,
                                    keys=random_sorted_keys(500, seed=3))
    model = ReferenceModel(items_of(random_sorted_keys(500, seed=3)))
    device.fault_model = DeviceFaultModel(seed=9, transient_error_rate=0.01)
    run_differential(index, model, num_ops=300, seed=9)
    assert device.stats.io_retries >= 0  # absorbed, never surfaced
    assert device.stats.checksum_failures == 0


def test_run_workload_heals_corruption_mid_stream():
    """End to end: bit rot during a read-heavy stream is detected,
    repaired from checkpoint + WAL redo, and the answers stay correct."""
    keys = random_sorted_keys(2000, seed=13)
    index, device, pager, wal = build("btree", keys=keys, group_commit=8)
    ckpt = take_checkpoint(index, wal)
    healer = SelfHealer(index, ckpt, wal)
    rng = random.Random(13)
    taken = set(keys)
    insert_keys = iter([k for k in range(1, 10**4, 2) if k not in taken][:100])
    ops = []
    for i in range(400):
        if i % 8 == 7:
            ops.append(("insert", next(insert_keys)))
        else:
            ops.append(("lookup", rng.choice(keys)))
    device.fault_model = DeviceFaultModel(seed=21, bit_rot_rate=5e-3)
    result = run_workload(index, ops, workload="read_heavy", healer=healer,
                          validate=True)
    assert result.num_ops == 400
    assert result.checksum_failures > 0, "the sweep should have rotted a block"
    assert result.repaired_blocks >= 1
    assert result.healed_faults == len(healer.repairs)
    device.fault_model = None
    assert pager.scrub().clean
    check_full_agreement(index, ReferenceModel(
        items_of(keys) + [(k, k + 1) for kind, k in ops if kind == "insert"]))


def test_run_workload_healer_requires_batch_one():
    index, device, pager, wal = build("btree")
    ckpt = take_checkpoint(index, wal)
    healer = SelfHealer(index, ckpt, wal)
    with pytest.raises(ValueError):
        run_workload(index, [("lookup", KEYS[0])], batch=4, healer=healer)


def test_unhealable_fault_propagates():
    index, device, pager, _ = build("btree", durable=False)
    leaf = index._leaf_file.name
    key = KEYS[len(KEYS) // 2]
    touched = []
    device.on_access = lambda kind, fn, no, phase, cost: (
        touched.append((fn, no)) if kind == "r" else None)
    index.lookup(key)
    device.on_access = None
    file_name, block_no = touched[-1]
    corrupt_in_place(device, file_name, block_no)
    pager.drop_last_block()
    with pytest.raises(ChecksumError):  # no healer attached
        run_workload(index, [("lookup", key)])
