"""Tests for the durability subsystem: WAL, group commit, faults, recovery."""

import random
import subprocess
import sys

import pytest

from repro.bench.__main__ import main as bench_main
from repro.core import make_index
from repro.durability import (
    CrashError,
    FaultInjector,
    LogRecord,
    WriteAheadLog,
    recover,
    take_checkpoint,
)
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager
from repro.workloads import run_workload


def _loaded_index(name, bulk_items, profile=NULL_DEVICE):
    pager = Pager(BlockDevice(4096, profile))
    index = make_index(name, pager)
    index.bulk_load(bulk_items)
    return index


def _full_scan(index, limit=100_000):
    return index.scan(0, limit)


# ---------------------------------------------------------------------------
# WAL mechanics
# ---------------------------------------------------------------------------

def test_wal_append_flush_and_group_commit_accounting(pager):
    wal = WriteAheadLog(pager, group_commit=4)
    for i in range(10):
        wal.append("insert", i, i + 1)
    # 10 appends at batch 4 -> two automatic flushes, two records pending.
    assert wal.flushes == 2
    assert wal.pending == 2
    assert wal.durable_seqno == 8
    wal.flush()
    assert wal.pending == 0
    assert wal.durable_seqno == 10
    # Each flush wrote one block (4 records fit easily), charged as "log".
    assert wal.file.num_blocks == 3
    assert pager.stats.writes_by_phase.get("log") == 3


def test_wal_records_roundtrip(pager):
    wal = WriteAheadLog(pager, group_commit=3)
    expected = []
    ops = ["insert", "update", "delete"]
    rng = random.Random(5)
    for i in range(50):
        op = ops[i % 3]
        key, payload = rng.randrange(2**64), rng.randrange(2**63)
        wal.append(op, key, payload)
        expected.append(LogRecord(op, i + 1, key, payload))
    wal.flush()
    assert list(wal.durable_records()) == expected


def test_wal_spans_blocks_when_batch_exceeds_block_capacity(pager):
    wal = WriteAheadLog(pager, group_commit=500)
    per_block = wal.records_per_block
    assert per_block < 500  # 25-byte records, 4 KiB blocks -> 163
    for i in range(500):
        wal.append("insert", i, i + 1)
    assert wal.flushes == 1
    assert wal.file.num_blocks == (500 + per_block - 1) // per_block
    assert len(list(wal.durable_records())) == 500


def test_group_commit_reduces_log_writes():
    per_op = {}
    for batch in (1, 8, 64):
        pager = Pager(BlockDevice(4096, HDD))
        wal = WriteAheadLog(pager, group_commit=batch)
        for i in range(128):
            wal.append("insert", i, i + 1)
        wal.flush()
        per_op[batch] = pager.stats.writes_by_phase["log"] / 128
    assert per_op[1] > per_op[8] > per_op[64]
    assert per_op[1] == 1.0


def test_wal_torn_tail_detected_and_cut(pager):
    wal = WriteAheadLog(pager, group_commit=5)
    for i in range(15):
        wal.append("insert", i, i + 1)
    assert wal.durable_seqno == 15
    assert wal.tear_tail_block()
    survivors = list(wal.durable_records())
    # The torn third block is cut; the first two blocks' prefix survives.
    assert [r.seqno for r in survivors] == list(range(1, 11))


def test_wal_rejects_bad_parameters(pager):
    with pytest.raises(ValueError):
        WriteAheadLog(pager, group_commit=0)
    wal = WriteAheadLog(pager)
    with pytest.raises(ValueError):
        wal.append("compact", 1, 2)


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------

def test_fault_injector_deterministic_and_single_shot():
    injector = FaultInjector(crash_at_op=3)
    for i in range(3):
        injector.maybe_crash(i)
    with pytest.raises(CrashError) as err:
        injector.maybe_crash(3)
    assert err.value.op_index == 3
    injector.maybe_crash(4)  # already fired: never crashes twice


def test_fault_injector_probabilistic_reproducible():
    """A randomized crash point is drawn by the caller as ``crash_at_op``
    from a seeded RNG: the same seed crashes at the same op."""
    def crash_point(seed):
        injector = FaultInjector(crash_at_op=random.Random(seed).randrange(1000))
        for i in range(1000):
            try:
                injector.maybe_crash(i)
            except CrashError as err:
                return err.op_index
        return None

    first = crash_point(99)
    assert first is not None
    assert crash_point(99) == first  # seeded draw -> same crash point


def test_crash_drops_unflushed_buffer(pager):
    wal = WriteAheadLog(pager, group_commit=10)
    for i in range(7):
        wal.append("insert", i, i + 1)
    report = FaultInjector().crash([wal], op_index=7)
    assert report.dropped_records == 7
    assert wal.pending == 0
    assert list(wal.durable_records()) == []


# ---------------------------------------------------------------------------
# Crash + recovery vs a never-crashed oracle (property-style, seeded random)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_name", ["btree", "alex"])
def test_recovery_matches_oracle_for_any_crash_point(index_name):
    """For random crash points / batch sizes / torn tails, replaying the
    WAL over the checkpoint must reproduce the oracle that executed
    exactly the recovered prefix — asserted by a full key scan."""
    rng = random.Random(0xD15C)
    keys = sorted(rng.sample(range(1, 10**9), 600))
    bulk = [(k, k + 1) for k in keys[:300]]
    ops = [("insert", k) for k in keys[300:]]

    for _trial in range(8):
        crash_at = rng.randrange(0, len(ops) + 1)
        batch = rng.choice([1, 4, 16, 64])
        torn = rng.random() < 0.5

        index = _loaded_index(index_name, bulk)
        wal = WriteAheadLog(index.pager, group_commit=batch)
        index.attach_wal(wal)
        checkpoint = take_checkpoint(index, wal)

        injector = FaultInjector(crash_at_op=crash_at, torn_tail=torn)
        result = run_workload(index, ops, fault_injector=injector)
        assert result.crashed_at_op == crash_at
        assert result.num_ops == crash_at

        recovered = recover(checkpoint, wal)
        # Durability contract: the recovered prefix is exactly the log's
        # surviving records — never more than what was executed.
        assert recovered.last_seqno <= crash_at
        if batch == 1 and not torn:
            assert recovered.last_seqno == crash_at  # every op force-flushed

        oracle = _loaded_index(index_name, bulk)
        for _kind, key in ops[:recovered.last_seqno]:
            oracle.insert(key, key + 1)
        assert _full_scan(recovered.index) == _full_scan(oracle)
        recovered.index.verify()


def test_update_and_delete_records_replay():
    bulk = [(k, k + 1) for k in range(0, 500, 5)]
    index = _loaded_index("btree", bulk)
    wal = WriteAheadLog(index.pager, group_commit=1)
    index.attach_wal(wal)
    checkpoint = take_checkpoint(index, wal)

    index.durable_insert(1001, 7)
    assert index.durable_update(10, 999) is True
    assert index.durable_delete(20) is True
    assert index.durable_delete(3) is False  # absent key: logged, replays as no-op

    recovered = recover(checkpoint, wal)
    assert recovered.records_applied == 4
    assert _full_scan(recovered.index) == _full_scan(index)
    assert recovered.index.lookup(10) == 999
    assert recovered.index.lookup(20) is None
    assert recovered.index.lookup(1001) == 7


def test_recovery_ignores_crashed_index_state():
    """Recovery must trust only checkpoint + WAL: corrupt the crashed
    device's index files outright and recovery still succeeds."""
    bulk = [(k, k + 1) for k in range(0, 1000, 2)]
    index = _loaded_index("btree", bulk)
    wal = WriteAheadLog(index.pager, group_commit=2)
    index.attach_wal(wal)
    checkpoint = take_checkpoint(index, wal)
    for key in range(1, 101, 2):
        index.durable_insert(key, key + 1)
    wal.flush()
    # Trash every non-WAL file, as an arbitrarily interrupted SMO might.
    bs = index.pager.device.block_size
    for name, handle in index.pager.device.files.items():
        if name != wal.file.name:
            for n in range(handle.num_blocks):
                handle.blocks[n] = b"\xde" * bs
    recovered = recover(checkpoint, wal)
    assert recovered.records_applied == 50
    assert recovered.index.lookup(99) == 100
    recovered.index.verify()


def test_recovery_charges_simulated_io():
    bulk = [(k, k + 1) for k in range(0, 2000, 2)]
    index = _loaded_index("btree", bulk, profile=HDD)
    wal = WriteAheadLog(index.pager, group_commit=8)
    index.attach_wal(wal)
    checkpoint = take_checkpoint(index, wal)
    for key in range(1, 401, 2):
        index.durable_insert(key, key + 1)
    wal.flush()
    recovered = recover(checkpoint, wal)
    assert recovered.wal_scan_us > 0       # log scan pays read I/O
    assert recovered.replay_us > 0         # redo pays write I/O
    assert recovered.recovery_us == recovered.wal_scan_us + recovered.replay_us
    # The scan was charged on the crashed device under the "log" phase.
    assert index.pager.stats.reads_by_phase.get("log", 0) > 0


# ---------------------------------------------------------------------------
# Runner accounting and CLI integration
# ---------------------------------------------------------------------------

def test_runner_reports_log_accounting():
    bulk = [(k, k + 1) for k in range(0, 4000, 4)]
    ops = [("insert", k) for k in range(1, 801, 4)]
    index = _loaded_index("btree", bulk, profile=HDD)
    wal = WriteAheadLog(index.pager, group_commit=8)
    index.attach_wal(wal)
    result = run_workload(index, ops)
    assert result.log_records == len(ops)
    assert result.log_flushes == len(ops) // 8
    assert result.log_blocks_written == result.log_flushes
    assert result.crashed_at_op is None
    assert wal.pending == 0  # clean finish flushes the tail batch


def test_runner_without_wal_reports_zero_log_traffic():
    bulk = [(k, k + 1) for k in range(0, 400, 4)]
    index = _loaded_index("btree", bulk)
    result = run_workload(index, [("insert", 1), ("lookup", 4)])
    assert result.log_records == 0
    assert result.log_flushes == 0


def test_fresh_index_wal_defaults_to_scale_group_commit():
    from repro.bench.config import Scale, fresh_index
    from repro.stack import StackSpec

    scale = Scale().scaled(0.01)
    setup = fresh_index(StackSpec("btree", group_commit=scale.group_commit),
                        "ycsb", "write_only", scale)
    assert setup.wal is not None
    assert setup.wal.group_commit == scale.group_commit
    assert setup.index.wal is setup.wal
    override = fresh_index(StackSpec("btree", group_commit=64),
                           "ycsb", "write_only", scale)
    assert override.wal.group_commit == 64
    plain = fresh_index(StackSpec("btree"), "ycsb", "write_only", scale)
    assert plain.wal is None


def test_cli_durability_experiment(capsys):
    assert bench_main(["run", "durability", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "log_blocks_per_op" in out
    assert "recovery_ms" in out


def test_crash_recovery_example_runs():
    proc = subprocess.run(
        [sys.executable, "examples/crash_recovery.py"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "recovered" in proc.stdout.lower()
