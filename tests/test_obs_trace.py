"""Tracing: op attribution, ring-buffer folding, JSONL export, and the
exact reconciliation of trace totals with ``StorageStats``.

The reconciliation tests enforce the acceptance bar of the observability
layer: every charged block access appears in the exported trace exactly
once, so summing the records reproduces the device counters — to the
last block and the last float bit of simulated time.
"""

import json

import numpy as np
import pytest

from repro.bench.config import Scale, fresh_index, tracing
from repro.stack import StackSpec
from repro.bench import run_experiment
from repro.core import index_names, make_index
from repro.durability import WriteAheadLog
from repro.obs import Tracer, format_summary, load_trace, summarize
from repro.storage import (HDD, BlockDevice, BufferPool, DeviceFaultModel,
                           Pager, StorageFault)
from repro.workloads import WORKLOADS, build_workload, run_workload

from tests.util import items_of, random_sorted_keys

SMALL = Scale(n_read=3000, n_write_bulk=1500, n_write_ops=800,
              n_lookup_ops=300, n_scan_ops=40)


def sum_records(records, field):
    """Per-phase totals over all accounting records of an exported trace."""
    out = {}
    for record in records:
        if record["type"] not in ("op", "evicted", "background"):
            continue
        for phase, value in record.get(field, {}).items():
            out[phase] = out.get(phase, 0) + value
    return out


def export(tracer, tmp_path, name="trace.jsonl"):
    path = tmp_path / name
    tracer.export_jsonl(str(path))
    return [json.loads(line) for line in open(path)]


# -- reconciliation: trace totals == StorageStats, exactly -----------------

@pytest.mark.parametrize("name", index_names(include_plid=True))
def test_trace_reconciles_with_storage_stats(name, tmp_path):
    """Summed per-phase reads/writes/µs of the exported JSONL equal the
    device's StorageStats exactly, for every index, with a buffer pool
    and a WAL in the loop and the ring buffer forced to evict."""
    keys = np.array(random_sorted_keys(1200, seed=5), dtype="u8")
    bulk, ops = build_workload(WORKLOADS["balanced"], keys, 400, seed=9)
    device = BlockDevice(4096, HDD)
    pager = Pager(device, buffer_pool=BufferPool(32))
    index = make_index(name, pager)
    tracer = Tracer(capacity=100)  # much smaller than the op count
    index.attach_tracer(tracer)
    index.bulk_load(bulk)
    index.attach_wal(WriteAheadLog(pager, group_commit=4))
    run_workload(index, ops, workload="balanced")

    records = export(tracer, tmp_path)
    stats = device.stats
    assert sum_records(records, "reads") == dict(stats.reads_by_phase)
    assert sum_records(records, "writes") == dict(stats.writes_by_phase)
    # Exact float equality: the trace observes the identical cost charges.
    assert sum_records(records, "us_by_phase") == dict(stats.time_by_phase)
    # The summary record accumulates in the device's own order: bitwise.
    summary = records[0]
    assert summary["type"] == "summary"
    assert summary["reads"] == dict(stats.reads_by_phase)
    assert summary["writes"] == dict(stats.writes_by_phase)
    assert summary["us_by_phase"] == dict(stats.time_by_phase)
    assert summary["dropped_ops"] > 0  # the ring buffer really did fold


@pytest.mark.parametrize("name", ["pgm", "alex", "lipp"])
def test_traced_scans_reconcile_with_storage_stats(name, tmp_path):
    """The block-at-a-time scans leave out pager requests, never device
    ones: a traced scan-only run still sums to ``StorageStats`` exactly."""
    keys = np.array(random_sorted_keys(3000, seed=6), dtype="u8")
    bulk, ops = build_workload(WORKLOADS["scan_only"], keys, 60, seed=3)
    device = BlockDevice(512, HDD)
    index = make_index(name, Pager(device))
    tracer = Tracer()
    index.attach_tracer(tracer)
    index.bulk_load(bulk)
    run_workload(index, ops, workload="scan_only")
    records = export(tracer, tmp_path)
    stats = device.stats
    assert stats.reads_by_phase["scan"] > 0
    assert sum_records(records, "reads") == dict(stats.reads_by_phase)
    assert sum_records(records, "us_by_phase") == dict(stats.time_by_phase)


def test_trace_reconciles_across_run_experiment(tmp_path, monkeypatch):
    """The CLI path: run_experiment(--trace) exports a multi-device trace
    whose records sum to the summary record's totals."""
    monkeypatch.setenv("REPRO_DATASETS", "ycsb")
    path = tmp_path / "exp.jsonl"
    run_experiment("fig12", SMALL, trace_path=str(path))
    records = load_trace(str(path))
    summary = records[0]
    assert summary["type"] == "summary"
    assert sum_records(records, "reads") == summary["reads"]
    assert sum_records(records, "writes") == summary["writes"]
    assert sum_records(records, "us_by_phase") == summary["us_by_phase"]
    assert summary["events"] == sum(1 for r in records if r["type"] == "op")


def test_tracing_context_binds_every_fresh_index(tmp_path):
    tracer = Tracer()
    with tracing(tracer):
        setups = [fresh_index(StackSpec(name), "ycsb", "write_only", SMALL)
                  for name in ("btree", "alex")]
        for setup in setups:
            run_workload(setup.index, setup.ops[:100])
    records = export(tracer, tmp_path)
    total_reads = {}
    total_writes = {}
    total_us = {}
    for setup in setups:
        for phase, v in setup.device.stats.reads_by_phase.items():
            total_reads[phase] = total_reads.get(phase, 0) + v
        for phase, v in setup.device.stats.writes_by_phase.items():
            total_writes[phase] = total_writes.get(phase, 0) + v
        for phase, v in setup.device.stats.time_by_phase.items():
            total_us[phase] = total_us.get(phase, 0.0) + v
    assert sum_records(records, "reads") == total_reads
    assert sum_records(records, "writes") == total_writes
    assert sum_records(records, "us_by_phase") == pytest.approx(total_us)
    tracer.unbind()


# -- tracing disabled: bit-identical results -------------------------------

def test_disabled_tracing_results_bit_identical():
    """Every pre-existing RunResult metric must be unchanged by merely
    having tracing available — traced and untraced runs agree bit for bit."""
    def one_run(with_tracer):
        setup = fresh_index(StackSpec("alex", buffer_blocks=16,
                                      group_commit=SMALL.group_commit),
                            "ycsb", "balanced", SMALL)
        tracer = None
        if with_tracer:
            tracer = Tracer()
            setup.index.attach_tracer(tracer)
        return run_workload(setup.index, setup.ops, workload="balanced",
                            keep_latencies=True)

    plain, traced = one_run(False), one_run(True)
    assert plain.sim_elapsed_us == traced.sim_elapsed_us
    assert plain.throughput_ops_per_s == traced.throughput_ops_per_s
    assert plain.mean_latency_us == traced.mean_latency_us
    assert plain.p50_latency_us == traced.p50_latency_us
    assert plain.p99_latency_us == traced.p99_latency_us
    assert plain.std_latency_us == traced.std_latency_us
    assert plain.blocks_read_per_op == traced.blocks_read_per_op
    assert plain.blocks_written_per_op == traced.blocks_written_per_op
    assert plain.time_by_phase_us == traced.time_by_phase_us
    assert plain.reads_by_phase == traced.reads_by_phase
    assert plain.writes_by_phase == traced.writes_by_phase
    assert plain.log_records == traced.log_records
    assert plain.log_flushes == traced.log_flushes
    assert (plain.latencies_us == traced.latencies_us).all()
    # The histogram extras exist only on the traced run.
    assert plain.phase_latency_histograms is None
    assert plain.op_io_histograms is None
    assert traced.phase_latency_histograms is not None
    assert traced.op_io_histograms is not None


# -- span attribution ------------------------------------------------------

def test_event_fields_attribute_op_io(tmp_path):
    keys = random_sorted_keys(800, seed=11)
    device = BlockDevice(4096, HDD)
    pager = Pager(device, buffer_pool=BufferPool(8))
    index = make_index("btree", pager)
    tracer = Tracer()
    index.attach_tracer(tracer)
    index.bulk_load(items_of(keys))
    wal = WriteAheadLog(pager, group_commit=2)
    index.attach_wal(wal)

    with tracer.op("insert", 12345, 0):
        index.durable_insert(1, 2)
    with tracer.op("insert", 12346, 1):
        index.durable_insert(3, 4)  # group commit of 2 flushes here
    with tracer.op("lookup", 12347, 2):
        index.lookup(keys[0])

    records = export(tracer, tmp_path)
    ops = [r for r in records if r["type"] == "op"]
    assert [r["op"] for r in ops] == ["insert", "insert", "lookup"]
    assert ops[0]["wal_records"] == 1 and ops[0]["wal_flushes"] == 0
    assert ops[1]["wal_records"] == 1 and ops[1]["wal_flushes"] == 1
    assert ops[1]["writes"].get("log", 0) == 1  # the group commit block
    assert ops[2]["wal_records"] == 0
    # The lookup touched blocks — charged reads, pool hits, or reuse hits.
    touched = (sum(ops[2]["reads"].values()) + ops[2]["pool_hits"]
               + ops[2]["reuse_hits"])
    assert touched > 0
    # Bulk-load I/O happened outside any span: the background record owns it.
    background = next(r for r in records if r["type"] == "background")
    assert background["writes"].get("bulkload", 0) > 0
    # Every op event accounts the files it touched.
    assert all(sum(r["files"].values())
               == sum(r["reads"].values()) + sum(r["writes"].values())
               for r in ops)


def test_pool_and_reuse_attribution():
    device = BlockDevice(4096, HDD)
    pool = BufferPool(8)
    pager = Pager(device, buffer_pool=pool)
    file = device.create_file("f")
    file.allocate(4)
    tracer = Tracer()
    tracer.bind(pager)

    with tracer.op("lookup", 0, 0) as span:
        pager.read_block(file, 0)   # miss
        pager.read_block(file, 0)   # last-block reuse, not even a pool probe
        pager.drop_last_block()
        pager.read_block(file, 0)   # pool hit
    assert span["pool_misses"] == 1
    assert span["reuse_hits"] == 1
    assert span["pool_hits"] == 1
    assert pool.hits == 1 and pool.misses == 1
    tracer.unbind()


def test_span_misuse_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        tracer.end_op()
    tracer.begin_op("lookup", 1, 0)
    with pytest.raises(RuntimeError):
        tracer.begin_op("lookup", 2, 1)
    tracer.end_op()


def _traced_btree(keys):
    device = BlockDevice(4096, HDD)
    index = make_index("btree", Pager(device))
    tracer = Tracer()
    index.attach_tracer(tracer)  # before the load: totals cover the device's
    index.bulk_load(items_of(keys))
    return index, device, tracer


@pytest.mark.parametrize("batch", [1, 4])
def test_failed_validation_closes_the_op_span(batch):
    """An exception inside an op must not leave its span open: the next
    run on the same tracer would die in ``begin_op``."""
    keys = random_sorted_keys(400, seed=3)
    index, _device, tracer = _traced_btree(keys)
    absent = keys[200] + 1
    assert absent not in keys
    ops = [("lookup", k) for k in keys[:9]] + [("lookup", absent)]
    with pytest.raises(AssertionError):
        run_workload(index, ops, validate=True, batch=batch)
    good = [("lookup", k) for k in keys[:9]]
    result = run_workload(index, good, validate=True, batch=batch)
    assert result.num_ops == len(good)
    assert result.op_io_histograms["lookup"]["count"] == len(good)


def test_storage_fault_in_a_group_closes_the_span_and_reconciles():
    keys = random_sorted_keys(400, seed=4)
    index, device, tracer = _traced_btree(keys)
    device.fault_model = DeviceFaultModel(seed=2, persistent_error_rate=0.2)
    with pytest.raises(StorageFault):
        run_workload(index, [("lookup", k) for k in keys[:64]], batch=4)
    tracer.begin_op("lookup", keys[0], 0)   # raises if a span was left open
    tracer.end_op()
    # everything charged up to the fault is accounted for, bit for bit
    stats = device.stats
    totals = tracer.totals()
    assert totals["reads"] == dict(stats.reads_by_phase)
    assert totals["us"] == dict(stats.time_by_phase)
    records = list(tracer.iter_records())
    assert sum_records(records, "reads") == dict(stats.reads_by_phase)
    assert sum_records(records, "us_by_phase") == dict(stats.time_by_phase)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_detach_restores_zero_overhead():
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    index = make_index("btree", pager)
    tracer = Tracer()
    index.attach_tracer(tracer)
    assert device.on_access is not None
    index.detach_tracer()
    assert device.on_access is None
    assert pager.tracer is None
    assert index.tracer is None
    index.bulk_load(items_of(random_sorted_keys(100, seed=1)))
    index.lookup(1)
    assert tracer.totals() == {"reads": {}, "writes": {}, "us": {}}


def test_ring_buffer_folds_instead_of_dropping(tmp_path):
    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    file = device.create_file("f")
    file.allocate(1)
    tracer = Tracer(capacity=3)
    tracer.bind(pager)
    for i in range(10):
        with tracer.op("lookup", i, i):
            pager.drop_last_block()
            pager.read_block(file, 0)
    assert len(tracer) == 3
    assert tracer.dropped_ops == 7
    records = export(tracer, tmp_path)
    evicted = next(r for r in records if r["type"] == "evicted")
    assert evicted["ops_folded"] == 7
    assert evicted["reads"] == {"default": 7}
    assert sum_records(records, "reads") == {"default": 10}


# -- analyze ---------------------------------------------------------------

def _synthetic_records():
    def op(i, kind, us, smo_w=0, hits=0, misses=0):
        return {"type": "op", "i": i, "op": kind, "key": i * 10, "us": us,
                "reads": {"search": 1}, "writes": {"smo": smo_w} if smo_w else {},
                "us_by_phase": {"search": us}, "files": {"leaf": 1 + smo_w},
                "pool_hits": hits, "pool_misses": misses,
                "reuse_hits": 0, "wal_records": 0, "wal_flushes": 0}
    return [
        {"type": "summary", "schema": 4, "events": 4, "dropped_ops": 0,
         "reads": {"search": 4}, "writes": {"smo": 12},
         "us_by_phase": {"search": 6800.0}},
        {"type": "background", "us": 0.0, "reads": {}, "writes": {},
         "us_by_phase": {}, "files": {}, "pool_hits": 0, "pool_misses": 0,
         "reuse_hits": 0, "wal_records": 0, "wal_flushes": 0},
        op(0, "lookup", 100.0, hits=3, misses=1),
        op(1, "insert", 5000.0, smo_w=12, misses=4),
        op(2, "lookup", 200.0, hits=4),
        op(3, "insert", 1500.0, hits=2, misses=2),
    ]


def test_summarize_top_cascades_timeline():
    summary = summarize(_synthetic_records(), top_k=2, windows=2,
                        cascade_blocks=8)
    assert summary["num_ops"] == 4
    assert [r["i"] for r in summary["top_ops"]] == [1, 3]
    assert [c["i"] for c in summary["cascades"]] == [1]
    assert summary["cascades"][0]["smo_blocks"] == 12
    timeline = summary["hit_rate_timeline"]
    assert len(timeline) == 2
    assert timeline[0]["hit_rate"] == pytest.approx(3 / 8)
    assert timeline[1]["hit_rate"] == pytest.approx(6 / 8)
    assert summary["by_op"]["insert"]["count"] == 2
    assert summary["reconciliation"]["writes"] == {"smo": 12}
    assert summary["declared_totals"]["writes"] == {"smo": 12}


def test_format_summary_mentions_key_sections():
    text = format_summary(summarize(_synthetic_records()))
    for needle in ("per op type", "most expensive", "SMO cascade",
                   "hit rate timeline", "per-phase totals"):
        assert needle in text, needle


def test_analyze_cli_roundtrip(tmp_path, capsys):
    from repro.obs.analyze import main

    path = tmp_path / "t.jsonl"
    with open(path, "w") as handle:
        for record in _synthetic_records():
            handle.write(json.dumps(record) + "\n")
    assert main([str(path), "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "trace: 4 ops" in out
    assert "SMO cascades" in out
