"""Tests for workload specs, operation streams and the metric runner."""

import numpy as np
import pytest

from repro.core import make_index
from repro.datasets import make_dataset
from repro.stack import StackSpec, build
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager
from repro.workloads import WORKLOADS, build_workload, run_workload, workload_names


def test_six_workload_types():
    assert set(workload_names()) == {
        "lookup_only", "scan_only", "write_only",
        "read_heavy", "write_heavy", "balanced",
    }


def test_round_patterns_match_paper():
    # Section 5.2: 2 inserts + 18 lookups; 18 inserts + 2 lookups; 10 + 10.
    assert WORKLOADS["read_heavy"].round_pattern == "II" + "L" * 18
    assert WORKLOADS["write_heavy"].round_pattern == "I" * 18 + "LL"
    assert WORKLOADS["balanced"].round_pattern == "I" * 10 + "L" * 10
    assert WORKLOADS["read_heavy"].insert_fraction == pytest.approx(0.1)
    assert WORKLOADS["write_heavy"].insert_fraction == pytest.approx(0.9)
    assert WORKLOADS["balanced"].insert_fraction == pytest.approx(0.5)
    assert not WORKLOADS["lookup_only"].has_writes
    assert WORKLOADS["write_only"].has_writes


def test_lookup_only_bulk_loads_everything():
    keys = make_dataset("ycsb", 1000)
    bulk, ops = build_workload(WORKLOADS["lookup_only"], keys, 100)
    assert len(bulk) == 1000
    existing = {k for k, _ in bulk}
    assert all(kind == "lookup" and key in existing for kind, key in ops)


def test_scan_only_ops_are_scans():
    keys = make_dataset("ycsb", 1000)
    _bulk, ops = build_workload(WORKLOADS["scan_only"], keys, 50)
    assert all(kind == "scan" for kind, _ in ops)


def test_write_only_splits_dataset():
    keys = make_dataset("ycsb", 1000)
    bulk, ops = build_workload(WORKLOADS["write_only"], keys, 400)
    assert len(bulk) == 600
    assert all(kind == "insert" for kind, _ in ops)
    bulk_keys = {k for k, _ in bulk}
    insert_keys = {k for _, k in ops}
    assert not bulk_keys & insert_keys
    assert len(insert_keys) == 400


def test_mixed_workload_interleaving():
    keys = make_dataset("ycsb", 2000)
    _bulk, ops = build_workload(WORKLOADS["read_heavy"], keys, 200)
    kinds = [kind for kind, _ in ops]
    assert kinds[:2] == ["insert", "insert"]
    assert kinds[2:20] == ["lookup"] * 18
    assert kinds.count("insert") == 20


def test_mixed_lookups_target_present_keys():
    keys = make_dataset("ycsb", 2000)
    bulk, ops = build_workload(WORKLOADS["balanced"], keys, 300)
    present = {k for k, _ in bulk}
    for kind, key in ops:
        if kind == "insert":
            present.add(key)
        else:
            assert key in present


def test_build_workload_rejects_tiny_dataset():
    keys = make_dataset("ycsb", 50)
    with pytest.raises(ValueError):
        build_workload(WORKLOADS["write_only"], keys, 100)
    with pytest.raises(ValueError):
        build_workload(WORKLOADS["lookup_only"], keys, 0)


def test_workloads_are_deterministic():
    keys = make_dataset("fb", 500)
    a = build_workload(WORKLOADS["balanced"], keys, 100, seed=3)
    b = build_workload(WORKLOADS["balanced"], keys, 100, seed=3)
    assert a == b


# -- runner --------------------------------------------------------------------

def _run(workload, num_ops=200, index_name="btree"):
    keys = make_dataset("ycsb", 3000)
    spec = WORKLOADS[workload]
    bulk, ops = build_workload(spec, keys, num_ops)
    stack = build(StackSpec(index_name, profile=HDD), bulk)
    result = run_workload(stack.index, ops, workload=workload, validate=True)
    return result, stack.bulkload_us, stack.device


def test_runner_counts_and_throughput():
    result, bulk_us, device = _run("lookup_only")
    assert result.num_ops == 200
    assert result.sim_elapsed_us > 0
    assert result.throughput_ops_per_s == pytest.approx(
        200 / (result.sim_elapsed_us / 1e6))
    assert bulk_us > 0


def test_runner_latency_statistics():
    result, _, _ = _run("lookup_only")
    assert result.p50_latency_us <= result.p99_latency_us
    assert result.mean_latency_us > 0


def test_runner_block_accounting():
    result, _, _ = _run("lookup_only")
    assert result.blocks_read_per_op > 0
    assert result.blocks_written_per_op == 0  # read-only queries write nothing
    assert result.inner_blocks_per_op + result.leaf_blocks_per_op == (
        pytest.approx(result.blocks_read_per_op))


def test_runner_write_workload_writes_blocks():
    result, _, _ = _run("write_only")
    assert result.blocks_written_per_op > 0


def test_runner_phase_breakdown_sums():
    result, _, _ = _run("write_only", index_name="alex")
    total_phase = sum(result.time_by_phase_us.values())
    assert total_phase == pytest.approx(result.sim_elapsed_us, rel=1e-6)
    assert result.phase_latency_us("maintenance") > 0  # ALEX stats writes


def test_runner_keeps_latencies_when_asked():
    keys = make_dataset("ycsb", 1000)
    bulk, ops = build_workload(WORKLOADS["lookup_only"], keys, 50)
    index = make_index("btree", Pager(BlockDevice(4096, HDD)))
    index.bulk_load(bulk)
    result = run_workload(index, ops, keep_latencies=True)
    assert isinstance(result.latencies_us, np.ndarray)
    assert len(result.latencies_us) == 50


def test_runner_validation_catches_wrong_payload():
    keys = make_dataset("ycsb", 500)
    bulk, ops = build_workload(WORKLOADS["lookup_only"], keys, 20)
    index = make_index("btree", Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load([(k, 0) for k, _ in bulk])  # wrong payloads
    with pytest.raises(AssertionError):
        run_workload(index, ops, validate=True)


def test_runner_rejects_unknown_op():
    index = make_index("btree", Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load([(1, 2)])
    with pytest.raises(ValueError):
        run_workload(index, [("frobnicate", 1)])


# -- lookup distributions ----------------------------------------------------

def test_distributions_registry():
    from repro.workloads import DISTRIBUTIONS
    assert DISTRIBUTIONS == ("uniform", "zipfian")
