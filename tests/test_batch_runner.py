"""The runner's batched execution mode and the parallel bench driver."""

import numpy as np
import pytest

from repro.core import make_index
from repro.datasets import make_dataset
from repro.durability import FaultInjector
from repro.workloads import WORKLOADS, build_workload, run_workload

from .util import make_pager


def _setup(workload="lookup_only", n=2000, num_ops=300):
    keys = make_dataset("ycsb", n)
    bulk, ops = build_workload(WORKLOADS[workload], keys, num_ops)
    index = make_index("btree", make_pager())
    index.bulk_load(bulk)
    return index, ops


def test_batch_run_validates_and_reports_fewer_positionings():
    index, ops = _setup()
    serial_index, _ = _setup()
    serial = run_workload(serial_index, ops, workload="lookup_only",
                          validate=True)
    batched = run_workload(index, ops, workload="lookup_only",
                           validate=True, batch=64)
    assert serial.batch == 1 and batched.batch == 64
    assert batched.num_ops == serial.num_ops == len(ops)
    assert batched.read_positionings < serial.read_positionings
    assert batched.blocks_read_per_op < serial.blocks_read_per_op
    assert batched.positionings_per_op < serial.positionings_per_op
    assert batched.coalesced_runs >= 0
    assert batched.throughput_ops_per_s > serial.throughput_ops_per_s


def test_batch_one_is_the_unbatched_path():
    a, ops = _setup(num_ops=120)
    b, _ = _setup(num_ops=120)
    r1 = run_workload(a, ops, validate=True)
    r2 = run_workload(b, ops, validate=True, batch=1)
    assert r1.sim_elapsed_us == r2.sim_elapsed_us
    assert r1.read_positionings == r2.read_positionings


def test_batch_preserves_mixed_stream_order():
    """Inserts flush the pending lookup group, so a mixed stream gives the
    same answers (validate checks every lookup) and the same final state."""
    index, ops = _setup(workload="balanced", n=3000, num_ops=400)
    result = run_workload(index, ops, workload="balanced", validate=True,
                          batch=32)
    assert result.num_ops == len(ops)
    # every op got a latency share; group cost is split across members
    assert result.mean_latency_us > 0


def test_batch_latency_shares_cover_the_run():
    index, ops = _setup(num_ops=200)
    result = run_workload(index, ops, keep_latencies=True, batch=16)
    assert result.latencies_us.shape == (len(ops),)
    assert float(result.latencies_us.sum()) == pytest.approx(
        result.sim_elapsed_us)


def test_batch_run_with_tracer_scopes_one_span_per_group():
    from repro.obs import Tracer

    index, ops = _setup(num_ops=100)
    tracer = Tracer()
    index.attach_tracer(tracer)
    run_workload(index, ops, batch=10)
    index.detach_tracer()
    assert [event["op"] for event in tracer.events] == ["lookup"] * 10


def test_batch_rejects_bad_arguments():
    index, ops = _setup(num_ops=10)
    with pytest.raises(ValueError):
        run_workload(index, ops, batch=0)
    with pytest.raises(ValueError):
        run_workload(index, ops, batch=8,
                     fault_injector=FaultInjector(crash_at_op=5))


def test_batch_lookup_experiment_shape():
    from repro.bench import EXPERIMENTS, default_scale, run_experiment

    result = run_experiment("batch_lookup", default_scale().scaled(0.05))
    assert len(result.rows) == 2 * 3 * 4  # {hdd,ssd} x {btree,fiting,alex} x batches
    EXPERIMENTS["batch_lookup"].check(result.rows)


def test_cli_jobs_matches_serial(capsys):
    from repro.bench.__main__ import main

    assert main(["run", "table3", "--scale", "0.02", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["run", "table3", "--scale", "0.02"]) == 0
    serial_out = capsys.readouterr().out

    def tables(text):
        return [line for line in text.splitlines() if "took" not in line]

    assert tables(parallel_out) == tables(serial_out)


def test_cli_jobs_rejects_trace(tmp_path):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["run", "table3", "fig7", "--jobs", "2",
              "--trace", str(tmp_path / "t.jsonl")])
