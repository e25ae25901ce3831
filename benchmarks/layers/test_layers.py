"""Self-tests of the `layers` benchmark.  Run explicitly (not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/layers/test_layers.py -q

The whole file takes under a minute at ``--scale 0.02``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir, os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
SECONDS = 0.05      # MIN_PASSES timed passes, no more
CHARGED = ("charged_us_per_op", "charged_p99_us", "charged_tail_mean_us",
           "blocks_per_op", "bytes_per_entry")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_charged_metrics_repeat_exactly_and_follow_the_seed(name, tmp_path, spec):
    workload = workloads.WORKLOADS[name]
    runs = [measure.measure(workload, seed, SCALE, SECONDS, False, str(tmp_path))
            for seed in (7, 7, 8)]
    for run in runs:
        # ``correct`` covers charged-stat equality across the passes of a run
        assert run["correct"] and run["failed"] == 0, run["problems"]
        assert run["passes"] >= measure.MIN_PASSES
        assert list(run["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        assert all(value > 0 for value in run["metrics"].values())
    same_a, same_b, other = (r["metrics"] for r in runs)
    for metric in CHARGED:
        assert same_a[metric] == same_b[metric], metric
    assert any(same_a[metric] != other[metric] for metric in CHARGED)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path, spec):
    run = measure.measure(workloads.WORKLOADS[name], 7, SCALE, SECONDS, True,
                          str(tmp_path))
    assert run["correct"], run["problems"]   # includes the 2% self-time sum
    assert list(run["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert run["metrics"]["bench.trace_overhead_ratio"] > 0
    assert run["metrics"]["bench.failed_op_share"] == 0
    lines = [json.loads(line) for line in
             open(tmp_path / f"trace-{name}.jsonl")]
    assert lines[0]["type"] == "header"
    trees = [line for line in lines if line["type"] == "op"]
    assert trees and all(tree["columns"] == measure.SPAN_COLUMNS for tree in trees)
    ids = {row[0] for tree in trees for row in tree["spans"]}
    assert any(row[1] in ids for tree in trees for row in tree["spans"])


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    for section, table in (("end_to_end", measure.END_TO_END),
                           ("per_layer", measure.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} == table
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/layers"]


def test_command_line_prints_one_result_object_last(tmp_path, spec):
    command = spec["command"] + [
        "--workload", "lookup_cold", "--seed", "3", "--seconds", "0.05",
        "--trace", "0", "--scale", str(SCALE), "--results", str(tmp_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]["setup_s"]) == {"value", "unit"}


def _crash_inputs():
    workload = workloads.BALANCED_DURABLE
    cell = workload.cells[0]
    return workload, cell, workloads.make_inputs(workload, 7, SCALE)


def test_crash_check_passes_on_an_intact_log():
    workload, cell, inputs = _crash_inputs()
    outcome = measure.crash_check(workload, cell, inputs, SCALE)
    assert outcome.acked_writes > 0
    assert outcome.records_applied == outcome.acked_writes
    assert outcome.lost_acked_writes == 0


def test_crash_check_fails_when_the_last_flushed_block_is_dropped():
    """The gate is falsifiable: lose one acknowledged group commit (the
    block before the torn tail) and the audit must count its writes."""
    workload, cell, inputs = _crash_inputs()

    def drop_last_flushed_block(wal):
        del wal.file.blocks[-2:]
        del wal.file.checksums[-2:]
        wal.pager.invalidate_file(wal.file.name)

    outcome = measure.crash_check(workload, cell, inputs, SCALE,
                                  tamper=drop_last_flushed_block)
    assert 0 < outcome.lost_acked_writes <= workload.group_commit


def _document(real_ops_per_s, failed=0):
    return {"workloads": {"w": {"correct": True, "attempted": 10, "failed": failed,
                                "metrics": {"real_ops_per_s": {
                                    "value": real_ops_per_s, "unit": "1/s"}}}}}


def _write_set(directory, values, failed=0):
    directory.mkdir()
    for i, value in enumerate(values):
        (directory / f"run{i}.json").write_text(json.dumps(_document(value, failed)))
    return str(directory)


def test_compare_verdicts_and_exit_codes(tmp_path, capsys, spec):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "real_ops_per_s")
    base = [1000, 1001, 999, 1002, 998]
    steady = _write_set(tmp_path / "steady", base)
    slower = _write_set(tmp_path / "slower",
                        [v * (1 - 1.5 * bound) for v in base])
    noisy = _write_set(tmp_path / "noisy",
                       [1000, 1000 * (1 + 2 * bound), 1000 * (1 - 2 * bound),
                        1000 * (1 + 1.5 * bound), 1000 * (1 - 1.5 * bound)])
    failing = _write_set(tmp_path / "failing", base, failed=1)
    assert compare.main([steady, steady]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([steady, slower]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([steady, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([steady, failing]) == 1
