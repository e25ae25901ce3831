"""Tests for the benchmark harness at a tiny scale."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    Scale,
    experiment_ids,
    format_result,
    format_table,
    fresh_index,
    run_experiment,
)
from repro.stack import StackSpec
from repro.workloads import run_workload

TINY = Scale(n_read=4000, n_write_bulk=1500, n_write_ops=800,
             n_lookup_ops=100, n_scan_ops=20)


def test_every_paper_artifact_has_an_experiment():
    expected = {"table2", "table3", "table4", "table5",
                "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
                "fig10", "fig11", "fig12", "fig13", "fig14"}
    assert expected <= set(experiment_ids())
    assert all(EXPERIMENTS[experiment_id].check for experiment_id in expected)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("fig99")


def test_scale_factor():
    assert TINY.scaled(2.0).n_read == 8000
    assert TINY.scaled(0.5).n_lookup_ops == 50


def test_fresh_index_read_workload():
    setup = fresh_index(StackSpec("btree"), "ycsb", "lookup_only", TINY)
    assert len(setup.bulk_items) == TINY.n_read
    assert len(setup.ops) == TINY.n_lookup_ops
    result = run_workload(setup.index, setup.ops, validate=True)
    assert result.num_ops == TINY.n_lookup_ops


def test_fresh_index_write_workload_bulk_size():
    setup = fresh_index(StackSpec("btree"), "ycsb", "write_only", TINY)
    assert len(setup.bulk_items) == TINY.n_write_bulk
    assert len(setup.ops) == TINY.n_write_ops


def test_fresh_index_memory_resident_flag():
    setup = fresh_index(StackSpec("btree", inner_memory_resident=True),
                        "ycsb", "lookup_only", TINY)
    roles = setup.index.file_roles()
    for name, role in roles.items():
        if role == "inner":
            assert setup.device.get_file(name).memory_resident


def test_fresh_index_buffer_pool():
    setup = fresh_index(StackSpec("btree", buffer_blocks=64),
                        "ycsb", "lookup_only", TINY)
    assert setup.pager.buffer_pool is not None
    assert setup.pager.buffer_pool.capacity == 64


def test_format_table_alignment():
    text = format_table([{"a": 1, "b": "xx"}, {"a": 22}], ["a", "b"])
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert len(lines) == 4
    assert format_table([], ["a"]) == "(no rows)"


def test_table3_experiment_rows():
    result = run_experiment("table3", TINY)
    assert len(result.rows) == 11
    ycsb = next(r for r in result.rows if r["dataset"] == "ycsb")
    fb = next(r for r in result.rows if r["dataset"] == "fb")
    assert fb["seg@64"] > ycsb["seg@64"]
    assert "conflict_degree" in ycsb
    text = format_result(result)
    assert "Table 3" in text


def test_fig7_experiment_shape():
    # PGM smallest, LIPP largest, LIPP builds slower than the B+-tree (O11).
    EXPERIMENTS["fig7"].check(run_experiment("fig7", TINY).rows)


def test_fig11_experiment_shape():
    # O17: LIPP flat across block sizes, the others non-increasing.
    EXPERIMENTS["fig11"].check(run_experiment("fig11", TINY).rows)


def test_fig13_experiment_shape():
    for row in run_experiment("fig13", TINY).rows:  # the full check needs the bench scale
        assert row["buf512"] <= row["buf0"] + 0.01


def test_fig14_normalization():
    result = run_experiment("fig14", TINY)
    for row in result.rows:
        values = [row[name] for name in ("btree", "fiting", "pgm", "alex", "lipp")]
        assert max(values) == pytest.approx(1.0)
        assert all(0 < v <= 1.0 for v in values)
    EXPERIMENTS["fig14"].check(result.rows)
