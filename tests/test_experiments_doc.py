"""Tests for the EXPERIMENTS.md generator and dataset overrides."""

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.config import reported_datasets
from repro.bench.experiments_doc import render_experiments_md

from tests.golden.gen_experiment_rows import MICRO


def test_every_experiment_has_an_expectation_entry():
    for entry in EXPERIMENTS.values():
        assert entry.artifact and entry.paper and entry.shape, entry.id
        assert bool(entry.body) != bool(entry.axes), entry.id  # a function or a row


def test_render_without_results(tmp_path):
    text = render_experiments_md(str(tmp_path))
    assert "# EXPERIMENTS" in text
    assert "Table 3" in text
    assert "(no archived result yet" in text


def test_render_embeds_archived_tables(tmp_path):
    (tmp_path / "table3.txt").write_text("Table 3: dataset profiling\nROWDATA")
    text = render_experiments_md(str(tmp_path))
    assert "ROWDATA" in text
    assert "<details>" in text


def test_dataset_override_env(monkeypatch):
    monkeypatch.delenv("REPRO_DATASETS", raising=False)
    assert reported_datasets() == ("fb", "osm", "ycsb")
    monkeypatch.setenv("REPRO_DATASETS", "ycsb, stack")
    assert reported_datasets() == ("ycsb", "stack")
    monkeypatch.setenv("REPRO_DATASETS", "all")
    assert len(reported_datasets()) == 10
    # It reaches every row that does not pin its datasets.
    monkeypatch.setenv("REPRO_DATASETS", "ycsb")
    for experiment_id in ("fig3", "plid", "ablation-alex-layout",
                          "ablation-fiting-segmentation", "ablation-error-bound"):
        rows = run_experiment(experiment_id, MICRO).rows
        assert {row["dataset"] for row in rows} == {"ycsb"}, experiment_id
    assert {row["dataset"] for row in run_experiment("fig14", MICRO).rows} == {"ycsb", "fb"}
