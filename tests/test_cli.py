"""Tests for the bench CLI and the runnable examples."""

import subprocess
import sys

import pytest

from repro.bench.__main__ import main


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out
    assert "fig14" in out
    assert "scalability" in out


def test_cli_run_tiny_experiment(capsys):
    assert main(["run", "table3", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "conflict_degree" in out
    assert "took" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_quickstart_example_runs():
    proc = subprocess.run(
        [sys.executable, "examples/quickstart.py"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    for name in ("btree", "fiting", "pgm", "alex", "lipp"):
        assert name in proc.stdout


@pytest.mark.parametrize("example, verified", [
    ("sharded_tier", "Tier verifies clean"),
    ("chaos_serving", "replica groups consistent"),
])
def test_example_runs(example, verified):
    proc = subprocess.run(
        [sys.executable, f"examples/{example}.py"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert verified in proc.stdout
