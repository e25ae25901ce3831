"""Every registered experiment runs end-to-end at micro scale and
reproduces the title, rows and notes of
``tests/golden/experiment_rows.json`` (see the generator beside it), so
no refactor moves a reported number or a row schema unnoticed.
"""

import json

import pytest

from repro.bench import EXPERIMENTS

from tests.golden.gen_experiment_rows import GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_experiment():
    assert sorted(GOLDEN) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_at_micro_scale(experiment_id, monkeypatch):
    monkeypatch.delenv("REPRO_DATASETS", raising=False)
    got = run_case(experiment_id)
    # report.py renders the columns in first-seen order: key order counts.
    assert ([list(row) for row in got["rows"]]
            == [list(row) for row in GOLDEN[experiment_id]["rows"]])
    # Every column is charged (no real-clock one to exclude): bit-exact.
    assert json.loads(json.dumps(got)) == GOLDEN[experiment_id]
