"""The paper's tables, figures, ablations and the PLID / buffer
extensions: every table entry that has a ``check`` (see
``repro.bench.table``) — run at the bench scale, archive the rows under
``results/<id>.txt``, then hold them to the entry's ``shape``.

    python -m pytest benchmarks/bench_paper.py --benchmark-only -k fig5
"""

import pytest
from conftest import run_and_emit

from repro.bench import EXPERIMENTS

PAPER_SIDE = [entry.id for entry in EXPERIMENTS.values() if entry.check]


@pytest.mark.parametrize("experiment_id", PAPER_SIDE)
def test_paper(benchmark, experiment_id):
    result = run_and_emit(benchmark, experiment_id)
    EXPERIMENTS[experiment_id].check(result.rows)
