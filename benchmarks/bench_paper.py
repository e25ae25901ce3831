"""The one benchmark command: every entry of the experiment table
(``repro.bench.table`` — the paper's tables, figures and ablations and
the post-paper extensions) run at the bench scale, its rows printed and
archived under ``results/<id>.txt``, then held to the entry's ``check``.
The pytest-benchmark timer wraps the full experiment.

    python -m pytest benchmarks/bench_paper.py --benchmark-only -k fig5

Scale: 50% of the library's default experiment scale — large enough for
the paper's tree-height relationships (a 3-level B+-tree) while the
whole suite finishes in minutes.  Set ``REPRO_BENCH_SCALE`` (e.g. ``1.0``
or ``4.0``) for larger runs.
"""

import os
import pathlib

import pytest

from repro.bench import EXPERIMENTS, default_scale, format_result, run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_paper(benchmark, experiment_id):
    scale = default_scale().scaled(float(os.environ.get("REPRO_BENCH_SCALE", "0.5")))
    result = benchmark.pedantic(run_experiment, args=(experiment_id, scale),
                                rounds=1, iterations=1)
    text = format_result(result)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)
    EXPERIMENTS[experiment_id].check(result.rows)
