"""Shared plumbing for the benchmark suite.

``bench_paper.py`` regenerates every table/figure of the paper (one
parametrized test per entry of ``repro.bench.table`` that has a
``check``); the other ``bench_*`` files one post-paper extension each.
The pytest-benchmark timer wraps the full experiment, the resulting rows
are printed and archived under ``benchmarks/results/``.

Scale: benchmarks default to 50% of the library's default experiment
scale — large enough for the paper's tree-height relationships (a
3-level B+-tree) while the whole suite finishes in minutes.  Set
``REPRO_BENCH_SCALE`` (e.g. ``1.0`` or ``4.0``) for larger runs.
"""

from __future__ import annotations

import os
import pathlib

from repro.bench import ExperimentResult, Scale, default_scale, format_result

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--shards", action="store", type=int, default=1,
        help="serve sharding-aware benchmarks (bench_concurrency) from a "
             "range-partitioned tier with this many shards; 1 (default) "
             "keeps the flat single-index path")
    parser.addoption(
        "--replicas", action="store", type=int, default=3,
        help="replica count (primary included) for the replica-aware "
             "benchmarks: bench_sharding's fan-out section compares 1 vs "
             "this many copies, and bench_chaos serves its fault sweep "
             "from tiers replicated this wide")


def bench_scale() -> Scale:
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
    return default_scale().scaled(factor)


def emit(result: ExperimentResult) -> None:
    """Print the regenerated table and archive it."""
    text = format_result(result)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text)


def run_and_emit(benchmark, experiment_id: str,
                 **experiment_kwargs) -> ExperimentResult:
    """Time one full experiment regeneration and archive its rows.

    Extra keyword arguments pass through to the experiment function
    (e.g. ``shards`` for the ``concurrency`` experiment).
    """
    from repro.bench import run_experiment

    scale = bench_scale()
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, scale),
        kwargs=experiment_kwargs, rounds=1, iterations=1)
    emit(result)
    return result
