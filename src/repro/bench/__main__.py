"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.bench list
    python -m repro.bench run table3
    python -m repro.bench run fig5 --scale 0.5
    python -m repro.bench run fig3 fig5 --jobs 2
    python -m repro.bench all --jobs 4
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import default_scale
from .report import format_result
from .table import experiment_ids, run_experiment


def _jobs_worker(task):
    """Run one experiment in a worker process (top-level for pickling).

    Simulated clocks make every experiment deterministic, so the parallel
    grid produces exactly the tables the serial loop would.
    """
    experiment_id, scale_factor = task
    scale = default_scale()
    if scale_factor is not None:
        scale = scale.scaled(scale_factor)
    started = time.time()
    result = run_experiment(experiment_id, scale)
    return experiment_id, result, time.time() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("experiment", nargs="+", choices=experiment_ids())
    run_parser.add_argument("--scale", type=float, default=None,
                            help="multiply all sizes by this factor")
    run_parser.add_argument("--chart", metavar="COLUMN", default=None,
                            help="also render COLUMN as an ASCII bar chart")
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="export an op-level JSONL trace of every index "
                                 "the experiment touches, and print its summary")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="run the experiment grid across N worker "
                                 "processes (deterministic: same tables as "
                                 "--jobs 1, in the same order)")
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", type=float, default=None)
    all_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="run the experiment grid across N worker "
                                 "processes")
    report_parser = sub.add_parser(
        "report", help="assemble EXPERIMENTS.md from archived benchmark results")
    report_parser.add_argument("--results", default="benchmarks/results")
    report_parser.add_argument("--out", default="EXPERIMENTS.md")

    args = parser.parse_args(argv)
    if args.command == "report":
        from .experiments_doc import render_experiments_md

        text = render_experiments_md(args.results)
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(text.splitlines())} lines)")
        return 0
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    scale = default_scale()
    if args.scale is not None:
        scale = scale.scaled(args.scale)

    trace_path = getattr(args, "trace", None)
    targets = experiment_ids() if args.command == "all" else list(args.experiment)
    jobs = max(1, getattr(args, "jobs", 1) or 1)
    if jobs > 1 and trace_path:
        parser.error("--trace binds one tracer per process; use --jobs 1")

    def outcomes():
        if jobs > 1 and len(targets) > 1:
            import multiprocessing

            with multiprocessing.Pool(min(jobs, len(targets))) as pool:
                tasks = [(eid, args.scale) for eid in targets]
                # imap keeps the serial ordering while workers overlap
                for outcome in pool.imap(_jobs_worker, tasks):
                    yield outcome
        else:
            for experiment_id in targets:
                started = time.time()
                result = run_experiment(experiment_id, scale,
                                        trace_path=trace_path)
                yield experiment_id, result, time.time() - started

    for experiment_id, result, took in outcomes():
        print(format_result(result))
        if trace_path:
            from .report import format_trace_section

            print(format_trace_section(trace_path))
            print()
        chart_column = getattr(args, "chart", None)
        if chart_column:
            from .report import format_chart

            label_columns = [c for c in result.column_names()
                             if c != chart_column][:3]
            print(format_chart(result.rows, label_columns, chart_column))
            print()
        print(f"[{experiment_id} took {took:.1f}s wall clock]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
