"""Benchmark harness: one table entry per paper table/figure."""

from .config import PROFILES, IndexSetup, Scale, default_scale, fresh_index
from .experiments import ExperimentResult
from .table import EXPERIMENTS, experiment_ids, run_experiment
from .report import format_chart, format_result, format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "IndexSetup",
    "PROFILES",
    "Scale",
    "default_scale",
    "experiment_ids",
    "format_chart",
    "format_result",
    "format_table",
    "fresh_index",
    "run_experiment",
]
