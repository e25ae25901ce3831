"""Workload generation and execution (Section 5.2 of the paper)."""

from .runner import RunResult, run_workload
from .spec import (DISTRIBUTIONS, WORKLOADS, Operation, WorkloadSpec,
                   build_workload, workload_names)

__all__ = [
    "DISTRIBUTIONS",
    "Operation",
    "RunResult",
    "WORKLOADS",
    "WorkloadSpec",
    "build_workload",
    "run_workload",
    "workload_names",
]
