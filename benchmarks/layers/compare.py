"""Compare two sets of `layers` runs, metric by metric, workload by workload.

    python3 benchmarks/layers/compare.py A/ B/

``A`` and ``B`` are directories (or single files) of run documents
written by ``run.py --json OUT``.  For every (metric, workload) the
table gives each set's median and quartiles, the inter-quartile spread as
a share of the median, how much worse B's median is than A's, and the
bound from ``BENCHMARK.json``.  An end-to-end cell is

* ``regressed``  when B's median is worse than A's by more than the bound;
* ``unresolved`` when either set's spread exceeds the bound (the runs do
  not repeat well enough to call the cell unchanged);
* ``ok``         otherwise.

Per-layer metrics carry no bound and are listed without a verdict.  The
exit code is non-zero on any ``regressed`` cell or any failed operation.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")

Values = Dict[Tuple[str, str], List[float]]     # (workload, metric) -> values


def load_set(path: str) -> Tuple[Values, int]:
    """All values of one set, and the total of its runs' ``failed`` counts."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    if not files:
        raise SystemExit(f"{path}: no .json run documents")
    values: Values = {}
    failed = 0
    for file in files:
        with open(file) as handle:
            document = json.load(handle)
        for workload, result in document["workloads"].items():
            failed += result["failed"] + (0 if result["correct"] else 1)
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, failed


def summarize(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return median, q1, q3, spread


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: Values, b: Values, spec: dict) -> Tuple[List[str], int]:
    """The table's lines and the number of regressed cells."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    lines = [f"{'workload':20s} {'metric':34s} {'A median [q1, q3]':>40s} "
             f"{'B median [q1, q3]':>40s} {'spreadA':>8s} {'spreadB':>8s} "
             f"{'worse':>8s} {'bound':>6s}  verdict"]
    regressed = 0
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        med_a, q1_a, q3_a, spread_a = summarize(a[key])
        med_b, q1_b, q3_b, spread_b = summarize(b[key])
        if metric in bounds:
            bound, better = bounds[metric]
            worse = worsening(med_a, med_b, better)
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif spread_a > bound or spread_b > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            bound_text = f"{bound:6.3f}"
        else:
            worse = worsening(med_a, med_b, layer_better.get(metric, "lower"))
            verdict, bound_text = "", "     -"
        lines.append(
            f"{workload:20s} {metric:34s} "
            f"{f'{med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}]':>40s} "
            f"{f'{med_b:.6g} [{q1_b:.6g}, {q3_b:.6g}]':>40s} "
            f"{spread_a:8.4f} {spread_b:8.4f} {worse:+8.4f} {bound_text}  {verdict}")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    a, failed_a = load_set(argv[0])
    b, failed_b = load_set(argv[1])
    lines, regressed = compare(a, b, spec)
    print("\n".join(lines))
    print(f"{regressed} regressed; failed operations: A {failed_a}, B {failed_b}")
    return 1 if regressed or failed_a or failed_b else 0


if __name__ == "__main__":
    sys.exit(main())
