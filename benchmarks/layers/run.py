"""`layers`: the two-clock, seven-workload benchmark.

    python3 benchmarks/layers/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints every metric by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end set with ``--trace 0``, the per-layer set with ``--trace 1``).
Without ``--workload`` every workload runs in its own sequential child
process (a clean interpreter, so ``peak_rss_mb`` is per workload) and one
row is appended to ``results/trajectory.jsonl``.  The exit code is
non-zero when a check failed.

It is a closed loop driven by one real thread: the simulator is
single-threaded, and the "clients" of the serving workloads are the
serving engine's virtual-time sessions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark measures the library in this checkout's ``src``; no
# installed copy and no PYTHONPATH is assumed.
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload name; default: all, in child processes")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="wall time the timed passes of one workload fill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a span-recorded pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every key, op and pool count")
    parser.add_argument("--results", default=os.path.join(HERE, "results"),
                        help="directory for trace-*.jsonl and trajectory.jsonl")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write the run as one JSON document")
    return parser.parse_args(argv)


def run_meta(args: argparse.Namespace) -> dict:
    import numpy
    try:
        sha = subprocess.run(
            ["git", "-C", HERE, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"    # the driver's checkout is not a git repository
    return {"git_sha": sha, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def print_metrics(name: str, result: dict, specs: dict) -> None:
    print(f"== {name}: {result['passes']} passes, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"{metric:44s} {entry['value']:>16.6g} {entry['unit']}"
              f"  ({specs[metric][1]} is better)")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)


def run_one(args: argparse.Namespace) -> dict:
    from measure import END_TO_END, PER_LAYER, measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    specs = PER_LAYER if args.trace else END_TO_END
    result = measure(WORKLOADS[args.workload], args.seed, args.scale,
                     args.seconds, bool(args.trace), args.results)
    result["metrics"] = {name: {"value": value, "unit": specs[name][0]}
                         for name, value in result["metrics"].items()}
    print_metrics(args.workload, result, specs)
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own child process, one after the other."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", str(args.scale), "--results", args.results]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if child.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} exited with {child.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        result = run_one(args)
        results = {args.workload: result}
    else:
        results = run_all(args)
    document = {"meta": run_meta(args), "workloads": {
        name: {key: r[key] for key in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()}}
    if args.json:
        with open(args.json, "w") as out:
            json.dump(document, out, indent=1)
    if args.workload is None:
        os.makedirs(args.results, exist_ok=True)
        row = dict(document["meta"], metrics={
            name: {metric: entry["value"] for metric, entry in r["metrics"].items()}
            for name, r in document["workloads"].items()})
        with open(os.path.join(args.results, "trajectory.jsonl"), "a") as out:
            out.write(json.dumps(row) + "\n")
        print(json.dumps({name: r["correct"]
                          for name, r in document["workloads"].items()}))
    else:
        print(json.dumps(document["workloads"][args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
