"""Golden contract of the experiment table (tests/golden/experiment_rows.json).

Every registered experiment id, run through ``run_experiment`` at the
``MICRO`` scale with the ``NARROW`` sweep kwargs below and no
``REPRO_DATASETS`` override -> its title, rows and notes, exactly what
``format_result`` renders and ``benchmarks/results/<id>.txt`` archives.
Every column is charged (simulated clock, block counts, sizes): none
reads the real clock, so nothing is excluded, rounded or toleranced.
``tests/test_experiments_smoke.py`` replays every id and compares.

The JSON was recorded at commit de7638f, when the 22 paper-side
experiments were 22 hand-written loops (``bench/experiments.py`` and
``bench/ablations.py``), before they became rows of one table run by one
loop.  Regenerate it only for a change that is *meant* to move a reported
number, and say so in the commit:

    PYTHONPATH=src python tests/golden/gen_experiment_rows.py
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.bench import Scale, experiment_ids, run_experiment

GOLDEN_PATH = pathlib.Path(__file__).with_name("experiment_rows.json")

#: Small enough that every index bulk-loads in milliseconds, big enough
#: that leaves split and scans cross block boundaries.
MICRO = Scale(n_read=800, n_write_bulk=500, n_write_ops=150,
              n_lookup_ops=40, n_scan_ops=6)

#: Sweep-narrowing kwargs so the run stays cheap; experiments not listed
#: run with their defaults (their loops are bounded by MICRO).
NARROW = {
    "fig11": {"block_sizes": (4096,)},
    "fig13": {"buffer_sizes": (0, 8)},
    "durability": {"batch_sizes": (8,)},
    "batch_lookup": {"batch_sizes": (1, 16)},
    "fault_sweep": {"transient_rates": (0.0, 1e-3)},
    "concurrency": {"client_counts": (1, 4)},
    "sharding": {"shard_counts": (1, 2)},
    # A micro run charges few device reads, so the member-crash
    # countdown must be short for the crash to fire at all.
    "chaos": {"fault_rates": (0.0, 1e-2), "crash_after": 5},
}


def run_case(experiment_id: str) -> dict:
    result = run_experiment(experiment_id, MICRO,
                            **NARROW.get(experiment_id, {}))
    return {"title": result.title, "rows": result.rows, "notes": result.notes}


def main() -> None:
    os.environ.pop("REPRO_DATASETS", None)
    golden = {eid: run_case(eid) for eid in experiment_ids()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} experiments, "
          f"{sum(len(case['rows']) for case in golden.values())} rows)")


if __name__ == "__main__":
    main()
