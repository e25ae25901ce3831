"""Wall-clock throughput smoke: scalar vs vectorized ``lookup_many``.

Beyond the paper: everything else in the harness measures the *simulated*
charged-I/O cost model; this benchmark is the one place that times real
Python execution (DESIGN.md Section 15).  Each row replays identical
read-heavy batch-64 lookup sequences through the scalar and vectorized
paths and reports ``time.perf_counter`` ops/sec for both.  Rows are
archived as ``BENCH_wallclock.json`` for the CI perf-smoke job.

Two kinds of assertion, deliberately split:

* **Charge identity** (always on): the vectorized path must be a pure
  CPU optimization — the experiment itself asserts the charged
  ``StorageStats`` are bit-identical between modes, and every row must
  carry ``charges_identical: True``.  This is deterministic and holds on
  any machine.
* **Speedup floors + ratchet** (opt-in via ``--wallclock``): real-time
  ratios are machine-dependent, so they only gate runs that asked for
  them (the CI perf-smoke job does).  The floors below sit well under
  the locally measured ratios to absorb CI-runner noise; the ratchet
  additionally compares against the archived baseline so a gross
  wall-clock regression fails even where a static floor would not.

Why the floors differ per index: hybrid-pgm clears the 3x headline
comfortably (~5x measured) because its scalar path materializes full
tuple lists per node visit — exactly the pathology the vectorized codecs
remove.  alex's scalar baseline already batches span fetches and probes
leaf bytes in place, so far less Python is there to eliminate; its
honest ceiling on this cost structure is ~2.3x (DESIGN.md Section 15 has
the per-op breakdown).  Do not "fix" a floor miss by slowing the scalar
path down.

btree has no floor and no ratchet: the B+-tree searches and splices node
pages as bytes on one code path, the switch selects nothing in it, and
its two columns time the same code (ratio ~1; it used to be ~5.7 because
the scalar path parsed every node it visited into Python lists — a floor
on that ratio pinned the slow path in place).  The row stays for its
absolute ops/sec and its ``charges_identical`` check.  A B+-tree that
goes back to parsing whole nodes is caught by the same-run
btree-vs-pgm ratio of the ``layers`` perf smoke instead (ci.yml).
"""

import json

from conftest import RESULTS_DIR, run_and_emit

#: Minimum acceptable vectorized/scalar throughput ratio per
#: (index, leaf codec) cell.  The compressed cells assert that the codec
#: decode paths (cached_decode + searchsorted, DESIGN.md Section 16)
#: keep a real vectorized win over their scalar decode loops; their
#: floors are lower because both modes share the same page-decode work.
SPEEDUP_FLOORS = {
    ("hybrid-pgm", "raw"): 3.0,
    ("alex", "raw"): 1.6,
    ("pgm", "raw"): 1.6,
    ("fiting", "raw"): 1.2,
    ("pgm", "for"): 1.1,
    ("hybrid-pgm", "for"): 1.1,
}

#: A fresh speedup may not fall below this fraction of the archived one.
RATCHET_FRACTION = 0.5


def test_wallclock(benchmark, wallclock):
    out_path = RESULTS_DIR / "BENCH_wallclock.json"
    baseline_rows = {}
    if out_path.exists():
        archived = json.loads(out_path.read_text())
        baseline_rows = {(r["index"], r.get("codec", "raw"), r["batch"]): r
                         for r in archived.get("rows", [])}

    result = run_and_emit(benchmark, "wallclock")
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path.write_text(
        json.dumps({"experiment": result.experiment_id, "rows": result.rows},
                   indent=2))

    # Deterministic on any machine: vectorization never changes charges.
    for row in result.rows:
        assert row["charges_identical"] is True, row

    if not wallclock:
        return

    for row in result.rows:
        index, codec, batch = row["index"], row.get("codec", "raw"), row["batch"]
        floor = SPEEDUP_FLOORS.get((index, codec))
        if floor is None:
            continue
        assert row["speedup"] >= floor, (
            f"{index} codec={codec} batch={batch}: wall-clock speedup "
            f"{row['speedup']} fell below its floor {floor}")
        archived = baseline_rows.get((index, codec, batch))
        if archived:
            ratchet = RATCHET_FRACTION * archived["speedup"]
            assert row["speedup"] >= ratchet, (
                f"{index} codec={codec} batch={batch}: speedup "
                f"{row['speedup']} regressed below {RATCHET_FRACTION:.0%} of "
                f"the archived baseline {archived['speedup']}")
