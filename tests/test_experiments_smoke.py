"""Every registered experiment body runs end-to-end at micro scale.

The figure/table experiments are normally exercised only through the
bench CLI at full scale, so a refactor of an index, the pager, or the
serving tier can break an experiment loop (or its row schema) without
any test noticing until someone regenerates EXPERIMENTS.md.  This
module executes all of them — with sweeps narrowed to one or two points
where the signature allows — and checks the row contract that
``repro.bench.report`` and the perf-smoke benchmarks rely on.
"""

import pytest

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.config import Scale

#: Small enough that every index bulk-loads in milliseconds, big enough
#: that leaves split and scans cross block boundaries.
MICRO = Scale(n_read=800, n_write_bulk=500, n_write_ops=150,
              n_lookup_ops=40, n_scan_ops=6)

#: Sweep-narrowing kwargs so the smoke run stays cheap; experiments not
#: listed run with their defaults (their loops are bounded by MICRO).
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


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_at_micro_scale(experiment_id, monkeypatch):
    # One dataset keeps the figure loops to a handful of cells.
    monkeypatch.setenv("REPRO_DATASETS", "ycsb")
    result = run_experiment(experiment_id, MICRO,
                            **NARROW.get(experiment_id, {}))
    assert result.experiment_id == experiment_id
    assert result.rows, f"{experiment_id} produced no rows"
    schema = None
    for row in result.rows:
        assert isinstance(row, dict) and row
        assert all(isinstance(k, str) for k in row)
        # report.py renders one header per experiment section: every row
        # must carry the same columns in the same order.
        if schema is None:
            schema = list(row)
        elif list(row) != schema:
            # A few experiments emit multi-section rows (e.g. sharding);
            # each row still has to be self-consistently renderable.
            assert set(row), f"{experiment_id} emitted an empty row"
