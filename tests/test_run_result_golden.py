"""The recorded contract of ``run_workload``.

``tests/golden/run_results.json`` holds, per case, every field of the
``RunResult`` and the device's final ``StorageStats``, recorded when the
runner still kept one copy of the before/after bookkeeping for the single
stream and one for the serving path, and two single-stream loops (see
``tests/golden/gen_run_results.py``).  Whatever measures a run now must
report the same numbers, bit for bit.
"""

import dataclasses
import json

import pytest

from repro.workloads import RunResult

from tests.golden.gen_run_results import CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: filled only when a tracer is attached; everything else must not notice it
TRACED_ONLY = ("phase_latency_histograms", "op_io_histograms",
               "client_phase_histograms")


def _decode(encoded):
    """A recorded number: floats are stored as ``float.hex``."""
    return float.fromhex(encoded) if isinstance(encoded, str) else encoded


def test_golden_covers_every_case_and_every_field():
    assert sorted(GOLDEN) == sorted(CASES)
    names = sorted(f.name for f in dataclasses.fields(RunResult))
    for case, recorded in GOLDEN.items():
        assert sorted(recorded["result"]) == names, case


@pytest.mark.parametrize("case", CASES)
def test_reproduces_every_recorded_field(case):
    expected = GOLDEN[case]
    got = json.loads(json.dumps(run_case(case)))  # JSON-normalized, like the file
    for name, value in expected["result"].items():  # narrow failures first
        assert got["result"][name] == value, name
    assert got["device"] == expected["device"]
    assert got == expected


def test_a_tracer_changes_no_other_field():
    for case in CASES:
        if not case.endswith("-traced") or case[:-len("-traced")] not in CASES:
            continue
        traced = GOLDEN[case]
        plain = GOLDEN[case[:-len("-traced")]]
        assert traced["device"] == plain["device"]
        for name, value in plain["result"].items():
            if name == "per_client":
                for client, digest in traced["result"][name].items():
                    digest = dict(digest)
                    assert digest.pop("phase_latency_histograms")
                    assert digest == value[client]
            elif name in TRACED_ONLY:
                per_client_only = (name == "client_phase_histograms"
                                   and plain["result"]["clients"] == 1)
                assert value is None
                assert bool(traced["result"][name]) != per_client_only, name
            else:
                assert traced["result"][name] == value, name


def test_cases_exercise_what_they_record():
    """A golden of zeros would pin nothing: each counter family is
    non-zero in the case that is there for it."""
    results = {case: {name: _decode(value) for name, value in r["result"].items()
                      if not isinstance(value, (dict, list))
                      and name not in ("workload", "index_name")}
               for case, r in GOLDEN.items()}
    raw = {case: r["result"] for case, r in GOLDEN.items()}

    cold = results["btree-lookup-cold"]
    assert cold["inner_blocks_per_op"] > cold["leaf_blocks_per_op"] > 0
    assert cold["inner_blocks_per_op"] + cold["leaf_blocks_per_op"] == pytest.approx(
        cold["blocks_read_per_op"])

    grouped = raw["pgm-batch16-lru"]
    assert grouped["batch"] == 16 and grouped["coalesced_runs"] > 0
    assert sorted(grouped["op_latency_histograms"]) == ["insert", "lookup", "scan"]

    durable = results["btree-balanced-wb-wal8"]
    assert durable["log_records"] == 300
    assert durable["log_flushes"] == 38            # ceil(300 / 8): async commit
    assert durable["flushes"] == 1 and durable["dirty_evictions"] > 0

    for case in ("btree-balanced-wb-wal8-traced", "btree-batch16-traced",
                 "btree-healer-traced"):
        assert raw[case]["phase_latency_histograms"], case
        assert raw[case]["op_io_histograms"]["lookup"]["count"] > 0, case
    # a group's span is divided among its lookups: one sample per op
    batched = raw["btree-batch16-traced"]
    assert (batched["op_io_histograms"]["lookup"]["count"]
            == batched["op_latency_histograms"]["lookup"]["count"] > 16)

    crash = results["btree-crash-torn-tail"]
    assert crash["crashed_at_op"] == crash["num_ops"] == 333
    assert raw["btree-crash-torn-tail"]["latencies_us"]["len"] == 333
    assert crash["flushes"] == 0                   # no tail flush after a crash

    healed = results["btree-healer-traced"]
    repairs = GOLDEN["btree-healer-traced"]["extras"]["repairs"]
    assert True in repairs and False in repairs    # "applied" and "retry"
    assert healed["healed_faults"] == len(repairs)
    assert healed["io_retries"] > 0 and healed["repaired_blocks"] > 0
    assert healed["checksum_failures"] > 0

    serving = results["serving-4c-durable"]
    assert serving["clients"] == 4 and len(raw["serving-4c-durable"]["per_client"]) == 4
    assert serving["committed_writes"] == serving["commit_waits"] == 300
    assert serving["commit_groups"] > 0 and serving["mean_commit_group"] > 1
    assert serving["snapshot_reads"] == 300 and serving["snapshot_suppressed"] > 0
    assert serving["latch_waits"] > 0 and serving["latch_wait_us"] > 0  # writers'
    assert raw["serving-4c-durable-traced"]["client_phase_histograms"]

    faulting = results["tier-2x2-faulting-4c"]
    for name in ("shed_ops", "hedged_reads", "failovers", "io_retries"):
        assert faulting[name] > 0, name
    assert faulting["shards"] == faulting["replicas"] == 2

    for case in ("tier-2x2-stream", "tier-2x2-4c-crash"):
        per_shard = raw[case]["per_shard"]
        assert sorted(per_shard) == ["0", "1"], case
        assert all(shard["log_records"] > 0 and shard["shipped_records"] > 0
                   for shard in per_shard.values()), case
    tier_crash = results["tier-2x2-4c-crash"]
    assert tier_crash["crashed_at_op"] == 401
    assert tier_crash["num_ops"] < 401             # blocked writers never acked
