"""Tests for the concurrent serving engine: latches, group commit,
snapshot reads, fairness, the commit-order oracle, and crash recovery."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_index
from repro.durability import FaultInjector, WriteAheadLog, recover, take_checkpoint
from repro.obs import Tracer
from repro.serving import LatchManager, ServingEngine, split_ops
from repro.storage import HDD, NULL_DEVICE, SSD, BlockDevice, Pager
from repro.workloads import run_workload


def _loaded(name="btree", n_bulk=300, profile=HDD, durable=False,
            group_commit=1, buffer_blocks=0, step=7, **params):
    """A bulk-loaded index over keys ``step, 2*step, ...`` (payload k+1)."""
    from repro.storage import make_buffer_pool

    pool = make_buffer_pool(buffer_blocks, "lru") if buffer_blocks else None
    pager = Pager(BlockDevice(4096, profile), buffer_pool=pool)
    index = make_index(name, pager, **params)
    bulk = [(k, k + 1) for k in range(step, step * (n_bulk + 1), step)]
    index.bulk_load(bulk)
    wal = None
    if durable:
        wal = WriteAheadLog(pager, group_commit=group_commit)
        index.attach_wal(wal)
    return index, bulk, wal


def _hot_leaf_ops(bulk, n_ops, insert_every, seed=3):
    """Every ``insert_every``-th op inserts a fresh key right after the
    first bulk key — all into the same leaf, so concurrent writers take
    exclusive latches on one frame; the rest are 99%-hot-key lookups of
    that key (snapshot reads: they never latch)."""
    hot_key, step = bulk[0][0], bulk[1][0] - bulk[0][0]
    rng = random.Random(seed)
    ops = []
    next_insert = hot_key + 1
    for i in range(n_ops):
        if i % insert_every == 0:
            if (next_insert - hot_key) % step == 0:
                next_insert += 1  # a bulk key: not fresh
            ops.append(("insert", next_insert))
            next_insert += 1
        elif rng.random() < 0.99:
            ops.append(("lookup", hot_key))
        else:
            ops.append(("lookup", rng.choice(bulk)[0]))
    return ops


def _mixed_ops(bulk, n_ops, insert_base, seed=11, insert_frac=0.5):
    """A random lookup/insert mix; insert keys are fresh and unique."""
    rng = random.Random(seed)
    ops = []
    next_insert = insert_base
    for _ in range(n_ops):
        if rng.random() < insert_frac:
            ops.append(("insert", next_insert))
            next_insert += 1
        else:
            ops.append(("lookup", rng.choice(bulk)[0]))
    return ops


# ---------------------------------------------------------------------------
# Latch manager unit tests
# ---------------------------------------------------------------------------

def test_shared_holds_are_compatible():
    latches = LatchManager()
    frame = ("leaf", 3)
    latches.hold(0, release_us=100.0, reads=[frame], writes=[])
    assert latches.wait_until(1, 10.0, reads=[frame], writes=[]) == 10.0


def test_exclusive_hold_blocks_readers_and_writers():
    latches = LatchManager()
    frame = ("leaf", 3)
    latches.hold(0, release_us=100.0, reads=[], writes=[frame])
    assert latches.wait_until(1, 10.0, reads=[frame], writes=[]) == 100.0
    assert latches.wait_until(1, 10.0, reads=[], writes=[frame]) == 100.0
    # ... but not its own session, and not after the release time.
    assert latches.wait_until(0, 10.0, reads=[frame], writes=[]) == 10.0
    assert latches.wait_until(1, 150.0, reads=[frame], writes=[]) == 150.0


def test_writer_waits_for_last_shared_reader():
    latches = LatchManager()
    frame = ("leaf", 9)
    latches.hold(0, release_us=50.0, reads=[frame], writes=[])
    latches.hold(1, release_us=80.0, reads=[frame], writes=[])
    assert latches.wait_until(2, 0.0, reads=[], writes=[frame]) == 80.0
    assert latches.wait_until(2, 0.0, reads=[frame], writes=[]) == 0.0


def test_write_subsumes_read_and_prune_drops_expired():
    latches = LatchManager()
    frame = ("leaf", 1)
    latches.hold(0, release_us=60.0, reads=[frame], writes=[frame])
    assert latches.wait_until(1, 0.0, reads=[frame], writes=[]) == 60.0
    latches.hold(1, release_us=90.0, reads=[("leaf", 2)], writes=[])
    latches.prune(70.0, force=True)
    # The exclusive hold (released at 60) is gone; the shared one remains.
    assert latches.wait_until(2, 0.0, reads=[frame], writes=[frame]) == 0.0
    assert latches.wait_until(2, 0.0, reads=[], writes=[("leaf", 2)]) == 90.0


def test_split_ops_round_robin():
    ops = [("lookup", k) for k in range(10)]
    streams = split_ops(ops, 3)
    assert [len(s) for s in streams] == [4, 3, 3]
    assert streams[0] == [("lookup", 0), ("lookup", 3), ("lookup", 6), ("lookup", 9)]
    assert split_ops(ops, 1) == [ops]
    with pytest.raises(ValueError):
        split_ops(ops, 0)


# ---------------------------------------------------------------------------
# Cross-client group commit
# ---------------------------------------------------------------------------

def test_group_commit_amortizes_flushes_across_clients():
    """At 64 clients the commit group fills from every session, so log
    flushes per committed write must drop at least 4x vs one client
    (the PR's acceptance bar; the engine typically does much better)."""
    ratios = {}
    for clients in (1, 64):
        index, bulk, _wal = _loaded(profile=SSD, durable=True)
        ops = _mixed_ops(bulk, 320, insert_base=10**6)
        res = run_workload(index, ops, client_ops=split_ops(ops, clients))
        assert res.clients == clients
        assert res.committed_writes == sum(1 for k, _ in ops if k == "insert")
        ratios[clients] = res.flushes_per_committed_write
    assert ratios[1] == pytest.approx(1.0)  # sync commit: one flush per write
    assert ratios[64] <= ratios[1] / 4.0


def test_commit_waits_are_client_perceived_not_device_time():
    index, bulk, _wal = _loaded(profile=SSD, durable=True)
    ops = _mixed_ops(bulk, 200, insert_base=10**6)
    res = run_workload(index, ops, client_ops=split_ops(ops, 16))
    assert res.commit_waits > 0
    # The device never idles waiting for an ack: commit wait is not a
    # storage phase, unlike latch stalls.
    assert "commit" not in res.time_by_phase_us
    assert res.mean_commit_group > 1.0
    assert res.commit_groups < res.committed_writes


# ---------------------------------------------------------------------------
# Snapshot reads
# ---------------------------------------------------------------------------

def test_snapshot_readers_charge_zero_latch_wait():
    index, bulk, _wal = _loaded(profile=HDD, durable=True)
    ops = _mixed_ops(bulk, 240, insert_base=10**6, insert_frac=0.5)
    streams = split_ops(ops, 16)
    res = run_workload(index, ops, client_ops=streams)
    assert res.snapshot_reads == sum(1 for kind, _ in ops if kind == "lookup")
    # Only writes wait on a latch: each stalled op is one of its
    # client's inserts, and writers do contend with each other.
    assert res.latch_waits > 0
    for client_id, client in res.per_client.items():
        inserts = sum(1 for kind, _ in streams[client_id] if kind == "insert")
        assert client["snapshot_reads"] == len(streams[client_id]) - inserts
        assert client["latch_waits"] <= inserts


def test_latch_stats_reconcile_with_device_and_trace():
    index, bulk, _wal = _loaded(profile=HDD, durable=True)
    tracer = Tracer()
    index.attach_tracer(tracer)
    ops = _hot_leaf_ops(bulk, 240, insert_every=2)
    res = run_workload(index, ops, client_ops=split_ops(ops, 16))
    stats = index.pager.device.stats
    assert res.latch_waits > 0  # the hot leaf's writers really did contend
    assert res.latch_waits == stats.latch_waits
    assert res.latch_wait_us == pytest.approx(stats.latch_wait_us)
    assert stats.time_by_phase["latch"] == pytest.approx(res.latch_wait_us)
    assert tracer.totals()["us"]["latch"] == pytest.approx(res.latch_wait_us)
    spans = [record for record in tracer.iter_records()
             if record["type"] not in ("summary", "background")]
    assert sum(span["latch_waits"] for span in spans) == res.latch_waits
    assert "latch" in res.phase_latency_histograms
    assert res.client_phase_histograms  # per-client digests exist when traced
    index.detach_tracer()


# ---------------------------------------------------------------------------
# Fairness / starvation
# ---------------------------------------------------------------------------

def test_no_session_starves_under_hot_key_skew():
    """Inserts into one hot leaf and 99%-hot-key lookups pile every
    client onto the same frames; the min-virtual-time scheduler must
    still cycle through all sessions."""
    clients = 16
    index, bulk, _wal = _loaded(profile=HDD)
    ops = _hot_leaf_ops(bulk, clients * 20, insert_every=3)
    # No WAL: writes acknowledge on apply, so dispatch gaps measure the
    # scheduler alone (commit waits would legitimately widen them).
    res = run_workload(index, ops, client_ops=split_ops(ops, clients),
                       keep_latencies=True)
    assert res.num_ops == len(ops)
    assert res.latch_waits > 0  # the hot frame really did contend
    base_op_us = min(us for us in res.latencies_us if us > 0)
    for client in res.per_client.values():
        assert client["ops"] == 20  # every session finished its stream
        gap = client["max_dispatch_gap"]
        assert gap is not None
        # Fair queuing: a session sits out only while repaying virtual
        # time it already consumed, so its dispatch gap is bounded by
        # the other sessions' ops that fit inside its own stall time —
        # never unboundedly (starvation would be an unbounded gap).
        stall_rounds = client["latch_wait_us"] / base_op_us
        assert gap <= clients * (2 + stall_rounds)
        if client["latch_waits"] == 0:
            assert gap <= 2 * clients


def test_every_session_completes_with_writers_blocked_on_commit():
    """With group commit in play a writer's dispatch gap includes its
    commit wait, so fairness is asserted as completion: every session
    drains its queue even with its writers contending on one hot leaf
    under 99%-hot-key read skew."""
    clients = 16
    index, bulk, _wal = _loaded(profile=HDD, durable=True)
    ops = _hot_leaf_ops(bulk, clients * 20, insert_every=3)
    res = run_workload(index, ops, client_ops=split_ops(ops, clients))
    assert res.latch_waits > 0
    assert res.num_ops == len(ops)
    assert all(c["ops"] == 20 for c in res.per_client.values())
    assert res.committed_writes == sum(1 for k, _ in ops if k == "insert")


# ---------------------------------------------------------------------------
# Commit-order oracle (property)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    choices=st.lists(st.tuples(st.booleans(), st.integers(0, 49)),
                     min_size=1, max_size=60),
    clients=st.integers(1, 5),
)
def test_interleaving_matches_commit_order_oracle(choices, clients):
    """The served index must equal an oracle that applies exactly the
    committed writes, in commit order, to the same bulk load — for any
    op mix and client count."""
    bulk = [(k, k + 1) for k in range(10, 510, 10)]
    pager = Pager(BlockDevice(4096, NULL_DEVICE))
    index = make_index("btree", pager)
    index.bulk_load(bulk)
    wal = WriteAheadLog(pager, group_commit=1)
    index.attach_wal(wal)

    ops = []
    next_insert = 10_000
    for is_insert, pick in choices:
        if is_insert:
            ops.append(("insert", next_insert))
            next_insert += 1
        else:
            ops.append(("lookup", bulk[pick][0]))
    engine = ServingEngine(index, split_ops(ops, clients), validate=True)
    report = engine.run()
    assert report.executed == len(ops)
    # Commit order is seqno order: groups flush oldest-first.
    seqnos = [s for s, _, _ in report.committed]
    assert seqnos == sorted(seqnos)

    oracle_pager = Pager(BlockDevice(4096, NULL_DEVICE))
    oracle = make_index("btree", oracle_pager)
    oracle.bulk_load(bulk)
    for _seqno, key, payload in report.committed:
        oracle.insert(key, payload)
    assert index.scan(0, 10_000) == oracle.scan(0, 10_000)


# ---------------------------------------------------------------------------
# Crash under concurrency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("crash_at", [5, 37, 120])
def test_crash_recovers_to_cross_client_committed_prefix(crash_at):
    """Crash mid-schedule with 8 clients: recovery must rebuild exactly
    the acknowledged (group-committed) writes — nothing more, nothing
    less — regardless of which sessions' ops were in flight."""
    index, bulk, wal = _loaded(profile=SSD, durable=True)
    checkpoint = take_checkpoint(index, wal)
    ops = _mixed_ops(bulk, 200, insert_base=10**6)
    injector = FaultInjector(crash_at_op=crash_at)
    engine = ServingEngine(index, split_ops(ops, 8),
                           fault_injector=injector)
    report = engine.run()
    assert report.crashed_at_op == crash_at
    assert report.executed < len(ops)

    recovered = recover(checkpoint, wal)
    oracle_pager = Pager(BlockDevice(4096, SSD))
    oracle = make_index("btree", oracle_pager)
    oracle.bulk_load(bulk)
    for _seqno, key, payload in report.committed:
        oracle.insert(key, payload)
    assert recovered.index.scan(0, 10**9) == oracle.scan(0, 10**9)
    # Every acknowledged write survived; unacknowledged ones are absent.
    committed_keys = {key for _s, key, _p in report.committed}
    for key in committed_keys:
        assert recovered.index.lookup(key) == key + 1


def test_crash_through_run_workload_reports_crash_point():
    index, bulk, _wal = _loaded(profile=SSD, durable=True)
    ops = _mixed_ops(bulk, 120, insert_base=10**6)
    injector = FaultInjector(crash_at_op=40)
    res = run_workload(index, ops, client_ops=split_ops(ops, 8),
                       fault_injector=injector)
    assert res.crashed_at_op == 40
    assert res.num_ops < len(ops)


# ---------------------------------------------------------------------------
# Single-client parity with the legacy path
# ---------------------------------------------------------------------------

def test_default_call_never_enters_serving(monkeypatch):
    """clients=1 with no client_ops must execute the original code path
    (the seed's single-stream runner), not the serving engine."""
    import repro.serving as serving_mod

    def _boom(*args, **kwargs):
        raise AssertionError("serving path entered")

    monkeypatch.setattr(serving_mod, "ServingEngine", _boom)
    index, bulk, _wal = _loaded(profile=SSD)
    ops = _mixed_ops(bulk, 60, insert_base=10**6)
    res = run_workload(index, ops)
    assert res.clients == 1 and res.per_client == {}
    with pytest.raises(AssertionError, match="serving path entered"):
        run_workload(index, ops, clients=2)  # the patch point is live


def test_snapshot_reads_never_serve_stale_cached_frames():
    """Regression for the pager's per-frame caches (DESIGN.md §15): under
    concurrent serving, writers rewrite leaf frames between snapshot
    reads, and a frame's cached parse (here the transcoded image of a
    compressed B+-tree leaf; the raw layout is searched in place and
    caches nothing) must be dropped by the write path and the
    buffer-pool eviction hooks instead of being served.  A staleness bug
    surfaces here as a wrong payload — either in the validated
    concurrent phase or in the final sweep, which runs over the same
    warm caches the writers just invalidated."""
    index, bulk, _wal = _loaded(profile=HDD, durable=True,
                                buffer_blocks=64, codec="for")
    pager = index.pager
    keys = [k for k, _p in bulk]
    # Warm the parsed-frame caches with a batched sweep.
    assert index.lookup_many(keys) == [k + 1 for k in keys]
    assert pager._meta_cache
    for round_no in range(3):
        ops = _mixed_ops(bulk, 200, insert_base=(round_no + 1) * 10**6,
                         insert_frac=0.5, seed=round_no)
        res = run_workload(index, ops, client_ops=split_ops(ops, 8),
                           validate=True)
        assert res.snapshot_reads > 0
        # The sweep after each concurrent round runs over the same warm
        # caches the round's writers just had to invalidate.
        keys = sorted(set(keys) | {key for kind, key in ops
                                   if kind == "insert"})
        assert index.lookup_many(keys) == [k + 1 for k in keys]
    assert pager._meta_cache


@pytest.mark.parametrize("durable", [False, True], ids=["no-wal", "wal-group-8"])
def test_single_session_matches_legacy_metrics(durable):
    """One session, no conflicts: without a WAL the serving path must
    charge the device identically to the single stream — same elapsed
    time, same block counts, same latencies.  With a WAL (group commit 8)
    the read side stays equal but the log does not, which is why the two
    loops are two: the stream commits asynchronously, one flush per eight
    writes, while the engine's only client blocks on each write until it
    is durable — one flush per write (DESIGN.md Section 13)."""
    ops = None
    results = {}
    for mode in ("legacy", "serving"):
        index, bulk, _wal = _loaded(profile=HDD, buffer_blocks=32,
                                    durable=durable, group_commit=8)
        if ops is None:
            ops = _mixed_ops(bulk, 100, insert_base=10**6)
        if mode == "legacy":
            results[mode] = run_workload(index, ops, keep_latencies=True)
        else:
            results[mode] = run_workload(index, ops, client_ops=[ops],
                                         keep_latencies=True)
    legacy, serving = results["legacy"], results["serving"]
    assert serving.blocks_read_per_op == legacy.blocks_read_per_op
    assert serving.reads_by_phase == legacy.reads_by_phase
    assert serving.latch_waits == 0
    if durable:
        writes = sum(1 for kind, _key in ops if kind == "insert")
        assert legacy.log_records == serving.log_records == writes
        assert legacy.log_flushes == -(-writes // 8)
        assert serving.log_flushes == serving.committed_writes == writes
        assert serving.sim_elapsed_us > legacy.sim_elapsed_us
        return
    assert serving.sim_elapsed_us == legacy.sim_elapsed_us
    assert serving.blocks_written_per_op == legacy.blocks_written_per_op
    np.testing.assert_array_equal(serving.latencies_us, legacy.latencies_us)
    assert serving.time_by_phase_us == legacy.time_by_phase_us


def test_workload_split_serves_full_stream():
    """run_workload(clients=N) splits ops round-robin and executes all."""
    index, bulk, _wal = _loaded(profile=SSD, durable=True)
    res = run_workload(index, _mixed_ops(bulk, 150, insert_base=10**7),
                       clients=5)
    assert res.clients == 5
    assert res.num_ops == 150
    assert set(res.per_client) == set(range(5))
