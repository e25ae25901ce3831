"""Unit tests for the sharded tier: partition geometry, router
accounting, the tier's answers from its members, tuner scoring, and the
runner/serving integration surface."""

import itertools
from dataclasses import replace

import pytest

from repro.core import make_sharded_index
from repro.durability import FaultInjector
from repro.sharding import (
    COST_TABLE,
    KEYSPACE_END,
    RangePartition,
    ShardTuner,
    combine_stats,
)
from repro.storage import NULL_DEVICE, StorageStats
from repro.workloads import run_workload

from tests.util import items_of, make_sharded, random_sorted_keys


# -- partition geometry ------------------------------------------------------

def test_partition_validates_boundaries():
    with pytest.raises(ValueError):
        RangePartition([5, 5])
    with pytest.raises(ValueError):
        RangePartition([9, 3])
    with pytest.raises(ValueError):
        RangePartition([0])
    with pytest.raises(ValueError):
        RangePartition([KEYSPACE_END])


def test_partition_ranges_tile_the_keyspace():
    partition = RangePartition([100, 5000, 70000])
    assert partition.num_shards == 4
    ranges = [partition.range_of(i) for i in range(4)]
    assert ranges[0] == (0, 100)
    assert ranges[-1] == (70000, KEYSPACE_END)
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo
    assert partition.shard_of(99) == 0
    assert partition.shard_of(100) == 1
    assert partition.shard_of(KEYSPACE_END - 1) == 3


def test_partition_from_keys_quantiles():
    keys = list(range(0, 1000, 10))
    partition = RangePartition.from_keys(keys, 4)
    assert partition.num_shards == 4
    sizes = [len([k for k in keys
                  if partition.range_of(i)[0] <= k < partition.range_of(i)[1]])
             for i in range(4)]
    assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        RangePartition.from_keys([1, 2], 4)


# -- router fan-out ----------------------------------------------------------

def test_router_counts_fanout_and_boundary_scans():
    keys = list(range(0, 3000, 3))
    index = make_sharded("btree", boundaries=[1000, 2000])
    index.bulk_load(items_of(keys))
    # fans to all three shards; answers keep batch order and duplicates
    assert index.lookup_many([3, 1002, 2001, 3, 4]) == [4, 1003, 2002, 4, None]
    assert index.scan_range(990, 1010) == [     # crosses one boundary
        (k, k + 1) for k in range(990, 1010, 3)]
    assert index.scan_range(0, 5) == [(0, 1), (3, 4)]
    # scan() crossing a boundary by count exhaustion
    got = index.scan(994, 5)
    assert got == [(k, k + 1) for k in (996, 999, 1002, 1005, 1008)]


# -- the tier's answers from its members -------------------------------------

def test_combine_stats_sums_fields_and_merges_phases():
    a = StorageStats(reads=3, elapsed_us=10.0,
                     reads_by_phase={"search": 3})
    b = StorageStats(reads=2, writes=4, elapsed_us=5.0,
                     reads_by_phase={"search": 1, "log": 1},
                     writes_by_phase={"log": 4})
    total = combine_stats([a, b])
    assert total.reads == 5 and total.writes == 4
    assert total.elapsed_us == 15.0
    assert total.reads_by_phase == {"search": 4, "log": 1}
    assert total.writes_by_phase == {"log": 4}


def test_tier_stats_and_prefixed_files():
    keys = random_sorted_keys(300, seed=1, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=2)
    index.bulk_load(items_of(keys))
    per_member = sum(m.device.stats.reads for s in index.shards
                     for m in s.members())
    assert index.storage_stats().reads == per_member
    assert list(index.pagers()) == ["s0:", "s0r1:", "s1:", "s1r1:"]
    names = {prefix + name for prefix, pager in index.pagers().items()
             for name in pager.device.files}
    roles = index.file_roles()
    assert roles and set(roles) <= names
    # the combined stats are a copy: snapshot/diff work on them
    snap = index.storage_stats().snapshot()
    index.lookup(keys[0])
    assert index.storage_stats().diff(snap).reads >= 0


def test_fanout_hook_prefixes_shard_names():
    keys = random_sorted_keys(200, seed=2, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys)
    index.bulk_load(items_of(keys))
    seen = []
    with index.access_hook(lambda mode, name, block_no: seen.append(name)):
        index.lookup(keys[0])
        index.lookup(keys[-1])
    prefixes = {name.split(":", 1)[0] for name in seen}
    assert prefixes == {"s0", "s1"}
    assert all(p.on_block_access is None for p in index.pagers().values())


def test_tier_logs_label_records_with_their_shards_seqnos():
    keys = random_sorted_keys(100, seed=3, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=100)
    index.bulk_load(items_of(keys))
    s0 = [2 * k + 2 for k in range(3)]                  # shard 0 keys
    s1 = [keys[-1] + 2 * k + 2 for k in range(3)]       # shard 1 keys
    order = [s0[0], s1[0], s0[1], s1[1], s0[2], s1[2]]
    with index.manual_commit():       # engine-style: appends never autoflush
        assert [index.log("insert", key, 1) for key in order] == [1, 1, 2, 2, 3, 3]
        assert all(wal.group_commit == 2 ** 62 for wal in index.logs())
        index.shards[0].wal.flush()   # shard 0 durable, shard 1 not
        assert index.durable_seqno(s0[0]) == 3
        assert index.durable_seqno(s1[0]) == 0
        for wal in index.logs():
            wal.flush()
        assert index.durable_seqno(s1[2]) == 3
    assert [wal.group_commit for wal in index.logs()] == [100, 100]
    # durable updates and deletes log to the owning shard too
    assert index.durable_update(keys[0], 2) and index.durable_delete(keys[-1])
    assert [wal.records_appended for wal in index.logs()] == [4, 4]


def test_tier_flush_orders_log_before_data():
    keys = random_sorted_keys(200, seed=4, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         buffer_blocks=32, write_back=True)
    index.bulk_load(items_of(keys))
    index.flush()                     # clear bulk-load dirt
    index.durable_insert(10**6 + 3, 1)
    pagers = index.pagers().values()
    assert sum(p.dirty_blocks for p in pagers) > 0
    written = index.flush()
    assert written > 0
    assert sum(p.dirty_blocks for p in pagers) == 0
    # log flushed ahead of the pages
    assert all(shard.wal.pending == 0 for shard in index.shards)


def test_attach_wal_and_tracer_are_rejected():
    index = make_sharded("btree", 2, boundaries=[100])
    with pytest.raises(NotImplementedError):
        index.attach_wal(object())
    with pytest.raises(NotImplementedError):
        index.attach_tracer(object())


# -- replication -------------------------------------------------------------

def test_writes_ship_to_replicas_and_reads_fan_out():
    keys = random_sorted_keys(200, seed=5, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=3)
    index.bulk_load(items_of(keys))
    shard = index.shards[0]
    new_key = 10**6 + 1
    assert index.partition.shard_of(new_key) == 1
    index.insert(2, 99)               # shard 0
    assert index.shards[0].shipped_records == 2   # two replicas
    for _ in range(9):
        index.lookup(2)
    assert [m.reads_served for m in shard.members()] == [3, 3, 3]
    # Replicas really hold the write (they answer reads).
    for member in shard.members():
        assert member.index.lookup(2) == 99


# -- tuner -------------------------------------------------------------------

def test_tuner_scoring_matches_cost_table():
    tuner = ShardTuner()
    mix = {"lookup": 90, "insert": 10}
    scores = tuner.score(mix)
    expected = (90 * COST_TABLE["btree"]["lookup"]
                + 10 * COST_TABLE["btree"]["insert"]) / 100
    assert scores["btree"] == pytest.approx(expected)
    assert scores["hybrid-alex"] == float("inf")   # read-only class
    assert tuner.choose({"lookup": 100}) == "hybrid-alex"
    assert tuner.choose({"insert": 100}) == "btree"


def test_tuner_convert_preserves_content_and_durability():
    keys = random_sorted_keys(300, seed=6, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=1)
    index.bulk_load(items_of(keys))
    index.durable_insert(10**6 + 7, 3)
    shard = index.shards[0]
    old_next = shard.wal.next_seqno
    with shard.primary.index._free_io():
        before = shard.primary.index.scan_range(0, KEYSPACE_END - 1)
    ShardTuner().convert(shard, "alex")
    assert shard.index_name == "alex"
    assert shard.primary.index.name == "alex"
    with shard.primary.index._free_io():
        assert shard.primary.index.scan_range(0, KEYSPACE_END - 1) == before
    assert shard.wal is not None and shard.wal.next_seqno == old_next
    index.durable_insert(2, 8)        # the tier still logs and serves
    assert index.lookup(2) == 8


# -- construction and integration -------------------------------------------

def test_factory_validation():
    with pytest.raises(ValueError):
        make_sharded_index("btree")                    # no shard count
    with pytest.raises(ValueError):
        make_sharded_index(["btree", "alex"], 3)       # mismatched count
    with pytest.raises(ValueError):
        make_sharded_index("btree", 3, boundaries=[5])  # 2 ranges, not 3
    with pytest.raises(ValueError):
        make_sharded_index("btree", 2, replicas=0)
    with pytest.raises(ValueError):
        make_sharded_index("btree", 2, boundaries=[5],
                           replica_policy="nosuch")
    with pytest.raises(ValueError):                     # reads rotate only
        make_sharded_index("btree", 2, replica_policy="primary")
    # Even keyspace split when no sample is given.
    index = make_sharded_index("btree", 4, profile=NULL_DEVICE)
    assert index.partition.num_shards == 4


def test_runner_topology_validation_and_per_shard_stats():
    keys = random_sorted_keys(200, seed=9, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=2,
                         durability=True)
    index.bulk_load(items_of(keys))
    ops = [("lookup", keys[0]), ("lookup", keys[-1]),
           ("insert", 10**6 + 1), ("scan", keys[0])]
    result = run_workload(index, ops, workload="t")
    assert result.shards == 2 and result.replicas == 2
    assert sorted(result.per_shard) == [0, 1]
    total_ops = sum(sum(d["ops"].values()) for d in result.per_shard.values())
    assert total_ops == len(ops)
    assert result.per_shard[1]["log_records"] == 1
    assert result.per_shard[1]["shipped_records"] == 1
    assert result.log_records == 1
    # An unsharded index reports the 1/1 topology.
    from repro.storage import BlockDevice, Pager
    from repro.core import make_index
    flat = make_index("btree", Pager(BlockDevice(4096, NULL_DEVICE)))
    flat.bulk_load(items_of(keys))
    r = run_workload(flat, [("lookup", keys[0])])
    assert r.shards == 1 and r.replicas == 1 and r.per_shard == {}


def test_serving_engine_over_the_tier():
    keys = random_sorted_keys(400, seed=10, key_space=10**6)
    index = make_sharded("btree", 3, sample_keys=keys, durability=True,
                         replicas=2)
    index.bulk_load(items_of(keys))
    ops = []
    for i in range(120):
        if i % 5 == 0:
            ops.append(("insert", 10**6 + 1 + 2 * i))
        else:
            ops.append(("lookup", keys[(7 * i) % len(keys)]))
    result = run_workload(index, ops, workload="serve", clients=4,
                          validate=True)
    assert result.num_ops == 120
    assert result.clients == 4
    assert result.committed_writes == 24
    assert result.snapshot_reads > 0
    assert result.shards == 3 and result.replicas == 2
    assert sum(sum(d["ops"].values()) for d in result.per_shard.values()) == 120
    index.verify()


# -- tier edge paths ---------------------------------------------------------


def test_tier_latch_charge_and_flush():
    # Default (HDD) profile and enough keys for multi-level shard trees:
    # reads must actually charge for the phase-accounting assertion below.
    keys = random_sorted_keys(4000, seed=71, key_space=10**7)
    index = make_sharded_index("btree", 2, sample_keys=keys,
                               durability=True, replicas=2,
                               buffer_blocks=4, write_back=True)
    index.bulk_load(items_of(keys))
    # The latch charge lands on one canonical device but shows in the sum.
    index.charge_latch_wait(4.0)
    assert index.shards[0].primary.device.stats.latch_waits == 1
    assert index.storage_stats().latch_waits == 1
    assert index.storage_stats().latch_wait_us == 4.0
    # A durable insert's log record and page reach the device at the
    # tier flush.
    before = index.storage_stats().snapshot()
    index.durable_insert(10**7 + 3, 1)
    assert index.flush() > 0
    delta = index.storage_stats().diff(before)
    assert delta.writes_by_phase["log"] > 0
    assert delta.writes > delta.writes_by_phase["log"]


def test_tier_optional_hooks_and_free_io():
    keys = random_sorted_keys(200, seed=72, key_space=10**6)
    index = make_sharded(["btree", "alex"], sample_keys=keys,
                         buffer_blocks=8)
    index.bulk_load(items_of(keys))
    assert index.height() >= 1
    assert sum(p.dirty_evictions for p in index.pagers().values()) == 0
    index.set_inner_memory_resident(True)
    before = index.storage_stats().snapshot()
    with index._free_io():
        assert index.lookup_many(keys[:16]) == [k + 1 for k in keys[:16]]
    assert index.storage_stats().diff(before).reads == 0
    index.set_inner_memory_resident(False)


def test_fanout_wal_crash_surface_and_mixed_durability():
    keys = random_sorted_keys(200, seed=73, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=2)
    index.bulk_load(items_of(keys))
    for key in (10**6 + 1, 1, 10**6 + 3):
        index.durable_insert(key, 1)
    # Whole-tier power loss: every log's tail goes, every log is torn.
    report = FaultInjector(torn_tail=True).crash(
        index.logs(), pagers=index.pagers().values())
    assert report.dropped_records == 1 and report.torn_block
    assert all(wal.pending == 0 for wal in index.logs())
    assert [r.seqno for r in index.shards[0].wal.durable_records()] == []
    # A shard stripped of durability refuses the tier-level append.
    index.shards[0].spec = replace(index.shards[0].spec, group_commit=0)
    index.shards[0].wal = None
    assert len(index.logs()) == 1
    with pytest.raises(RuntimeError):
        index.log("insert", 1, 3)


def test_tier_and_router_validate_shard_count():
    from repro.sharding import Router, ShardedIndex
    keys = random_sorted_keys(100, seed=74, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys)
    with pytest.raises(ValueError):
        ShardedIndex(index.shards[:1], index.partition)
    with pytest.raises(ValueError):
        Router(index.partition, index.shards[:1])


def test_per_shard_delta_counts_reseeded_replicas_whole():
    keys = random_sorted_keys(200, seed=75, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=2)
    index.bulk_load(items_of(keys))
    snap = index.per_shard_snapshot()
    # Pretend the snapshot predates the second member (a replica
    # re-seeded after recovery): its full stats are its own delta.
    # Snapshots key by member identity, so dropping the entry is
    # exactly what a swapped-in fresh member looks like.
    replaced = index.shards[0].replicas[0]
    del snap[0]["stats"][id(replaced)]
    del snap[0]["reads_served"][id(replaced)]
    index.lookup_many(keys[:10])
    delta = index.per_shard_delta(snap)
    assert len(delta[0]["reads_served"]) == 2
    assert delta[0]["reads"] >= 0


# -- partition and shard edge paths ------------------------------------------


def test_partition_edge_validation():
    keys = list(range(0, 1000, 10))
    with pytest.raises(ValueError):
        RangePartition.from_keys(keys, 0)
    assert RangePartition.from_keys(keys, 1).boundaries == []
    with pytest.raises(ValueError):
        RangePartition.from_keys([7] * 8, 4)  # clustered sample
    p = RangePartition([500])
    with pytest.raises(ValueError):
        p.shard_of(-1)
    with pytest.raises(ValueError):
        p.shard_of(KEYSPACE_END)
    with pytest.raises(IndexError):
        p.range_of(2)
    assert p.split_range(10, 5) == []
    assert "RangePartition" in repr(p)


def test_shard_contents_log_and_flush():
    keys = random_sorted_keys(100, seed=76, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=2,
                         durability=True)
    index.bulk_load(items_of(keys))
    shard = index.shards[0]
    lo, hi = index.partition.range_of(0)
    assert shard.primary.index.scan_range(0, 2**64 - 1) == [
        (k, k + 1) for k in keys if lo <= k < hi]
    with pytest.raises(ValueError):
        shard.apply("upsert", 1, 2)
    shard.append_log("insert", keys[0], 9)
    assert shard.flush() >= 0
    assert shard.wal.pending == 0


def test_shard_verify_rejects_divergence_and_strays():
    keys = random_sorted_keys(100, seed=77, key_space=10**6)
    index = make_sharded("btree", 2, sample_keys=keys, replicas=2)
    index.bulk_load(items_of(keys))
    boundary = index.partition.boundaries[0]
    # A key outside the shard's range fails the ownership check.
    index.shards[0].primary.index.insert(boundary + 5, 1)
    with pytest.raises(AssertionError):
        index.shards[0].verify(key_range=index.partition.range_of(0))
    # A primary-only write (no shipping) fails replica agreement.
    index.shards[1].primary.index.insert(boundary + 7, 1)
    with pytest.raises(AssertionError):
        index.shards[1].verify()


def test_tuner_scores_empty_mix_by_lookup_cost():
    scores = ShardTuner().score({})
    assert scores["hybrid-alex"] == float("inf")
    assert scores["btree"] == COST_TABLE["btree"]["lookup"]
    choice = ShardTuner().choose({})
    assert choice != "hybrid-alex"


def test_tier_clock_accessor_is_bit_identical_to_combined_stats():
    """``clock().elapsed_us`` (read by the runner and the serving engine
    around every op) must equal ``storage_stats().elapsed_us`` to the
    last bit: same float additions in the same order — live members,
    then retired ones."""
    from repro.stack import StackSpec, build
    from repro.storage import HDD, DeviceFaultModel

    keys = random_sorted_keys(3000, seed=5, key_space=10**9)
    tier = make_sharded_index("btree", 3, replicas=2, durability=True,
                              group_commit=2, profile=HDD,
                              sample_keys=keys)
    tier.bulk_load(items_of(keys))
    clock = tier.clock()
    for i, key in enumerate(keys[::7]):
        assert tier.lookup(key) == key + 1
        tier.insert(10**9 + 3 * i + 1, 10**9 + 3 * i + 2)
        assert clock.elapsed_us == tier.storage_stats().elapsed_us
    # Retire a member's stats: taint a replica on the write path, re-seed it.
    shard = tier.shards[1]
    victim = shard.replicas[0]
    victim.device.fault_model = DeviceFaultModel(seed=7, crash_after=0)
    low = shard.primary.index.scan(0, 1)[0][0]
    for i in range(8):
        tier.insert(low + 2 * i + 1, 0)
    assert victim.tainted
    victim.device.fault_model.clear_crash()
    assert shard.rejoin(victim) == "reseed" and shard.retired_stats
    for key in keys[::11]:
        tier.lookup(key)
    assert clock.elapsed_us == tier.storage_stats().elapsed_us > 0.0
    # A flat index's clock is its device's live stats.
    flat = build(StackSpec("btree"), items_of(keys)).index
    assert flat.clock() is flat.storage_stats() is flat.pager.device.stats


#: (index, buffer_blocks, write_back, group_commit): the 1x1 tier's
#: storage settings.  Write-back without a pool is not a stack.
ONE_SHARD_CASES = list(itertools.product(("btree", "alex"), (0, 64),
                                         (False, True), (0, 8)))


@pytest.mark.parametrize(
    "index, buffer_blocks, write_back, group_commit", ONE_SHARD_CASES,
    ids=[f"{name}-pool{pool}-{'wb' if wb else 'wt'}-gc{gc}"
         for name, pool, wb, gc in ONE_SHARD_CASES])
def test_one_shard_tier_charges_exactly_the_flat_index(
        index, buffer_blocks, write_back, group_commit):
    """Same dataset, op stream and stack settings: the router's dispatch
    and the tier's answers from its members are pure accounting, so a
    1-shard tier charges bit-identically what the flat stack charges —
    pool or none, write-back or through, logged or not."""
    from repro.bench import Scale, fresh_index
    from repro.stack import StackSpec

    settings = dict(buffer_blocks=buffer_blocks, write_back=write_back,
                    group_commit=group_commit)
    if write_back and not buffer_blocks:
        with pytest.raises(ValueError):
            StackSpec(index, **settings)
        return
    scale = Scale(n_read=4000, n_write_bulk=2000, n_write_ops=600,
                  n_lookup_ops=100, n_scan_ops=20)
    spec = StackSpec(index, **settings)
    flat = fresh_index(spec, "ycsb", "balanced", scale)
    tier = fresh_index(replace(spec, shards=1), "ycsb", "balanced", scale)
    assert flat.ops == tier.ops
    assert flat.bulkload_us == tier.bulkload_us
    res_flat = run_workload(flat.index, flat.ops, workload="parity")
    res_tier = run_workload(tier.index, tier.ops, workload="parity")
    for field in ("read_positionings", "write_positionings",
                  "blocks_read_per_op", "blocks_written_per_op",
                  "log_records", "log_flushes", "sim_elapsed_us"):
        assert getattr(res_flat, field) == getattr(res_tier, field), field
    assert res_flat.write_positionings > 0
    assert (res_flat.log_flushes > 0) == (group_commit > 0)
