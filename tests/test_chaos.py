"""Fault-tolerant serving: fault forks, member health, failover, hedged
reads, resync/reseed rejoin, shedding — and determinism.

The chaos machinery's contract has three legs (DESIGN.md Section 17):

1. **Zero lost acknowledged writes** — a crash, quarantine or failover
   never loses a write whose commit was acknowledged.
2. **Clean-path identity** — with no fault model attached (or a
   zero-rate one), every counter and every charged microsecond is
   bit-identical to a tier built without any of the machinery.
3. **Determinism** — one chaos seed fixes the entire run: fault
   schedule, failovers, hedges, sheds and all charged I/O reproduce
   exactly across runs, at any client count.
"""

import random

import pytest

from repro.serving import ServingEngine, split_ops
from repro.sharding import Shard
from repro.stack import StackSpec
from repro.storage import (HDD, NULL_DEVICE, BlockDevice, DeviceFaultModel,
                           MemberCrashError, MemberStallError, Pager,
                           PersistentIOError)
from repro.workloads import run_workload

from tests.util import items_of, make_sharded, random_sorted_keys

KEY_SPACE = 10**9


def _draws(model, n=20):
    return [model.rng.random() for _ in range(n)]


def _durable_shard(replicas=3, n=1200, seed=3, **kwargs):
    keys = random_sorted_keys(n, seed=seed, key_space=KEY_SPACE)
    shard = Shard(0, StackSpec("btree", group_commit=2, profile=NULL_DEVICE,
                               **kwargs), replicas=replicas)
    shard.bulk_load(items_of(keys))
    return shard, keys


# ---------------------------------------------------------------------------
# Fault model: forks, crash, stall, exclusions
# ---------------------------------------------------------------------------

def test_fork_is_deterministic_and_independent():
    parent = DeviceFaultModel(seed=9, transient_error_rate=0.3,
                              bit_rot_rate=0.1, stall_rate=0.05,
                              stall_us=40.0)
    # Same member id -> identical child schedule; siblings -> independent.
    assert _draws(parent.fork(1)) == _draws(parent.fork(1))
    assert _draws(parent.fork(1)) != _draws(parent.fork(2))
    # Children inherit rates but not the parent's stream.
    child = parent.fork(7)
    assert child.transient_error_rate == 0.3
    assert child.bit_rot_rate == 0.1
    assert child.stall_us == 40.0
    assert child.seed != parent.seed
    # Overrides replace any constructor parameter for one member.
    crashy = parent.fork(7, crash_after=5, transient_error_rate=0.0)
    assert crashy.crash_after == 5
    assert crashy.transient_error_rate == 0.0
    assert crashy.seed == child.seed  # same member, same stream


def test_crash_after_kills_the_whole_member_until_repaired():
    device = BlockDevice(4096, HDD)
    f = device.create_file("data")
    f.allocate(4)
    for block in range(4):
        device.write_block(f, block, bytes([block]) * 4096)
    device.fault_model = DeviceFaultModel(seed=1, crash_after=2)
    assert device.read_block(f, 0) == bytes([0]) * 4096
    assert device.read_block(f, 1) == bytes([1]) * 4096
    with pytest.raises(MemberCrashError):
        device.read_block(f, 2)
    # Not one bad block — the device is gone, block 0 included.
    with pytest.raises(MemberCrashError):
        device.read_block(f, 0)
    assert device.fault_model.crashed
    device.fault_model.clear_crash()
    assert device.read_block(f, 0) == bytes([0]) * 4096


def test_stalls_charge_the_hang_and_escalate_after_retries():
    from repro.storage.pager import MAX_READ_RETRIES

    device = BlockDevice(4096, HDD)
    pager = Pager(device)
    f = device.create_file("data")
    f.allocate(1)
    pager.write_block(f, 0, b"\x07" * 4096)
    pager.drop_last_block()
    device.fault_model = DeviceFaultModel(seed=2, stall_rate=1.0,
                                          stall_us=500.0)
    elapsed_before = device.stats.elapsed_us
    with pytest.raises(PersistentIOError):
        pager.read_block(f, 0)
    # Every attempt stalled: the initial read plus MAX_READ_RETRIES
    # redraws, each retry charging the 500us hang plus backoff.
    assert device.fault_model.injected_stalls == 1 + MAX_READ_RETRIES
    assert device.stats.io_retries == MAX_READ_RETRIES
    assert (device.stats.elapsed_us - elapsed_before
            >= MAX_READ_RETRIES * 500.0)


def test_excluded_files_are_never_faulted_nor_counted():
    device = BlockDevice(4096, HDD)
    wal_file = device.create_file("wal")
    wal_file.allocate(2)
    device.write_block(wal_file, 0, b"\x01" * 4096)
    device.fault_model = DeviceFaultModel(seed=3, transient_error_rate=1.0,
                                          crash_after=0)
    # The log survives its member's faults: no error, no crash, and the
    # read does not advance the crash_after countdown.
    assert device.read_block(wal_file, 0) == b"\x01" * 4096
    assert device.fault_model.reads_observed == 0
    assert not device.fault_model.crashed


# ---------------------------------------------------------------------------
# Member health state machine
# ---------------------------------------------------------------------------

def test_health_escalates_soft_strikes_and_jumps_on_hard():
    from repro.sharding import MemberHealth

    health = MemberHealth()
    assert health.state == "healthy"
    health.strike()
    assert health.state == "suspect"
    health.strike()
    assert health.state == "quarantined"
    health.reset()
    assert health.state == "healthy"
    assert health.faults_seen == 2  # reporting survives the rejoin
    # A hard strike (crash / write-path fault) quarantines immediately.
    health.strike(hard=True)
    assert health.state == "quarantined"


# ---------------------------------------------------------------------------
# Shard: hedged reads, failover, rejoin
# ---------------------------------------------------------------------------

def test_crashed_replica_is_quarantined_and_reads_hedge_around_it():
    shard, keys = _durable_shard(replicas=3)
    victim = shard.replicas[0]
    victim.device.fault_model = DeviceFaultModel(seed=4, crash_after=0)
    # Every key stays readable; the crash surfaces as one (or more)
    # hedged re-issues, never as a caller-visible error.
    for key in keys:
        assert shard.lookup(key) == key + 1
    assert shard.hedged_reads >= 1
    assert victim.health.state == "quarantined"
    assert not victim.tainted  # read-path crash: files are untouched
    assert shard.health_states() == ["healthy", "quarantined", "healthy"]
    # Quarantined members leave the rotation: no further observed reads.
    observed = victim.device.fault_model.reads_observed
    for key in keys[:20]:
        assert shard.lookup(key) == key + 1
    assert victim.device.fault_model.reads_observed == observed


def test_primary_crash_fails_over_with_zero_lost_acked_writes():
    shard, keys = _durable_shard(replicas=3)
    fresh = [KEY_SPACE + 2 * i + 1 for i in range(11)]
    for key in fresh:
        shard.apply("insert", key, key + 1)
    acked = shard.wal.durable_seqno
    assert acked == 10  # 11 records at group_commit=2
    old_primary = shard.primary
    old_primary.device.fault_model = DeviceFaultModel(seed=5, crash_after=0)
    before = shard.failovers

    # Drive reads until the rotation hands one to the primary.
    for key in keys + fresh:
        assert shard.lookup(key) == key + 1
    assert shard.failovers == before + 1
    assert shard.primary is not old_primary
    assert old_primary in shard.replicas
    assert old_primary.tainted  # a crashed primary can only re-seed
    # The log moved with the promotion, numbering unbroken.
    assert shard.wal.pager is shard.primary.pager
    assert shard.wal.durable_seqno == acked
    # Every acknowledged write survived the failover.
    for record in shard.wal.durable_records():
        assert shard.lookup(record.key) == record.payload
    # The shard keeps accepting durable writes on the new primary.
    next_key = KEY_SPACE + 1000
    shard.apply("insert", next_key, 99)
    shard.wal.flush()
    assert shard.lookup(next_key) == 99
    assert shard.wal.next_seqno == acked + 3


def test_rejoin_resyncs_untainted_members_and_reseeds_tainted_ones():
    shard, keys = _durable_shard(replicas=3)
    # Quarantine replica 0 through the read path: untainted.
    clean_victim = shard.replicas[0]
    clean_victim.device.fault_model = DeviceFaultModel(seed=6, crash_after=0)
    for key in keys:
        shard.lookup(key)
    assert clean_victim.health.state == "quarantined"
    # Quarantine replica 1 through the write path (_ship): tainted.
    dirty_victim = shard.replicas[1]
    dirty_victim.device.fault_model = DeviceFaultModel(seed=7, crash_after=0)
    missed = [KEY_SPACE + 2 * i + 1 for i in range(8)]
    for key in missed:
        shard.apply("insert", key, key + 1)
    assert dirty_victim.health.state == "quarantined"
    assert dirty_victim.tainted

    # Operator repairs both enclosures, then rejoins.
    clean_victim.device.fault_model.clear_crash()
    dirty_victim.device.fault_model.clear_crash()
    blocks_before = shard.resync_blocks
    assert shard.rejoin(clean_victim) == "resync"
    assert shard.resyncs == 1
    assert shard.resync_blocks > blocks_before  # charged log scan
    assert clean_victim.applied_seqno == shard.wal.current_lsn
    assert shard.rejoin(dirty_victim) == "reseed"
    assert shard.reseeds == 1
    # Both rejoined copies serve the missed writes; the tier verifies.
    assert shard.health_states() == ["healthy", "healthy", "healthy"]
    assert shard.verify() == len(keys) + len(missed)


def test_zero_rate_fault_model_is_charge_identical():
    """Leg 2 of the contract, at the shard level: attaching a zero-rate
    model must not change a single counter or charged microsecond."""
    def run(with_model):
        keys = random_sorted_keys(1200, seed=8, key_space=KEY_SPACE)
        shard = Shard(0, StackSpec("btree", group_commit=2, profile=HDD),
                      replicas=2)
        shard.bulk_load(items_of(keys))
        if with_model:
            parent = DeviceFaultModel(seed=9)
            for i, member in enumerate(shard.members()):
                member.device.fault_model = parent.fork(i)
        for key in keys:
            assert shard.lookup(key) == key + 1
        for i in range(20):
            shard.apply("insert", KEY_SPACE + 2 * i + 1, i + 1)
        shard.wal.flush()
        return [(m.device.stats.elapsed_us, m.device.stats.reads,
                 m.device.stats.writes, m.device.stats.read_positionings,
                 m.device.stats.io_retries, m.reads_served)
                for m in shard.members()]

    clean, armed = run(False), run(True)
    assert clean == armed


# ---------------------------------------------------------------------------
# Serving engine: shedding
# ---------------------------------------------------------------------------

def test_a_fault_no_member_can_absorb_sheds_the_op():
    keys = random_sorted_keys(2000, seed=12, key_space=KEY_SPACE)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=4, profile=HDD)
    index.bulk_load(items_of(keys))
    # With a single member per shard there is nowhere to re-issue a read
    # and no replica to fail over to: the fault escapes to the engine,
    # which sheds the op cleanly.
    for shard in index.shards:
        shard.primary.device.fault_model = DeviceFaultModel(
            seed=13, transient_error_rate=1.0)
    ops = [("lookup", key) for key in keys[:30]]
    res = run_workload(index, ops, client_ops=[ops])
    assert res.shed_ops == len(ops)
    # Every op was consumed (shed, not completed): the run terminated
    # instead of hanging or crashing on the unrecoverable member.
    assert res.num_ops + res.shed_ops == len(ops)


def test_serving_failover_acks_each_shards_log_and_restores_group_commit():
    """A durable 2x2 tier served to four clients while shard 1's primary
    crashes mid-run: the failover re-homes that shard's log, and the
    engine still acknowledges every write from its shard's current log,
    in that log's order, and hands the re-homed log its group commit
    back with the others."""
    keys = random_sorted_keys(2400, seed=21, key_space=KEY_SPACE)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=4, replicas=2, profile=HDD)
    index.bulk_load(items_of(keys))
    shard = index.shards[1]
    start_log = shard.wal
    shard.primary.device.fault_model = DeviceFaultModel(seed=5, crash_after=60)
    rng = random.Random(22)
    fresh = sorted(set(rng.sample(range(1, KEY_SPACE), 150)) - set(keys))
    rng.shuffle(fresh)
    ops = [("insert", fresh.pop()) if i % 3 == 0
           else ("lookup", rng.choice(keys)) for i in range(360)]
    report = ServingEngine(index, split_ops(ops, 4), validate=True).run()

    assert shard.failovers == 1 and shard.wal is not start_log
    assert [wal.group_commit for wal in index.logs()] == [4, 4]
    for each in index.shards:
        acked = [write for write in report.committed
                 if index.partition.shard_of(write[1]) == each.shard_id]
        durable = [(r.seqno, r.key, r.payload)
                   for r in each.wal.durable_records()]
        assert acked and acked == durable, each.shard_id


# ---------------------------------------------------------------------------
# Determinism (the chaos seed fixes the whole run)
# ---------------------------------------------------------------------------

def _chaos_run(clients, fault_seed=77):
    keys = random_sorted_keys(2400, seed=5, key_space=KEY_SPACE)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=4, replicas=2, profile=HDD)
    index.bulk_load(items_of(keys))
    parent = DeviceFaultModel(seed=fault_seed, transient_error_rate=5e-3,
                              bit_rot_rate=2e-3, stall_rate=2e-3,
                              stall_us=100.0)
    for shard in index.shards:
        shard.replicas[0].device.fault_model = parent.fork(shard.shard_id + 1)
    rng = random.Random(31)
    ops = []
    for i in range(240):
        if rng.random() < 0.4:
            ops.append(("insert", KEY_SPACE + 2 * i + 1))
        else:
            ops.append(("lookup", keys[rng.randrange(len(keys))]))
    # the serving engine at every client count, one client included
    res = run_workload(index, ops, client_ops=split_ops(ops, clients),
                       validate=True)
    return (res.sim_elapsed_us, res.p50_latency_us, res.p99_latency_us,
            res.blocks_read_per_op, res.blocks_written_per_op,
            res.io_retries, res.checksum_failures, res.failovers,
            res.hedged_reads, res.resync_blocks, res.shed_ops,
            res.committed_writes, res.log_records, res.log_flushes)


@pytest.mark.parametrize("clients", [1, 4])
def test_same_fault_seed_reproduces_the_run_bit_for_bit(clients):
    first = _chaos_run(clients)
    second = _chaos_run(clients)
    assert first == second
    # The faults actually fired (the schedule is non-trivial) ...
    assert first[5] > 0 or first[6] > 0  # io_retries / checksum_failures
    # ... and a different seed yields a different schedule.
    assert _chaos_run(clients, fault_seed=78) != first
