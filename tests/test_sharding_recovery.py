"""Crash-under-sharding: one shard dies, the tier recovers exactly.

Shards fail independently — each has its own device, WAL and checkpoint
— so the recovery contract is per shard: after a crash, the shard's
content is its checkpoint image plus its own WAL's durable prefix
(**exactly** — no lost acknowledged write, no resurrected unacknowledged
one), and every other shard is bit-for-bit untouched.  The whole-cluster
power-loss path (the fault injector firing through ``run_workload`` on
every shard's log and pagers) then recovers every shard the same way.
"""

import pytest

from repro.durability import FaultInjector
from repro.sharding import KEYSPACE_END

from tests.util import items_of, make_sharded, random_sorted_keys

KEY_SPACE = 10**9


def durable_tier(shards=3, group_commit=4, seed=9, n=300, replicas=1):
    keys = random_sorted_keys(n, seed=seed, key_space=KEY_SPACE)
    index = make_sharded("btree", shards, sample_keys=keys,
                         durability=True, group_commit=group_commit,
                         replicas=replicas)
    index.bulk_load(items_of(keys))
    return index, keys


def shard_contents(index):
    """Per-shard live pairs, read without charges."""
    out = []
    for shard in index.shards:
        with shard.primary.index._free_io():
            out.append(shard.primary.index.scan_range(0, KEYSPACE_END - 1))
    return out


def fresh_keys_for(index, shard_id, count, start=KEY_SPACE):
    """Unused keys owned by ``shard_id`` (its range, above the loaded set)."""
    lo, hi = index.partition.range_of(shard_id)
    base = max(lo, start)
    keys = [base + 2 * i + 1 for i in range(count)]
    assert all(lo <= k < hi for k in keys)
    return keys


def test_one_shard_crash_restores_committed_prefix_others_untouched():
    index, _ = durable_tier(shards=3, group_commit=4)
    checkpoints = [shard.checkpoint() for shard in index.shards]

    # Interleave durable writes across every shard. Shard ranges from
    # quantile boundaries all sit below KEY_SPACE, so per-shard fresh
    # keys target each shard deterministically.
    per_shard = {s: fresh_keys_for(index, s, 21, start=0) for s in range(3)}
    writes = {s: [] for s in range(3)}
    for i in range(21):
        for s in range(3):
            key = per_shard[s][i]
            index.durable_insert(key, key % 1000 + 1)
            writes[s].append((key, key % 1000 + 1))

    victim = index.shards[1]
    # 21 records at group_commit=4: 20 durable, 1 still in the buffer.
    assert victim.wal.durable_seqno == 20
    assert victim.wal.pending == 1
    before = shard_contents(index)

    report = FaultInjector().crash([victim.wal], op_index=7,
                                   pagers=[victim.primary.pager])
    assert report.dropped_records == 1
    acked = victim.wal.durable_seqno
    result = victim.recover(checkpoints[1])
    assert result.last_seqno == acked
    assert result.records_applied == acked

    after = shard_contents(index)
    # The victim holds exactly its committed prefix: checkpoint content
    # plus the first ``acked`` writes — the dropped record is gone.
    expected = sorted(
        [pair for pair in before[1] if pair not in dict(writes[1]).items()]
        + writes[1][:acked])
    assert after[1] == expected
    # Zero lost acknowledged writes, and the unacked one did not survive.
    for key, payload in writes[1][:acked]:
        assert index.lookup(key) == payload
    assert index.lookup(writes[1][-1][0]) is None
    # The other shards are bit-for-bit untouched.
    assert after[0] == before[0]
    assert after[2] == before[2]
    assert index.verify() == sum(len(c) for c in after)

    # The tier keeps serving and logging: seqnos continue the history.
    key = per_shard[1][20] + 2
    index.durable_insert(key, 5)
    assert victim.wal.next_seqno == acked + 2
    index.flush()
    assert index.lookup(key) == 5


def test_torn_tail_cuts_the_victims_log_at_the_crc():
    index, _ = durable_tier(shards=2, group_commit=1, seed=13)
    checkpoints = [shard.checkpoint() for shard in index.shards]
    victim = index.shards[0]
    keys = fresh_keys_for(index, 0, 10, start=0)
    for key in keys:
        index.durable_insert(key, key % 50 + 1)
    assert victim.wal.durable_seqno == 10

    FaultInjector(torn_tail=True).crash([victim.wal], op_index=9,
                                        pagers=[victim.primary.pager])
    surviving = [r.seqno for r in victim.wal.durable_records()]
    assert surviving and surviving[-1] < 10  # the tear really cut the log
    result = victim.recover(checkpoints[0])
    assert result.last_seqno == surviving[-1]
    for i, key in enumerate(keys):
        expected = key % 50 + 1 if i + 1 <= surviving[-1] else None
        assert index.lookup(key) == expected, (i, key)


def test_whole_tier_power_loss_through_the_runner():
    from repro.workloads import run_workload

    index, _ = durable_tier(shards=3, group_commit=4, seed=21, replicas=2)
    checkpoints = [shard.checkpoint() for shard in index.shards]
    ops = []
    for i in range(60):
        shard_id = i % 3
        key = fresh_keys_for(index, shard_id, 60, start=0)[i // 3]
        ops.append(("insert", key))

    result = run_workload(index, ops, workload="crash",
                          fault_injector=FaultInjector(crash_at_op=45))
    assert result.crashed_at_op == 45
    assert result.shards == 3 and result.replicas == 2

    # Every shard recovers independently to its own durable prefix.
    survivors = {}
    for shard_id, shard in enumerate(index.shards):
        acked = shard.wal.durable_seqno
        res = shard.recover(checkpoints[shard_id])
        assert res.last_seqno == acked
        survivors[shard_id] = acked
    assert sum(survivors.values()) <= 45
    # Acknowledged writes all present; the tier (and its re-seeded
    # replicas) verifies clean.
    executed = ops[:45]
    for shard_id, shard in enumerate(index.shards):
        shard_ops = [key for _, key in executed
                     if index.partition.shard_of(key) == shard_id]
        for j, key in enumerate(shard_ops):
            # run_workload inserts key+1 payloads
            expected = key + 1 if j + 1 <= survivors[shard_id] else None
            assert index.lookup(key) == expected, (shard_id, j, key)
    assert index.replication_factor == 2
    index.verify()


def test_recover_keeps_write_back_pager_config_on_every_member():
    """Crash + recover under a write-back pager: the adopted primary and
    re-seeded replicas keep the shard's storage configuration (pool,
    write-back) instead of silently downgrading to
    pass-through defaults, and the recovery contract still holds with
    dirty frames dropped at the crash."""
    from repro.storage import NULL_DEVICE

    keys = random_sorted_keys(240, seed=17, key_space=KEY_SPACE)
    index = make_sharded("btree", 2, sample_keys=keys, durability=True,
                         group_commit=4, replicas=2, buffer_blocks=16,
                         write_back=True)
    index.bulk_load(items_of(keys))
    checkpoints = [shard.checkpoint() for shard in index.shards]

    victim = index.shards[1]
    assert victim.primary.pager.write_back is True  # the config is live
    fresh = fresh_keys_for(index, 1, 9, start=0)
    for key in fresh:
        index.durable_insert(key, key % 100 + 1)
    assert victim.wal.durable_seqno == 8  # 9 records at group_commit=4

    # The crash drops the WAL tail *and* every dirty write-back frame.
    FaultInjector().crash([victim.wal], op_index=5,
                          pagers=[victim.primary.pager])
    acked = victim.wal.durable_seqno
    result = victim.recover(checkpoints[1])
    assert result.last_seqno == acked
    assert result.records_applied == acked

    # Every member — the adopted primary and both re-seeded replicas —
    # keeps the shard's pager configuration through recovery.
    for member in victim.members():
        assert member.pager.write_back is True, member
        assert member.pager.buffer_pool is not None, member
        assert member.pager.buffer_pool.capacity == 16, member
        assert member.device.profile is NULL_DEVICE
    # ...and each member owns its *own* pool: shared frames would let
    # one member's reads hit another member's cache.
    pools = {id(m.pager.buffer_pool) for m in victim.members()}
    assert len(pools) == victim.replication_factor

    # The recovery contract is unchanged: exactly the acked prefix.
    for j, key in enumerate(fresh):
        expected = key % 100 + 1 if j + 1 <= acked else None
        assert index.lookup(key) == expected, (j, key)
    # The tier serves and logs on; replicas agree with the primary.
    next_key = fresh_keys_for(index, 1, 20, start=0)[19]
    index.durable_insert(next_key, 7)
    assert victim.wal.next_seqno == acked + 2
    index.flush()
    assert index.lookup(next_key) == 7
    index.verify()


def test_crash_requires_durability():
    index = make_sharded("btree", 2, boundaries=[500])
    index.bulk_load(items_of([1, 2, 1000]))
    with pytest.raises(RuntimeError):
        index.shards[0].recover(None)
