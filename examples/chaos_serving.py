#!/usr/bin/env python
"""Serve a replicated tier through member crashes without losing a write.

The walkthrough builds a durable 2-shard tier, three copies per shard.
One chaos seed then drives three failure modes (DESIGN.md Section 17):

1. **Degrading replica** — one replica per shard runs on rotting media
   (seeded per-member fault forks: transient errors, bit rot, stalls)
   while the engine serves a mixed stream; faulted reads re-issue on a
   healthy peer, and deadline misses are counted from the latencies.
2. **Replica crash** — a whole member dies mid-rotation; reads hedge
   around it, the member is quarantined, and after the "operator swap"
   it rejoins by catch-up resync: the missed WAL suffix is replayed
   (charged) and the result byte-verified against the primary.
3. **Primary crash** — the primary dies; the freshest healthy replica
   is promoted live, the log is rebuilt on its device with sequence
   numbering unbroken, and serving continues.

After each act the tier is audited: every durable insert record must be
readable with its exact payload — zero lost acknowledged writes.

Run:  python examples/chaos_serving.py
"""

from __future__ import annotations

import random

from repro import HDD, DeviceFaultModel
from repro.core import make_sharded_index
from repro.workloads import run_workload

CHAOS_SEED = 77
DEADLINE_US = 500_000.0


def audit(tier) -> int:
    """Every durable insert record must serve its exact payload."""
    checked = 0
    for shard in tier.shards:
        for record in shard.wal.durable_records():
            if record.op != "insert":
                continue
            checked += 1
            got = tier.lookup(record.key)
            assert got == record.payload, \
                f"LOST ACKED WRITE: key {record.key} -> {got}"
    return checked


def mixed_ops(keys, n, insert_base, seed=31):
    rng = random.Random(seed)
    ops, nxt = [], insert_base
    for _ in range(n):
        if rng.random() < 0.4:
            ops.append(("insert", nxt))
            nxt += 2
        else:
            ops.append(("lookup", keys[rng.randrange(len(keys))]))
    return ops


def main() -> None:
    rng = random.Random(7)
    keys = sorted(rng.sample(range(10**9), 6_000))
    tier = make_sharded_index("btree", 2, sample_keys=keys, replicas=3,
                              durability=True, group_commit=8, profile=HDD)
    tier.bulk_load([(k, k + 1) for k in keys])
    print(f"tier: {tier.num_shards} shards x {tier.replication_factor} "
          f"copies, durable")

    # Act 1: one replica per shard degrades while the engine serves.
    parent = DeviceFaultModel(seed=CHAOS_SEED, transient_error_rate=2e-3,
                              bit_rot_rate=1e-3, stall_rate=1e-3,
                              stall_us=5 * HDD.read_positioning_us)
    for shard in tier.shards:
        shard.replicas[0].device.fault_model = parent.fork(shard.shard_id + 1)
    res = run_workload(tier, mixed_ops(keys, 2_000, 10**9 + 1),
                       keep_latencies=True, clients=4, validate=True)
    misses = int((res.latencies_us > DEADLINE_US).sum())
    print(f"act 1 — degrading media: {res.io_retries} retries, "
          f"{res.checksum_failures} checksum refusals, "
          f"{res.hedged_reads} hedged reads, {res.shed_ops} shed, "
          f"{misses} ops over {DEADLINE_US / 1e3:.0f} ms, p99 "
          f"{res.p99_latency_us / 1e3:.1f} ms; "
          f"audited {audit(tier)} acked writes — none lost")

    # Act 2: a whole replica dies; reads hedge around it, then the
    # repaired member rejoins by catch-up resync.  The victim is the
    # *clean* replica: act 1's media faults struck replicas[0] through
    # the write path, which taints a member (possible half-applied
    # mutation) and forces the full re-seed — only an untainted member
    # qualifies for the cheap log-suffix resync.
    victim_shard = tier.shards[0]
    victim = victim_shard.replicas[1]
    victim.device.fault_model = parent.fork(100, crash_after=20,
                                            transient_error_rate=0.0,
                                            bit_rot_rate=0.0, stall_rate=0.0)
    run_workload(tier, mixed_ops(keys, 1_000, 10**9 + 10**6 + 1, seed=32),
                 clients=4, validate=True)
    states = tier.health_summary()[0]
    print(f"act 2 — replica crash: health {states}, "
          f"{tier.hedged_reads} hedged reads so far")
    victim.device.fault_model.clear_crash()
    rejoined = tier.rejoin_quarantined()
    print(f"         operator swap + rejoin: {rejoined} "
          f"({tier.resync_blocks} log blocks scanned); "
          f"audited {audit(tier)} acked writes — none lost")

    # Act 3: the primary itself dies; live failover promotes a replica.
    old_primary = tier.shards[1].primary
    old_primary.device.fault_model = parent.fork(200, crash_after=10)
    res = run_workload(tier, mixed_ops(keys, 1_000, 10**9 + 2 * 10**6 + 1,
                                       seed=33),
                       clients=4, validate=True)
    assert res.failovers >= 1
    assert tier.shards[1].primary is not old_primary
    print(f"act 3 — primary crash: {res.failovers} live failover(s), "
          f"log re-homed (seqno continues at "
          f"{tier.shards[1].wal.next_seqno}); "
          f"audited {audit(tier)} acked writes — none lost")

    tier.flush()
    live = tier.verify()
    print(f"final verify: {live} live keys, replica groups consistent")


if __name__ == "__main__":
    main()
