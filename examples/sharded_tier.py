#!/usr/bin/env python
"""Sharded tier: range partitioning, replicas, divergent per-shard tuning.

A `ShardedIndex` (DESIGN.md Section 14) owns N independent shards —
each its own device, pager and WAL — behind one `DiskIndex` facade.
Three things to watch:

* **Routing** — `lookup_many` batches split by shard boundary and merge
  back in order; boundary-straddling scans tile across shards.
* **Replication** — writes ship synchronously to every replica while
  reads fan out round-robin, spreading charged I/O across copies.
* **Workload-aware tuning** — each shard counts its op mix; the P1-P5
  scorer picks a *different* index class per shard when the traffic
  diverges.

Run:  python examples/sharded_tier.py
"""

from __future__ import annotations

from repro.core import make_sharded_index
from repro.datasets import make_dataset
from repro.sharding import ShardTuner
from repro.workloads import run_workload

KEYS = 45_000
OPS = 3_000


def main() -> None:
    keys = sorted(set(int(k) for k in make_dataset("ycsb", 2 * KEYS)))
    loaded = keys[0::2]
    fresh = keys[1::2]

    tier = make_sharded_index("btree", 3, sample_keys=loaded,
                              replicas=2, durability=True)
    tier.bulk_load([(k, k + 1) for k in loaded])
    partition = tier.partition
    print(f"=== 3 shards x 2 replicas over {len(loaded)} keys, HDD ===")
    for shard in tier.shards:
        lo, hi = partition.range_of(shard.shard_id)
        print(f"  shard {shard.shard_id}: [{lo}, {hi}) "
              f"{shard.index_name} x{shard.replication_factor}")

    # Skewed traffic: shard 0 reads only, shard 1 read-heavy, shard 2
    # write-heavy — the mix the tuner scores per shard.
    b0, b1 = partition.boundaries
    ops = []
    reads = iter([k for k in loaded if k < b0])
    mids = iter([k for k in loaded if b0 <= k < b1])
    mid_writes = iter([k for k in fresh if b0 <= k < b1])
    writes = iter([k for k in fresh if k >= b1])
    for i in range(OPS // 3):
        ops.append(("lookup", next(reads)))
        ops.append(("insert", next(mid_writes)) if i % 20 == 0
                   else ("lookup", next(mids)))
        ops.append(("insert", next(writes)))
    result = run_workload(tier, ops, workload="skewed")
    print(f"\nRouted {result.num_ops} ops; per-shard view:")
    for shard_id, view in result.per_shard.items():
        mix = {k: v for k, v in view["ops"].items() if v}
        print(f"  shard {shard_id}: {mix}, reads served per member "
              f"{view['reads_served']}, shipped {view['shipped_records']}")

    plan = ShardTuner().retune(tier)
    print(f"\nTuner plan (P1-P5 scoring): {plan}")
    print(f"Composition after retune: {tier.composition()}")

    live = tier.verify()
    print(f"Tier verifies clean: {live} live entries, every shard "
          f"in-range, replicas bit-identical")


if __name__ == "__main__":
    main()
