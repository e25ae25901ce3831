#!/usr/bin/env python
"""Concurrent clients: one shared index, N sessions, one group commit.

The serving engine (DESIGN.md Section 13) interleaves N client op
streams over a single disk-resident index under the simulated clock.
Three effects to watch as the client count grows:

* **Cross-client group commit** — every session's pending inserts ride
  the same WAL flush, so log flushes per committed write collapse.
* **Latch contention** — zipfian hot keys make sessions collide on the
  same frames; exclusive (write) latch stalls show up as simulated
  wait time in each client's perceived latency.
* **Snapshot reads** — lookups resolve against the durable prefix and
  never take latches: every latch stall is a writer's.

Run:  python examples/concurrent_clients.py
"""

from __future__ import annotations

from repro import HDD, BlockDevice, Pager, make_index
from repro.serving import split_ops
from repro.storage.buffer_pool import make_buffer_pool
from repro.datasets import make_dataset
from repro.durability import WriteAheadLog
from repro.workloads import WORKLOADS, build_workload, run_workload

BULK_KEYS = 20_000
NUM_OPS = 4_000


def main() -> None:
    spec = WORKLOADS["balanced"]
    num_inserts = sum(1 for i in range(NUM_OPS)
                      if spec.round_pattern[i % len(spec.round_pattern)] == "I")
    keys = make_dataset("ycsb", BULK_KEYS + num_inserts)
    bulk_items, ops = build_workload(spec, keys, NUM_OPS,
                                     lookup_distribution="zipfian", zipf_s=0.9)

    print(f"=== Balanced workload, zipfian(0.9) lookups, HDD "
          f"({BULK_KEYS} keys bulk loaded, {NUM_OPS} ops) ===")
    print(f"{'clients':>7} {'ops/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'flushes/write':>13} {'group':>6} {'latch ms':>9} "
          f"{'snapshot':>8}")
    print("-" * 74)
    for clients in (1, 4, 16, 64):
        device = BlockDevice(block_size=4096, profile=HDD)
        pager = Pager(device, make_buffer_pool(256, "lru"))
        index = make_index("btree", pager)
        index.bulk_load(bulk_items)
        index.attach_wal(WriteAheadLog(pager, group_commit=1))
        # client_ops forces the serving path even at one client, so the
        # single-client row reports the same commit/latch columns.
        result = run_workload(index, ops, workload="balanced",
                              client_ops=split_ops(ops, clients))
        print(f"{clients:>7} {result.throughput_ops_per_s:>8.0f} "
              f"{result.p50_latency_us / 1e3:>8.2f} "
              f"{result.p99_latency_us / 1e3:>8.2f} "
              f"{result.flushes_per_committed_write:>13.3f} "
              f"{result.mean_commit_group:>6.1f} "
              f"{result.latch_wait_us / 1e3:>9.1f} "
              f"{result.snapshot_reads:>8}")
        worst = max((c for c in result.per_client.values() if c["ops"]),
                    key=lambda c: c["latency"]["p99"])
        print(f"{'':>7}   worst client: p99 "
              f"{worst['latency']['p99'] / 1e3:.2f} ms over "
              f"{worst['ops']} ops, max dispatch gap "
              f"{worst['max_dispatch_gap']}")

    print("\nOne WAL flush absorbs every session's pending writes, so "
          "flushes per committed write fall roughly as 1/clients while "
          "p99 absorbs the latch stalls the hot keys' writers cause — "
          "snapshot reads never touch the latch table.")


if __name__ == "__main__":
    main()
