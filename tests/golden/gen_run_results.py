"""Golden contract of ``run_workload`` (tests/golden/run_results.json).

Every number the paper reports leaves this repository through one
function and one dataclass: ``run_workload`` -> ``RunResult``.  What
holds a refactor of the runner or the serving engine to "the same
numbers" is this recording: for every case below, **every** field of the
``RunResult`` and the device's final ``StorageStats``.  Floats are stored
as ``float.hex`` (bit-exact), ``latencies_us`` as length + CRC32 of the
array's bytes, the ``per_client`` / ``per_shard`` dicts whole.
``tests/test_run_result_golden.py`` replays the cases and compares every
value.

The cases cover each way a run is measured: the single stream (one op at
a time, and lookups grouped by ``batch``), traced and untraced, over a
pool, a write-back pool and a WAL; a crash; the self-healer (both of its
outcomes); the serving engine (durable, traced, and shedding over a
faulting tier); and the sharded tier through both loops.

The JSON was recorded at 850629c with ``PYTHONPATH`` on a clone of that
commit's ``src/`` (the last commit whose runner measured the single
stream and the serving path with two copies of the bookkeeping, and ran
``batch == 1`` and ``batch > 1`` through two loops).  The
``tier-2x2-faulting-4c`` case was re-recorded when the engine's deadline,
retry-budget and admission knobs and the shard's hedge budget were
deleted, and the other cases then lost exactly the keys of the deleted
counters (``op_retries``; ``retries_used`` and ``deadline_misses`` per
client).  When reads stopped being able to take latches, the
``serving-4c-latched`` case went and the other cases lost exactly the
two keys of the read/write split of ``latch_wait_us``.  When the run
digests no caller read went (``p90_latency_us``, ``max_latency_us``, the
per-op-type, per-phase and per-op-block histograms, and each client's
per-op-type and per-phase ones), every case lost exactly those keys.
When a tier's batch began to reach its shards deduplicated, the
``tier-2x2-batch16`` case's two per-shard ``lookup`` counts fell by the
duplicate keys of its groups (263 -> 262, 278 -> 276); nothing charged
moved.  Regenerate it
only for a change that is *meant* to move a reported number, and say so
in the commit:

    PYTHONPATH=src python tests/golden/gen_run_results.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import zlib
from functools import partial

import numpy as np

from repro.core import make_index, make_sharded_index
from repro.durability import (FaultInjector, SelfHealer, WriteAheadLog,
                              take_checkpoint)
from repro.obs import Tracer
from repro.storage import (HDD, SSD, BlockDevice, BufferPool, DeviceFaultModel,
                           Pager)
from repro.workloads import run_workload

GOLDEN_PATH = pathlib.Path(__file__).with_name("run_results.json")

KEY_SPACE = 1 << 40
BLOCK_SIZE = 512
WARM_OPS = 100

#: One round of each op stream ("I" insert, "L" lookup, "S" scan),
#: repeated to the case's op count.
BALANCED = "I" * 10 + "L" * 10
#: Runs of lookups longer than, equal to and shorter than a batch of 16,
#: a lone lookup between two inserts (a group of one: ``lookup``, not
#: ``lookup_many``) and scans, which like inserts close the pending group.
GROUPED = "L" * 37 + "ILI" + "S" + "L" * 16 + "IIS" + "LL"


def encode(value):
    """JSON form of a result value: floats bit-exact, arrays by CRC."""
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return {"len": int(value.shape[0]), "dtype": str(value.dtype),
                "crc32": zlib.crc32(value.tobytes())}
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    raise TypeError(f"no golden encoding for {type(value).__name__}")


def _rng(case: str) -> random.Random:
    return random.Random(zlib.crc32(case.encode()))


def _bulk_keys(rng, n: int) -> list:
    """``n`` sorted even keys; the streams insert odd ones."""
    return sorted(2 * k for k in rng.sample(range(1, KEY_SPACE // 2), n))


def _stream(rng, keys, pattern: str, num_ops: int, recent: int = 0) -> list:
    """``num_ops`` ops following ``pattern``; inserts are fresh keys,
    lookups and scans target keys present at that point.  With ``recent``
    every other lookup targets one of the last ``recent`` keys inserted:
    concurrent clients then read a key another client's insert has
    appended but not committed, on a leaf that insert still holds."""
    present = list(keys)
    taken = set()
    ops = []
    for i in range(num_ops):
        kind = pattern[i % len(pattern)]
        if kind == "I":
            key = 2 * rng.randrange(1, KEY_SPACE // 2) + 1
            while key in taken:
                key = 2 * rng.randrange(1, KEY_SPACE // 2) + 1
            taken.add(key)
            present.append(key)
            ops.append(("insert", key))
        elif recent and taken and i % 2:
            ops.append(("lookup", present[-1 - rng.randrange(min(recent, len(taken)))]))
        else:
            key = present[rng.randrange(len(present))]
            ops.append(("scan" if kind == "S" else "lookup", key))
    return ops


def _warmed(index, ops: list) -> list:
    """Run the stream's first ``WARM_OPS`` ops unrecorded and return the
    rest.  The recorded run then starts from non-zero counters — device
    stats, per-file reads, WAL, pager, per-shard — so a "before" reading
    that is dropped or taken late shows in the result."""
    run_workload(index, ops[:WARM_OPS])
    return ops[WARM_OPS:]


def _flat(index_name, keys, *, profile=HDD, pool=0, write_back=False,
          wal_group=None, traced=False, **params):
    """One bulk-loaded index on its own device; WAL and tracer attached
    after the load, the way every experiment does it."""
    device = BlockDevice(block_size=BLOCK_SIZE, profile=profile)
    pager = Pager(device, buffer_pool=BufferPool(pool) if pool else None,
                  write_back=write_back)
    index = make_index(index_name, pager, **params)
    index.bulk_load([(key, key + 1) for key in keys])
    if wal_group is not None:
        index.attach_wal(WriteAheadLog(pager, group_commit=wal_group))
    if traced:
        index.attach_tracer(Tracer())
    return index


def _tier(keys, **kwargs):
    """A bulk-loaded 2 shards x 2 replicas durable btree tier."""
    index = make_sharded_index(
        "btree", 2, sample_keys=keys, replicas=2, durability=True,
        group_commit=4, profile=HDD, block_size=BLOCK_SIZE, **kwargs)
    index.bulk_load([(key, key + 1) for key in keys])
    return index


# -- the cases: each returns (index, RunResult, extras) ----------------------

def _btree_lookup_cold(rng):
    keys = _bulk_keys(rng, 3000)
    index = _flat("btree", keys)
    ops = _warmed(index, _stream(rng, keys, "L", 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="lookup_only",
                               keep_latencies=True, validate=True), {}


def _pgm_batch16_lru(rng):
    keys = _bulk_keys(rng, 3000)
    index = _flat("pgm", keys, profile=SSD, pool=32,
                  epsilon=16, buffer_capacity=24)
    ops = _warmed(index, _stream(rng, keys, GROUPED, 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="grouped", scan_length=20,
                               keep_latencies=True, validate=True,
                               batch=16), {}


def _balanced_durable(rng, traced=False):
    keys = _bulk_keys(rng, 2000)
    index = _flat("btree", keys, profile=SSD, pool=64, write_back=True,
                  wal_group=8, traced=traced)
    ops = _warmed(index, _stream(rng, keys, BALANCED, 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="balanced",
                               keep_latencies=True, validate=True), {}


def _batch16_traced(rng):
    keys = _bulk_keys(rng, 2000)
    index = _flat("btree", keys, pool=16, traced=True)
    ops = _warmed(index, _stream(rng, keys, GROUPED, 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="grouped", scan_length=20,
                               keep_latencies=True, validate=True,
                               batch=16), {}


def _batch16(rng, index_name, pattern=GROUPED, recent=0, **params):
    """``batch=16`` over one more index: ``recent`` draws duplicate keys
    into a group, which the batch answers once per distinct key."""
    keys = _bulk_keys(rng, 3000)
    index = _flat(index_name, keys, pool=16, **params)
    ops = _warmed(index, _stream(rng, keys, pattern, 600 + WARM_OPS, recent))
    return index, run_workload(index, ops, workload="grouped", scan_length=20,
                               keep_latencies=True, validate=True,
                               batch=16), {}


def _tier_batch16(rng):
    keys = _bulk_keys(rng, 2400)
    index = _tier(keys, buffer_blocks=16)
    ops = _warmed(index, _stream(rng, keys, GROUPED, 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="grouped", scan_length=20,
                               keep_latencies=True, validate=True,
                               batch=16), {}


def _crash_torn_tail(rng):
    keys = _bulk_keys(rng, 2000)
    index = _flat("btree", keys, profile=SSD, pool=64, write_back=True,
                  wal_group=8)
    ops = _warmed(index, _stream(rng, keys, BALANCED, 600 + WARM_OPS))
    injector = FaultInjector(crash_at_op=333, torn_tail=True)
    result = run_workload(index, ops, workload="balanced",
                          keep_latencies=True, validate=True,
                          fault_injector=injector)
    return index, result, {"injector_fired": injector.fired}


def _healer_traced(rng):
    keys = _bulk_keys(rng, 2000)
    index = _flat("btree", keys, profile=SSD, wal_group=8, traced=True)
    ops = _warmed(index, _stream(rng, keys, "IIL" + "L" * 5, 600 + WARM_OPS))
    healer = SelfHealer(index, take_checkpoint(index, index.wal))
    index.pager.device.fault_model = DeviceFaultModel(
        seed=21, bit_rot_rate=6e-3, transient_error_rate=2e-2)
    result = run_workload(index, ops, workload="healed", keep_latencies=True,
                          validate=True, healer=healer)
    return index, result, {
        "repairs": [bool(r.full_restore) for r in healer.repairs]}


def _serving(rng, traced=False):
    keys = _bulk_keys(rng, 2000)
    index = _flat("btree", keys, profile=SSD, pool=64, write_back=True,
                  wal_group=8, traced=traced)
    ops = _warmed(index, _stream(rng, keys, BALANCED, 600 + WARM_OPS, recent=8))
    return index, run_workload(index, ops, workload="balanced",
                               keep_latencies=True, validate=True,
                               clients=4), {}


def _tier_faulting_serving(rng):
    keys = _bulk_keys(rng, 2400)
    index = _tier(keys)
    ops = _warmed(index, _stream(rng, keys, "IIIILLLLLL", 480 + WARM_OPS))
    # transient errors often enough that some exhaust a member's pager
    # retry ladder: reads re-issue, a primary fails over, and an op whose
    # shard has no healthy member left is shed
    parent = DeviceFaultModel(seed=9, transient_error_rate=0.3,
                              stall_rate=2e-2, stall_us=100.0)
    for shard in index.shards:
        for j, member in enumerate(shard.members()):
            member.device.fault_model = parent.fork(2 * shard.shard_id + j)
    result = run_workload(index, ops, workload="chaos", keep_latencies=True,
                          validate=True, clients=4)
    return index, result, {"health": index.health_summary()}


def _tier_stream(rng):
    keys = _bulk_keys(rng, 2400)
    index = _tier(keys, buffer_blocks=16)
    ops = _warmed(index, _stream(rng, keys, BALANCED[:-1] + "S", 600 + WARM_OPS))
    return index, run_workload(index, ops, workload="balanced",
                               scan_length=20, keep_latencies=True,
                               validate=True), {}


def _tier_serving_crash(rng):
    keys = _bulk_keys(rng, 2400)
    index = _tier(keys, buffer_blocks=16, write_back=True)
    ops = _warmed(index, _stream(rng, keys, BALANCED, 600 + WARM_OPS))
    injector = FaultInjector(crash_at_op=401, torn_tail=True)
    result = run_workload(index, ops, workload="balanced",
                          keep_latencies=True, validate=True, clients=4,
                          fault_injector=injector)
    return index, result, {"injector_fired": injector.fired}


CASES = {
    "btree-lookup-cold": _btree_lookup_cold,
    "pgm-batch16-lru": _pgm_batch16_lru,
    "btree-balanced-wb-wal8": _balanced_durable,
    "btree-balanced-wb-wal8-traced": partial(_balanced_durable, traced=True),
    "btree-batch16-traced": _batch16_traced,
    "lipp-batch16": partial(_batch16, index_name="lipp", recent=8),
    "plid-batch16": partial(_batch16, index_name="plid", recent=8),
    # read-only: the hybrid takes no inserts, so scans close its groups
    "hybrid-pgm-batch16": partial(_batch16, index_name="hybrid-pgm",
                                  pattern=GROUPED.replace("I", "S")),
    "pgm-delta-batch16": partial(_batch16, index_name="pgm", recent=8,
                                 codec="delta"),
    "tier-2x2-batch16": _tier_batch16,
    "btree-crash-torn-tail": _crash_torn_tail,
    "btree-healer-traced": _healer_traced,
    "serving-4c-durable": _serving,
    "serving-4c-durable-traced": partial(_serving, traced=True),
    "tier-2x2-faulting-4c": _tier_faulting_serving,
    "tier-2x2-stream": _tier_stream,
    "tier-2x2-4c-crash": _tier_serving_crash,
}


def run_case(case: str) -> dict:
    """Replay one case on a fresh stack; returns what the golden records."""
    # a "-traced" case replays its untraced sibling's stack and stream
    index, result, extras = CASES[case](_rng(case.replace("-traced", "")))
    return {
        "result": {f.name: encode(getattr(result, f.name))
                   for f in dataclasses.fields(result)},
        "device": encode(dataclasses.asdict(index.storage_stats())),
        "extras": encode(extras),
    }


def main() -> None:
    golden = {case: run_case(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
