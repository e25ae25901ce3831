"""Golden contract of the learned indexes (tests/golden/learned_pages.json).

pgm, fiting, plid, the pgm hybrid, alex and lipp each have one execution
path; what holds it to the paper's cost model is this recording instead
of a second live implementation: for every case below, the final
``StorageStats``, a CRC32 of every device file and a CRC32 of every
answer returned, after seeded rounds of inserts, updates, deletes,
re-inserts after delete, hit / miss / out-of-range lookups,
``lookup_many`` batches with duplicates and scans.
``tests/test_learned_golden.py`` replays the cases and compares every
number.

The JSON was recorded at commit 3f170e6 (the last one that unpacked
every fetched window, leaf and buffer into a Python list and kept a
scalar and a vectorized lookup per index); ``coalesced_runs`` /
``coalesced_blocks`` of the write-through plid and ``fiting-wt-bulk3000``
cases were recorded again when their bulk-loaded leaf run became one
``write_blocks`` call like the hybrid's (one more run, one more block per
leaf; nothing else moved); the three ``*-delta-*`` cases were recorded
at 475d488, the last commit whose delta codec read and wrote one varint
at a time; the ``alex-*`` and ``lipp-*`` cases were recorded at 7bb7ae6,
the last commit whose alex read one 16-byte entry per pager call on the
point path and kept a hand-inlined twin of it for ``lookup_many`` (lipp
is recorded ahead of any change to it); the ``pgm-raw-*`` and ``plid-*``
cases were recorded again when both indexes came to route through one
``descend`` (DESIGN.md Section 18: descriptor windows one record longer,
predictions capped by the successor's intercept; plid's descriptors 24
bytes, none read while one segment covers the directory, no directory
entry for the rightmost leaf) — every other case byte-identical; the
four ``fiting-*`` cases were recorded again when the sequence stopped
sparing segments' first keys from its deletes (DESIGN.md Section 19: a
resegment used to leave the old directory record behind; with the filter
still in, the one segment-run writer reproduced them byte for byte).
Regenerate it only for a change that is *meant* to move charged I/O or
page bytes, and say so in the commit:

    PYTHONPATH=src python tests/golden/gen_learned_pages.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import zlib
from bisect import bisect_left

from repro.core import make_index
from repro.storage import HDD, BlockDevice, BufferPool, Pager

GOLDEN_PATH = pathlib.Path(__file__).with_name("learned_pages.json")

KEY_SPACE = 1 << 40
ROUNDS = 4

#: cell -> (index, codec, block size, constructor arguments).  Small
#: blocks and small error bounds / buffers, so that a few thousand ops
#: merge pgm's 24-entry buffer down six LSM levels, split plid's 31-entry
#: leaves into eight-entry split buffers (a directory rebuild every eight
#: splits), resegment fiting's eight-entry delta buffers and flush its
#: 15-entry head buffer.  pgm's epsilon was set to 16 while scans skipped
#: entries when the start key fell between two PLA segments (about one in
#: 150 at epsilon 4, before the successor cap); it stays, as the sequences do.
CELLS = {
    "pgm-raw": ("pgm", "raw", 512, {"epsilon": 16, "buffer_capacity": 24}),
    "pgm-for": ("pgm", "for", 512, {"epsilon": 16, "buffer_capacity": 24}),
    "plid": ("plid", "raw", 512, {"error_bound": 2, "split_buffer_capacity": 8}),
    "fiting": ("fiting", "raw", 256, {"error_bound": 4, "buffer_capacity": 8}),
    "hybrid-pgm-raw": ("hybrid-pgm", "raw", 512, {"epsilon": 4}),
    "hybrid-pgm-for": ("hybrid-pgm", "for", 512, {}),
}
READ_ONLY = ("hybrid-pgm-raw", "hybrid-pgm-for")

#: (cell, write-back pool, bulk-loaded keys).  The small bulk load leaves
#: pgm's bottom level within reach, so merges keep dropping tombstones.
CASES = ([(cell, write_back, bulk)
          for cell in CELLS if cell not in READ_ONLY
          for write_back in (False, True)
          for bulk in (40, 3000)]
         + [(cell, write_back, 8000)
            for cell in READ_ONLY for write_back in (False, True)])

#: The delta codec rides the sequences of its ``for`` siblings, the large
#: bulk loads only.
CELLS.update({
    "pgm-delta": ("pgm", "delta", 512, {"epsilon": 16, "buffer_capacity": 24}),
    "hybrid-pgm-delta": ("hybrid-pgm", "delta", 512, {}),
})
READ_ONLY += ("hybrid-pgm-delta",)
CASES += [("pgm-delta", False, 3000), ("pgm-delta", True, 3000),
          ("hybrid-pgm-delta", False, 8000)]


#: ALEX with 64-entry data nodes and fanout-16 inner nodes: entries start
#: ``64 + ceil(capacity / 8)`` bytes into a node, so 16-byte probes
#: straddle the 512-byte blocks, and a few thousand ops expand, split and
#: split down nodes.  lipp rides the same sequence at its defaults.
_TINY_ALEX = {"max_data_node_entries": 64, "max_fanout": 16}
CELLS.update({
    "alex-l2": ("alex", "raw", 512, {"layout": 2, **_TINY_ALEX}),
    "alex-l1": ("alex", "raw", 512, {"layout": 1, **_TINY_ALEX}),
    "lipp": ("lipp", "raw", 512, {}),
})
CASES += [(cell, write_back, bulk)
          for cell in ("alex-l2", "alex-l1", "lipp")
          for write_back in (False, True)
          for bulk in (40, 3000)]

_BUNCHES = 20


def _bunched_key(rng) -> int:
    """A bulk-load key of the alex cells: twenty bunches whose tails run
    a sixty-fourth of the way to the next.  Uniform keys fill every
    parent slot, and a data node under one slot can only split down;
    the uniform inserts that follow land in the slot ranges these keys
    left empty, whose data nodes span several slots and split sideways.
    """
    pitch = (KEY_SPACE - (1 << 20)) // _BUNCHES
    return min((1 << 20) + rng.randrange(_BUNCHES) * pitch
               + int(rng.expovariate(64 / pitch)), KEY_SPACE - 1)


def case_id(case) -> str:
    cell, write_back, bulk = case
    return f"{cell}-{'wb' if write_back else 'wt'}-bulk{bulk}"


def _structure(index) -> dict:
    """Counters of the structural changes the sequence is there to force."""
    if index.name == "pgm":
        return {"merges": index.num_merges,
                "levels": len(index.components),
                "components": index.num_components,
                "entries": index.buffer_count + sum(
                    c.count for c in index.components if c is not None)}
    if index.name == "plid":
        return {"splits": index.num_splits, "rebuilds": index.num_rebuilds,
                "leaves": index.num_leaves}
    if index.name == "fiting":
        return {"resegments": index.num_resegments,
                "segments": index.num_segments,
                "global_min": index.global_min}
    if index.name == "alex":
        with index._free_io():  # height() walks the leftmost path
            return {"expands": index.num_expands, "splits": index.num_splits,
                    "split_downs": index.num_split_downs,
                    "height": index.height()}
    if index.name == "lipp":
        return {"rebuilds": index.num_rebuilds, "height": index.height()}
    return {"leaves": index.num_leaves, "height": index.height()}


def run_case(case) -> dict:
    """Replay one case on a fresh device; returns what the golden records."""
    cell, write_back, bulk = case
    index_name, codec, block_size, kwargs = CELLS[cell]
    rng = random.Random(zlib.crc32(case_id(case).encode()))
    device = BlockDevice(block_size=block_size, profile=HDD)
    pager = (Pager(device, buffer_pool=BufferPool(32), write_back=True)
             if write_back else Pager(device))
    index = make_index(index_name, pager, codec=codec, **kwargs)
    answers = 0

    def note(value) -> None:
        nonlocal answers
        answers = zlib.crc32(repr(value).encode(), answers)

    live = {}
    while len(live) < bulk:
        key = (_bunched_key(rng) if index_name == "alex"
               else rng.randrange(1 << 20, KEY_SPACE))
        live[key] = key + 1
    index.bulk_load(sorted(live.items()))
    top = max(live)

    def fresh_key() -> int:
        while True:
            key = rng.randrange(1 << 20, top)
            if key not in live:
                return key

    after_bulk = _structure(index)
    low = 1 << 20          # next key below everything stored
    high = KEY_SPACE       # next key above everything stored
    dead = []              # deleted and not re-inserted
    dead_first_keys = 0    # fiting: resegments of a segment whose first key is dead

    def insert(key, payload) -> None:
        """``index.insert``; on fiting, note (free of charge) whether it
        resegments a segment whose directory key is deleted."""
        nonlocal dead_first_keys
        live[key] = payload
        if index_name != "fiting" or key < index.global_min:
            index.insert(key, payload)
            return
        with index._free_io():
            first_key = index.directory.floor_record(key)[0]
        before = index.num_resegments
        index.insert(key, payload)
        dead_first_keys += index.num_resegments > before and first_key not in live

    def mutate() -> None:
        nonlocal low, high
        # Inserts: uniform up to the largest bulk-loaded key, a run below
        # the smallest key (fiting's head buffer) and a few above the
        # largest (plid's rightmost leaf; tests/test_plid.py splits it
        # under thousands of them).
        fresh = [fresh_key() for _ in range(450)]
        fresh += range(low - 13, low)
        low -= 13
        fresh += range(high, high + 3)
        high += 3
        rng.shuffle(fresh)
        for key in fresh:
            insert(key, key + 1)
        if index_name == "pgm":
            # An LSM cannot see below its buffer: a duplicate shadows
            # the component's copy unless both sit in the buffer.
            key = sorted(live)[rng.randrange(len(live))]
            try:
                index.insert(key, 7)
                live[key] = 7
                note("shadowed")
            except KeyError:
                note("duplicate")
        ordered = sorted(live)
        for _ in range(80):
            key = ordered[rng.randrange(len(ordered))]
            live[key] = rng.randrange(1 << 62)
            assert index.update(key, live[key]), (case_id(case), key)
        for key in (fresh_key(), high + 10_000, *dead[-6:]):
            assert not index.update(key, 3), (case_id(case), key)
        # Deletes: a contiguous run, random keys (some twice), absent keys.
        start = rng.randrange(len(ordered) - 40)
        doomed = ordered[start : start + 30]
        doomed += [ordered[rng.randrange(len(ordered))] for _ in range(70)]
        doomed += doomed[:5] + [fresh_key(), 0, high + 10_000]
        for key in doomed:
            assert index.delete(key) == (key in live), (case_id(case), key)
            if live.pop(key, None) is not None:
                dead.append(key)
        # Re-inserts after delete land on the tombstone, wherever the
        # index keeps it.
        back = [dead.pop(rng.randrange(len(dead))) for _ in range(40)]
        for key in back:
            insert(key, rng.randrange(1 << 62))

    def probe() -> None:
        ordered = sorted(live)
        probes = [ordered[rng.randrange(len(ordered))] for _ in range(150)]
        probes += [rng.randrange(KEY_SPACE + 1000) for _ in range(40)]
        probes += dead[-25:] + ordered[:2] + ordered[-2:]
        probes += [0, 1, low - 1, high, high + 1, 2**63, 2**64 - 1]
        for key in probes:
            found = index.lookup(key)
            assert found == live.get(key), (case_id(case), key, found)
            note(found)
        for _ in range(4):
            batch = [ordered[rng.randrange(len(ordered))] for _ in range(44)]
            batch += [rng.randrange(KEY_SPACE) for _ in range(12)]
            batch += dead[-4:] + batch[:4]
            found = index.lookup_many(batch)
            assert found == [live.get(key) for key in batch], case_id(case)
            note(found)
        starts = [0, ordered[0], ordered[len(ordered) // 2] + 1, ordered[-3],
                  high + 5] + [rng.randrange(KEY_SPACE) for _ in range(8)]
        starts += dead[-3:]
        for start_key in starts:
            found = index.scan(start_key, 60)
            at = bisect_left(ordered, start_key)
            assert found == [(k, live[k]) for k in ordered[at : at + 60]], (
                case_id(case), start_key)
            note(found)
        note(index.scan(ordered[5], 1))
        at = len(ordered) // 3
        note(index.scan_range(ordered[at], ordered[at + 70]))
        assert index.verify() == len(live), case_id(case)

    for _ in range(ROUNDS):
        if cell not in READ_ONLY:
            mutate()
        probe()

    pager.flush()
    after = _structure(index)
    if index_name == "fiting":
        after["resegments_of_a_dead_first_key"] = dead_first_keys
    return {
        "stats": dataclasses.asdict(device.stats),
        "files": {name: zlib.crc32(b"".join(bytes(b) for b in handle.blocks))
                  for name, handle in sorted(device.files.items())},
        "answers": answers,
        "structure": [after_bulk, after],
    }


def main() -> None:
    golden = {case_id(case): run_case(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, row in golden.items():
        print(name, row["structure"])


if __name__ == "__main__":
    main()
