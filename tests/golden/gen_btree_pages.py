"""Golden contract of the B+-tree page code (tests/golden/btree_pages.json).

The B+-tree (and the FITing-tree, whose segment directory is a
``BPlusTree`` over 36-byte records) has one execution path; what holds it
to the paper's cost model is this recording instead of a second live
implementation: for every case below, the final ``StorageStats``, a
CRC32 of every device file and a CRC32 of every answer returned, after a
seeded sequence of bulk load, inserts (leaf splits, inner splits, root
grows), updates, deletes (down to an empty leaf), point lookups,
``lookup_many`` batches and scans.  ``tests/test_btree_golden.py``
replays the cases and compares every number.

The JSON was recorded at commit cdbc4a0 (the last one that parsed nodes
into Python lists); the ``answers`` of the two ``fiting-*-bulk20`` cases
were recorded again when FITing's scan took the lookup's precedence
after a shadowing duplicate insert (the sequence makes one; stats and
file bytes did not move); ``coalesced_runs`` / ``coalesced_blocks`` of
the three write-through ``bulk3000`` cases were recorded again when the
bulk-loaded leaf run became one ``write_blocks`` call (one more run, one
more block per leaf; nothing else moved); the two ``btree-delta-*``
cases were recorded at 475d488, the last commit whose delta codec read
and wrote one varint at a time.  Regenerate it only for a
change that is *meant* to move charged I/O or page bytes, and say so in
the commit:

    PYTHONPATH=src python tests/golden/gen_btree_pages.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import zlib

from repro.core import make_index
from repro.storage import HDD, BlockDevice, BufferPool, Pager

GOLDEN_PATH = pathlib.Path(__file__).with_name("btree_pages.json")

#: Small blocks, so that a few thousand inserts split inner nodes and grow
#: the root twice: 512 bytes hold 31 btree records per leaf and 41
#: separators per inner node, 256 bytes hold 6 of the FITing directory's
#: 36-byte descriptor records and 20 separators.
KEY_SPACE = 1 << 40
BLOCK_SIZE = {"btree": 512, "fiting": 256}
INDEX_KWARGS = {"btree": {}, "fiting": {"error_bound": 2, "buffer_capacity": 8}}

#: (index, codec, write-back pool, bulk-loaded keys)
CASES = ([(index, codec, write_back, bulk)
          for index, codec in (("btree", "raw"), ("btree", "for"), ("fiting", "raw"))
          for write_back in (False, True)
          for bulk in (20, 3000)]
         + [("btree", "delta", write_back, 3000) for write_back in (False, True)])


def case_id(case) -> str:
    index, codec, write_back, bulk = case
    return f"{index}-{codec}-{'wb' if write_back else 'wt'}-bulk{bulk}"


def _directory(index):
    """The ``BPlusTree`` inside the index under test."""
    return index.tree if index.name == "btree" else index.directory


def run_case(case) -> dict:
    """Replay one case on a fresh device; returns what the golden records."""
    index_name, codec, write_back, bulk = case
    rng = random.Random(zlib.crc32(case_id(case).encode()))
    device = BlockDevice(block_size=BLOCK_SIZE[index_name], profile=HDD)
    pager = (Pager(device, buffer_pool=BufferPool(32), write_back=True)
             if write_back else Pager(device))
    index = make_index(index_name, pager, codec=codec, **INDEX_KWARGS[index_name])
    answers = 0

    def note(value) -> None:
        nonlocal answers
        answers = zlib.crc32(repr(value).encode(), answers)

    live = {}
    while len(live) < bulk:
        key = rng.randrange(1 << 20, KEY_SPACE)
        live[key] = key + 1
    index.bulk_load(sorted(live.items()))
    tree = _directory(index)
    levels_after_bulk = tree.num_levels
    leaves_after_bulk = tree.leaves.file.num_blocks
    inner_after_bulk = tree.inner_file.num_blocks

    # Inserts: uniform over the key space, a few below the smallest key
    # (routing clamps to child 0; only a few, because the recorded commit
    # misroutes once the leftmost leaf splits at or below the bulk-loaded
    # minimum) and a run above the largest.
    fresh = []
    while len(fresh) < 2200:
        key = rng.randrange(1 << 20, KEY_SPACE)
        if key not in live:
            live[key] = key + 1
            fresh.append(key)
    fresh += list(range(1 << 19, (1 << 19) + 5))
    fresh += list(range(KEY_SPACE, KEY_SPACE + 150))
    for key in fresh[2200:]:
        live[key] = key + 1
    for key in fresh:
        index.insert(key, key + 1)
    try:
        index.insert(fresh[7], 0)
    except KeyError:
        note("duplicate")

    ordered = sorted(live)
    for _ in range(300):
        key = ordered[rng.randrange(len(ordered))]
        live[key] = rng.randrange(1 << 62)
        note(index.update(key, live[key]))
    note(index.update(KEY_SPACE + 10_000, 1))

    # Deletes: a contiguous run wide enough to empty whole leaves, random
    # ones, and keys that are not there.
    start = len(ordered) // 3
    doomed = ordered[start : start + 120] + ordered[:40]
    doomed += [ordered[rng.randrange(len(ordered))] for _ in range(200)]
    for key in doomed:
        note(index.delete(key))
        live.pop(key, None)
    note(index.delete(KEY_SPACE + 10_000))

    ordered = sorted(live)
    probes = [ordered[rng.randrange(len(ordered))] for _ in range(400)]
    probes += [rng.randrange(KEY_SPACE + 1000) for _ in range(100)]
    probes += doomed[:50] + [0, 1, KEY_SPACE + 149, 2**64 - 1]
    for key in probes:
        found = index.lookup(key)
        assert found == live.get(key), (case_id(case), key, found)
        note(found)
    for _ in range(12):
        batch = [ordered[rng.randrange(len(ordered))] for _ in range(48)]
        batch += [rng.randrange(KEY_SPACE) for _ in range(16)]
        found = index.lookup_many(batch)
        assert found == [live.get(key) for key in batch], case_id(case)
        note(found)
    for start_key in [0, ordered[start - 5], ordered[-3]] + [
            rng.randrange(KEY_SPACE) for _ in range(20)]:
        note(index.scan(start_key, 60))
    note(index.scan_range(ordered[start - 30], ordered[start + 30]))
    assert index.verify() == len(live), case_id(case)

    pager.flush()
    return {
        "stats": dataclasses.asdict(device.stats),
        "files": {name: zlib.crc32(b"".join(bytes(b) for b in handle.blocks))
                  for name, handle in sorted(device.files.items())},
        "answers": answers,
        "levels": [levels_after_bulk, tree.num_levels],
        "leaf_blocks": [leaves_after_bulk, tree.leaves.file.num_blocks],
        "inner_blocks": [inner_after_bulk, tree.inner_file.num_blocks],
    }


def main() -> None:
    golden = {case_id(case): run_case(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, row in golden.items():
        print(name, "levels", row["levels"], "leaves", row["leaf_blocks"],
              "inner", row["inner_blocks"])


if __name__ == "__main__":
    main()
