"""Golden contract of the optimal PLA fit (tests/golden/pla_segments.json).

``optimal_segments`` is the fit under every pgm build and merge and every
fiting bulk load and resegment; there is one implementation of it, and
what holds it to "the segments O'Rourke's algorithm with exact integer
cross products produces" is this recording instead of a second live
implementation: for every case below, each segment's ``(first_key,
first_pos, length, slope.hex(), intercept.hex(), anchor)``.  The cases
are every generator of ``dataset_names(include_large=True)`` x epsilon
in {0, 1, 8, 64, 256} x seeds {1, 42} at 20K keys, plus keys within
2**16 of 2**64, a single key, two keys and a perfectly linear run.  A
case can have ten thousand segments, so the file keeps their count, a
SHA-256 over one text line per segment, and the first three and the last
segment in clear (all there is of the one-segment cases).
``tests/test_pla_golden.py`` replays the cases and compares every value.

The JSON was recorded at commit 8361e5b (the last one whose fit fed
points one ``_OptimalPLA.add_point`` call at a time), before the fit
became one inlined loop.  Regenerate it only for a change that is *meant*
to move a segment boundary or a model bit, and say so in the commit:

    PYTHONPATH=src python tests/golden/gen_pla_segments.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.datasets import dataset_names, make_dataset
from repro.models import optimal_segments

GOLDEN_PATH = pathlib.Path(__file__).with_name("pla_segments.json")

EPSILONS = (0, 1, 8, 64, 256)
SEEDS = (1, 42)
NUM_KEYS = 20_000
#: Leading segments kept in clear (with the last one).
HEAD = 3

_TOP = 1 << 64
SMALL = {
    "near-2^64": sorted(random.Random(7).sample(range(_TOP - (1 << 16), _TOP), 2000)),
    "single-key": [42],
    "two-keys": [10, 10 ** 9],
    "two-keys-top": [_TOP - 2, _TOP - 1],
    "linear-run": list(range(1000, 1000 + 5 * 3000, 5)),
}

#: (keys source, seed or None, epsilon)
CASES = ([(name, seed, epsilon)
          for name in dataset_names(include_large=True)
          for seed in SEEDS for epsilon in EPSILONS]
         + [(name, None, epsilon) for name in SMALL for epsilon in EPSILONS])


def case_id(case) -> str:
    name, seed, epsilon = case
    return f"{name}-eps{epsilon}" + ("" if seed is None else f"-seed{seed}")


def _row(segment) -> list:
    model = segment.model
    return [segment.first_key, segment.first_pos, segment.length,
            model.slope.hex(), model.intercept.hex(), model.anchor]


def run_case(case) -> dict:
    name, seed, epsilon = case
    keys = SMALL[name] if seed is None else make_dataset(name, NUM_KEYS, seed).tolist()
    rows = [_row(segment) for segment in optimal_segments(keys, epsilon)]
    digest = hashlib.sha256()
    for row in rows:
        digest.update((" ".join(map(str, row)) + "\n").encode())
    return {"count": len(rows), "sha256": digest.hexdigest(),
            "head": rows[:HEAD], "last": rows[-1]}


def main() -> None:
    golden = {case_id(case): run_case(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, row in golden.items():
        print(name, row["count"])


if __name__ == "__main__":
    main()
