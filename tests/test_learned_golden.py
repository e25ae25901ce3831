"""The recorded contract of the learned indexes.

``tests/golden/learned_pages.json`` holds, per case, the charged
``StorageStats``, a CRC32 of every device file and a CRC32 of every
answer of pgm, fiting, plid and the pgm hybrid, recorded when they still
unpacked every fetched window, leaf and buffer into a Python list and
kept a scalar and a vectorized lookup each (see
``tests/golden/gen_learned_pages.py``).  The byte-level indexes must ask
the pager for the same blocks in the same order and write the same bytes.
"""

import json

import pytest

from tests.golden.gen_learned_pages import (CASES, GOLDEN_PATH, READ_ONLY,
                                            case_id, run_case)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reproduces_recorded_stats_and_page_bytes(case):
    expected = GOLDEN[case_id(case)]
    got = json.loads(json.dumps(run_case(case)))  # JSON-normalized, like the file
    assert got["files"] == expected["files"]      # narrow failures first
    assert got["stats"] == expected["stats"]
    assert got == expected


def test_sequence_forces_every_structural_change():
    """The recorded sequences would be a weak contract if nothing merged,
    split or resegmented."""
    for case in CASES:
        cell, _write_back, bulk = case
        before, after = GOLDEN[case_id(case)]["structure"]
        if cell.startswith("pgm"):
            assert after["merges"] > 100, "buffer flushes"
            assert after["levels"] >= 7 and after["components"] >= 3, (
                "merges across at least three LSM levels")
            # every op so far added one entry unless a merge dropped it
            assert after["entries"] < bulk + after["merges"] * 24, (
                "bottom-level merges dropped tombstones and shadowed entries")
        elif cell == "plid":
            assert after["splits"] >= 80 and after["rebuilds"] >= 10
        elif cell == "fiting":
            assert after["resegments"] >= 150
            assert after["global_min"] < 1 << 20, "head buffer flushed"
        else:
            assert cell in READ_ONLY and after == before
