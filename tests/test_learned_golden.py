"""The recorded contract of the learned indexes.

``tests/golden/learned_pages.json`` holds, per case, the charged
``StorageStats``, a CRC32 of every device file and a CRC32 of every
answer of pgm, fiting, plid and the pgm hybrid, recorded when they still
unpacked every fetched window, leaf and buffer into a Python list and
kept a scalar and a vectorized lookup each (see
``tests/golden/gen_learned_pages.py``).  The byte-level indexes must ask
the pager for the same blocks in the same order and write the same bytes.
The alex and lipp cases were recorded when alex still read one entry per
pager call and kept a separate batch search; the one byte-level search
must charge and write what those did.
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
            assert after["resegments_of_a_dead_first_key"] >= 5, (
                "segments whose directory key was deleted were resegmented")
            assert after["global_min"] < 1 << 20, "head buffer flushed"
        elif cell.startswith("alex"):
            assert after["expands"] >= 80 and after["splits"] >= 30
            assert after["split_downs"] >= 10
        elif cell == "lipp":
            assert after["rebuilds"] >= 25 and after["height"] > before["height"]
        else:
            assert cell in READ_ONLY and after == before


def test_alex_sequences_force_every_smo_kind():
    """Expand and split-down show in every alex case; a root data node
    only splits where the bulk load left one (bulk 40), and a data node
    only splits sideways under a bulk-built parent whose slots the
    bunched keys left empty (bulk 3000)."""
    root_splits = sideways = 0
    for case in CASES:
        if not case[0].startswith("alex"):
            continue
        before, after = GOLDEN[case_id(case)]["structure"]
        root_split = before["height"] == 1 and after["height"] > 1
        root_splits += root_split
        # every split is the root's, a split-down or sideways
        sideways += after["splits"] - after["split_downs"] - root_split
    assert root_splits >= 2 and sideways >= 20
