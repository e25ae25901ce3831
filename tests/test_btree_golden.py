"""The recorded contract of the B+-tree page code.

``tests/golden/btree_pages.json`` holds, per case, the charged
``StorageStats``, a CRC32 of every device file and a CRC32 of every
answer, recorded when the tree still parsed nodes into Python lists (see
``tests/golden/gen_btree_pages.py``).  The byte-level tree must ask the
pager for the same blocks in the same order and write the same bytes.
"""

import json

import pytest

from tests.golden.gen_btree_pages import CASES, GOLDEN_PATH, case_id, run_case

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
    """The recorded sequences would be a weak contract if nothing split."""
    for case in CASES:
        row = GOLDEN[case_id(case)]
        levels, leaves, inner = row["levels"], row["leaf_blocks"], row["inner_blocks"]
        assert leaves[1] > leaves[0] + 10, "leaf splits"
        root_grows = levels[1] - levels[0]
        # every root grow and every inner split allocates one inner block
        assert inner[1] - inner[0] - root_grows >= 1, "inner splits"
        if case[3] == 20:
            assert levels == [1, 3], "root grew from a leaf, then again"
