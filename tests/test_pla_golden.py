"""The recorded contract of the optimal PLA fit.

``tests/golden/pla_segments.json`` holds, per case, the segments
``optimal_segments`` produced when it still fed an ``_OptimalPLA`` object
one point per method call (see ``tests/golden/gen_pla_segments.py``).
The one-loop fit must cut the keys at the same positions and return the
same slope, intercept and anchor, bit for bit.
"""

import json

import pytest

from tests.golden.gen_pla_segments import CASES, GOLDEN_PATH, case_id, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reproduces_recorded_segments(case):
    expected = GOLDEN[case_id(case)]
    got = json.loads(json.dumps(run_case(case)))  # JSON-normalized, like the file
    assert got["head"] == expected["head"]        # narrow failures first
    assert got["count"] == expected["count"]
    assert got == expected


def test_cases_cut_segments_and_reach_the_top_of_the_key_space():
    """The recording would be a weak contract if the fit never closed a
    segment or never saw a product that overflows 64 bits."""
    assert GOLDEN["fb-eps8-seed1"]["count"] > 100
    assert GOLDEN["near-2^64-eps1"]["count"] > 100
    assert GOLDEN["near-2^64-eps1"]["last"][0] > (1 << 64) - (1 << 16)
    assert GOLDEN["linear-run-eps0"]["count"] == 1
