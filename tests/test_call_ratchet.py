"""A host-independent ratchet on the interpreter work around a lookup.

The charged clock counts blocks; the real clock on a shared host swings
too much to gate in tier-1.  What does not swing is how many Python
functions a verb enters: this counts the ``"call"`` events
``sys.setprofile`` sees over 200 cold-cache lookups per stack, and holds
each cell to its count when the pager's phase and batch scopes became
slot objects, ``read_bytes`` took its own last-block branch and
``read_block`` its direct device hop (DESIGN.md Section 24).  A change
that adds a Python-level call per lookup turns its cell red; one that
removes calls should lower the ceiling with it.
"""

import random
import sys

import pytest

from repro.stack import StackSpec, build
from repro.storage import NULL_DEVICE

LOOKUPS = 200

#: Python-level calls per 200 lookups, measured at the change that set
#: the ratchet.  Before it: btree 4,600, pgm 4,803, fiting 7,004, lipp
#: 6,604, hybrid-pgm 9,312.
CEILINGS = {
    "btree": 3600,
    "pgm": 4212,
    "fiting": 6004,
    "lipp": 5300,
    "hybrid-pgm": 7912,
}


def _calls_per_lookups(name: str) -> int:
    rng = random.Random(32)
    keys = sorted(rng.sample(range(1, 10**12), 5000))
    index = build(StackSpec(index=name, profile=NULL_DEVICE),
                  [(key, key + 1) for key in keys]).index
    probes = [rng.choice(keys) for _ in range(LOOKUPS)]
    for key in probes[:20]:
        index.lookup(key)   # warm every lazily built cache first
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for key in probes:
            assert index.lookup(key) == key + 1
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_python_calls_per_lookup_stay_under_the_ratchet(name):
    calls = _calls_per_lookups(name)
    assert calls <= CEILINGS[name], (
        f"{name}: {calls} Python calls per {LOOKUPS} lookups, "
        f"ceiling {CEILINGS[name]}")
