"""A host-independent ratchet on the interpreter work around a verb.

The charged clock counts blocks; the real clock on a shared host swings
too much to gate in tier-1.  What does not swing is how many Python
functions a verb enters: this counts the ``"call"`` events
``sys.setprofile`` sees over 200 cold-cache lookups per stack, and over
200 operations of a durable write mix, and holds each cell to its count
at the change that last cut it (DESIGN.md Section 24: the read side when
the pager's phase and batch scopes became slot objects and ``read_block``
took its direct device hop; the write side when the write-back pager,
the pool, the WAL, alex's gap search and pgm's buffer probes shed
theirs; DESIGN.md Section 15: both when the indexes' reads went through
``Pager.view``, lipp's point verbs decoding in place).  A change that adds a
Python-level call per operation turns its cell red; one that removes
calls should lower the ceiling with it.
"""

import random
import sys

import pytest

from repro.stack import StackSpec, build
from repro.storage import NULL_DEVICE

LOOKUPS = 200

#: Python-level calls per 200 lookups, measured at the change that last
#: lowered them.  When the ratchet was set: btree 3,600, pgm 4,212,
#: fiting 6,004, lipp 5,300, hybrid-pgm 7,912 (before it: 4,600, 4,803,
#: 7,004, 6,604, 9,312).  When reads went through ``Pager.view`` (the
#: one held block, DESIGN.md Section 15): fiting 4,901 -> 4,701, lipp
#: 3,953 -> 2,973.
CEILINGS = {
    "btree": 3200,
    "pgm": 3297,
    "fiting": 4701,
    "lipp": 2973,
    "hybrid-pgm": 6524,
}

#: Python-level calls per 100 durable inserts and 100 lookups over a
#: write-back pool, measured at the change that set them.  Before it:
#: btree 6,308, fiting 12,536, pgm 8,545, alex 20,075, lipp 11,485,
#: plid 7,800.  When reads went through ``Pager.view``: fiting 8,154 ->
#: 8,113, alex 11,652 -> 11,649, lipp 7,095 -> 6,683.
WRITE_CEILINGS = {
    "btree": 4556,
    "fiting": 8113,
    "pgm": 4814,
    "alex": 11649,
    "lipp": 6683,
    "plid": 5648,
}


def _count_calls(run) -> int:
    """``"call"`` events while ``run()`` executes, less ``run``'s own."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls - 1


def _calls_per_lookups(name: str) -> int:
    rng = random.Random(32)
    keys = sorted(rng.sample(range(1, 10**12), 5000))
    index = build(StackSpec(index=name, profile=NULL_DEVICE),
                  [(key, key + 1) for key in keys]).index
    probes = [rng.choice(keys) for _ in range(LOOKUPS)]
    for key in probes[:20]:
        index.lookup(key)   # warm every lazily built cache first

    def run():
        for key in probes:
            assert index.lookup(key) == key + 1

    return _count_calls(run)


def _calls_per_write_mix(name: str) -> int:
    """100 ``durable_insert``s of fresh keys between 100 lookups, on a
    3K-key stack with a 256-frame write-back LRU pool and group commit 8
    (``balanced_durable``'s storage, at a size tier-1 can afford)."""
    rng = random.Random(34)
    drawn = rng.sample(range(1, 10**12), 3120)
    keys, fresh_keys = sorted(drawn[:3000]), drawn[3000:]
    index = build(StackSpec(index=name, profile=NULL_DEVICE, buffer_blocks=256,
                            write_back=True, group_commit=8),
                  [(key, key + 1) for key in keys]).index
    for key in fresh_keys[:20]:   # warm every lazily built cache first
        index.durable_insert(key, key + 1)
        index.lookup(rng.choice(keys))
    probes = [rng.choice(keys) for _ in range(100)]

    def run():
        for key, probe in zip(fresh_keys[20:], probes):
            index.durable_insert(key, key + 1)
            assert index.lookup(probe) == probe + 1

    return _count_calls(run)


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_python_calls_per_lookup_stay_under_the_ratchet(name):
    calls = _calls_per_lookups(name)
    assert calls <= CEILINGS[name], (
        f"{name}: {calls} Python calls per {LOOKUPS} lookups, "
        f"ceiling {CEILINGS[name]}")


@pytest.mark.parametrize("name", sorted(WRITE_CEILINGS))
def test_python_calls_per_write_mix_stay_under_the_ratchet(name):
    calls = _calls_per_write_mix(name)
    assert calls <= WRITE_CEILINGS[name], (
        f"{name}: {calls} Python calls per 100 durable inserts and 100 "
        f"lookups, ceiling {WRITE_CEILINGS[name]}")
