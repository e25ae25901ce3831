"""Property tests for the internal merge helpers of PGM and FITing-tree."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fiting import _merge_sorted
from repro.core.interface import TOMBSTONE
from repro.core.pgm import _merge_iters_take, _merge_runs

sorted_run = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 10**6)), max_size=40
).map(lambda items: sorted({k: v for k, v in items}.items()))

# Like sorted_run but some payloads are tombstones, to exercise the
# FITing merge's live-data-wins / tombstone-yields tie rule.
sorted_run_with_tombstones = st.lists(
    st.tuples(st.integers(0, 200),
              st.one_of(st.just(TOMBSTONE), st.integers(0, 10**6))),
    max_size=40,
).map(lambda items: sorted({k: v for k, v in items}.items()))


@settings(max_examples=200, deadline=None)
@given(st.lists(sorted_run, min_size=1, max_size=5))
def test_merge_runs_newest_wins(runs):
    merged = _merge_runs([list(run) for run in runs])
    keys = [k for k, _ in merged]
    assert keys == sorted(set(keys))
    expected = {}
    for run in reversed(runs):       # earlier runs shadow later ones
        expected.update(dict(run))
    assert dict(merged) == expected


@settings(max_examples=200, deadline=None)
@given(sorted_run_with_tombstones, sorted_run_with_tombstones)
def test_fiting_merge_live_data_wins_ties(data_run, buffer_run):
    """On equal keys the merge keeps the live data-region entry — the
    copy lookups serve — and only a tombstoned data entry yields to the
    delta buffer (a buffered re-insert after a delete)."""
    merged = _merge_sorted(list(data_run), list(buffer_run))
    keys = [k for k, _ in merged]
    assert keys == sorted(set(keys))
    expected = dict(buffer_run)
    expected.update({k: v for k, v in data_run if v != TOMBSTONE})
    for k, v in data_run:
        expected.setdefault(k, v)
    assert dict(merged) == expected


def _heap_merge_take(iters, count):
    """``_merge_iters_take`` with every entry through the heap, as it was
    before a lone run was drained in slices."""
    heap = []
    for i, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], i, first[1], it))
    heapq.heapify(heap)
    out = []
    last_key = None
    while heap and len(out) < count:
        key, i, payload, it = heapq.heappop(heap)
        if key != last_key:
            last_key = key
            if payload != TOMBSTONE:
                out.append((key, payload))
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], i, nxt[1], it))
    return out


def _counted(run, pulled, i):
    """``run`` as an iterator that counts the entries pulled from it."""
    for entry in run:
        pulled[i] += 1
        yield entry


@settings(max_examples=300, deadline=None)
@given(st.lists(sorted_run_with_tombstones, min_size=0, max_size=4),
       st.integers(1, 60))
def test_merge_take_matches_the_all_heap_merge(runs, count):
    """Same rows — newest run wins a key, a tombstone hides it in every
    older run, also when the key's newest copy was the last entry of a
    run that has since ended and its shadowed copy heads the one run
    left — and the same number of entries pulled from each run, the one
    after the scan's last row included (a pull is what fetches a block).

    Kills: a drain that does not test its first entry against the last
    key emitted; one that stops pulling at ``count`` rows; one that
    pulls a slice longer than the rows still needed.
    """
    pulled, expected_pulled = [0] * len(runs), [0] * len(runs)
    rows = _merge_iters_take(
        [_counted(run, pulled, i) for i, run in enumerate(runs)], count)
    assert rows == _heap_merge_take(
        [_counted(run, expected_pulled, i) for i, run in enumerate(runs)], count)
    assert pulled == expected_pulled
