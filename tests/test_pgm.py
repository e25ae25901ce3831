"""PGM-specific tests: static components, LSM merging, file deletion."""

import bisect
import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pgm import (DESCRIPTOR_SIZE, PgmIndex, StaticPgm, build_levels,
                            descend)
from repro.core.serial import ENTRY_SIZE, entry_at
from repro.storage import HDD, NULL_DEVICE, BlockDevice, BufferPool, Pager

from tests.util import Watch, charges_of, items_of, pages_of, random_sorted_keys


def fresh(**kwargs):
    device = BlockDevice(4096, NULL_DEVICE)
    return PgmIndex(Pager(device), **kwargs), device


# -- static component -------------------------------------------------------

def test_static_component_lookup():
    device = BlockDevice(4096, NULL_DEVICE)
    keys = random_sorted_keys(20_000, seed=1)
    component = StaticPgm(Pager(device), "c", items_of(keys))
    for key in random.Random(2).sample(keys, 300):
        assert component.lookup(key) == key + 1
    assert component.lookup(keys[0] + 1) is None


def _levels_in_memory(keys, epsilon):
    """``build_levels`` laid out top-down in one bytes object, as
    :func:`descend` addresses it: ``(view, root, level_table)``.  ``view``
    hands out the whole object and the range's start in it, and refuses
    a range that leaves the level it starts in."""
    root, levels = build_levels(keys, epsilon)
    store = b"".join(reversed(levels))
    level_table, offset = [], len(store)
    for raw in levels:
        offset -= len(raw)
        level_table.append((offset, len(raw) // DESCRIPTOR_SIZE))

    def view(start, length):
        assert any(base <= start and start + length <= base + n * DESCRIPTOR_SIZE
                   for base, n in level_table), "read crosses a level"
        return store, start

    return view, root, level_table


#: mostly dense runs, now and then a gap that dwarfs every span so far —
#: the shape (``fb``, ``osm``) a model extrapolating past its segment's
#: last key loses keys on
_GAPS = st.lists(st.one_of(st.integers(1, 64), st.integers(1, 2**20),
                           st.integers(2**40, 2**62)),
                 min_size=1, max_size=300)


@settings(max_examples=60, deadline=None)
@given(first=st.integers(0, 2**32), gaps=_GAPS,
       epsilon=st.sampled_from([1, 4, 64]))
@example(first=0, gaps=[1] * 9 + [10**12], epsilon=1)
@example(first=7, gaps=([1] * 40 + [2**61]) * 6, epsilon=4)
def test_descend_window_holds_floor_and_ceiling(first, gaps, epsilon):
    """The contract of ``descend`` (DESIGN.md Section 18), on bytes in
    memory: for every stored key and every probe between two keys, the
    window holds the floor position and ends on the ceiling position or
    one slot before it — what ``lookup`` and ``ceiling_position`` rely on,
    and what extrapolating a floor model past its segment breaks."""
    keys = [key for key in accumulate(gaps, initial=first) if key < 2**64]
    view, root, level_table = _levels_in_memory(keys, epsilon)
    probes = set(keys)
    for low, high in zip(keys, keys[1:]):
        probes.update((low + 1, (low + high) // 2, high - 1))
    probes.update((max(first - 1, 0), min(keys[-1] + 1, 2**64 - 1)))
    for probe in probes:
        lo, hi = descend(view, root, level_table, len(keys), probe, epsilon)
        floor = bisect.bisect_right(keys, probe) - 1
        assert 0 <= lo <= max(floor, 0) and floor <= hi < len(keys), (
            probe, (lo, hi), floor)
        ceiling = lo + bisect.bisect_left(keys[lo : hi + 1], probe)
        assert ceiling == bisect.bisect_left(keys, probe)


def test_static_component_rejects_empty():
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        StaticPgm(Pager(device), "c", [])


def test_static_component_range_shortcut():
    device = BlockDevice(4096)
    pager = Pager(device)
    keys = random_sorted_keys(10_000, seed=3)
    component = StaticPgm(pager, "c", items_of(keys))
    before = device.stats.reads
    assert component.lookup(keys[0] - 1) is None
    assert component.lookup(keys[-1] + 1) is None
    assert device.stats.reads == before  # min/max meta avoids any I/O


def test_static_ceiling_position():
    device = BlockDevice(4096, NULL_DEVICE)
    keys = list(range(0, 1000, 10))
    component = StaticPgm(Pager(device), "c", items_of(keys))
    assert component.ceiling_position(0) == 0
    assert component.ceiling_position(5) == 1
    assert component.ceiling_position(990) == 99
    assert component.ceiling_position(991) == 100  # past the end


def test_static_iterate_from():
    device = BlockDevice(4096, NULL_DEVICE)
    keys = random_sorted_keys(5000, seed=4)
    component = StaticPgm(Pager(device), "c", items_of(keys))
    run = list(component.iterate_from(1000))[:200]
    assert run == items_of(keys)[1000:1200]


def test_static_destroy_deletes_files():
    device = BlockDevice(4096, NULL_DEVICE)
    pager = Pager(device)
    component = StaticPgm(pager, "c", items_of(random_sorted_keys(5000, seed=5)))
    assert "c.data" in device.files
    component.destroy()
    assert "c.data" not in device.files
    assert "c.levels" not in device.files


def test_static_multi_level_structure():
    device = BlockDevice(4096, NULL_DEVICE)
    rng = random.Random(6)
    keys = sorted(rng.sample(range(10**14), 80_000))
    component = StaticPgm(Pager(device), "c", items_of(keys), epsilon=8)
    assert component.num_levels >= 3  # data + at least one descriptor level + root


# -- dynamic LSM index ---------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        fresh(buffer_capacity=0)
    with pytest.raises(ValueError):
        fresh(level_ratio=1)


def test_inserts_fill_buffer_then_merge():
    index, _ = fresh(buffer_capacity=32)
    index.bulk_load(items_of(list(range(0, 10_000, 10))))
    for key in range(1, 321, 10):
        index.insert(key, key + 1)
    assert index.num_merges >= 1
    assert index.buffer_count < 32
    for key in range(1, 321, 10):
        assert index.lookup(key) == key + 1


def test_merge_deletes_component_files():
    index, device = fresh(buffer_capacity=16)
    index.bulk_load(items_of(list(range(0, 1000, 10))))
    files_before = set(device.files)
    for key in range(1, 1000, 6):
        index.insert(key, key + 1)
    # Merged component files are gone; storage was reclaimed.
    assert device.stats.freed_blocks > 0
    assert index.num_merges >= 2


def test_component_sizes_respect_level_capacities():
    index, _ = fresh(buffer_capacity=16, level_ratio=2)
    index.bulk_load(items_of(list(range(0, 5000, 10))))
    rng = random.Random(7)
    present = set(range(0, 5000, 10))
    for _ in range(700):
        key = rng.randrange(100_000)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    for level, component in enumerate(index.components):
        if component is not None:
            assert component.count <= index._level_capacity(level)


def test_lookup_searches_newest_component_first():
    index, _ = fresh(buffer_capacity=4)
    index.bulk_load(items_of([10, 20, 30, 40, 50]))
    # Shadow key 30 through the buffer; after this the newest value must win
    # even once merges move it into components.
    index.insert(31, 0)
    index.insert(29, 0)
    index.insert(30, 999)
    for _ in range(20):
        key = 1000 + _
        index.insert(key, key + 1)
    assert index.lookup(30) == 999


def test_tombstone_in_the_buffer_then_in_a_component():
    index, _ = fresh(buffer_capacity=4)
    keys = list(range(0, 400, 10))
    index.bulk_load(items_of(keys))
    assert index.delete(50)  # the tombstone sits in the buffer
    assert index.buffer_count == 1 and index.lookup(50) is None
    assert index.lookup_many([50, 60, 50]) == [None, 61, None]
    assert not index.update(50, 1) and not index.delete(50)
    for key in (1, 2, 3):  # fills the buffer: the tombstone moves to a component
        index.insert(key, key + 1)
    assert index.buffer_count == 0 and index.num_components == 2
    assert index.lookup(50) is None
    assert index.lookup_many([40, 50]) == [41, None]
    assert index.scan(40, 3) == [(40, 41), (60, 61), (70, 71)]
    assert not index.update(50, 1)
    index.insert(50, 7)  # re-insert shadows the component's tombstone
    assert index.lookup(50) == 7
    assert index.scan(40, 2) == [(40, 41), (50, 7)]
    assert index.verify() == len(keys) + 3


def test_scan_merges_buffer_and_components():
    index, _ = fresh(buffer_capacity=64)
    base = list(range(0, 1000, 10))
    index.bulk_load(items_of(base))
    extra = list(range(5, 300, 10))
    for key in extra:
        index.insert(key, key + 1)
    merged = sorted(base + extra)
    assert index.scan(0, 40) == [(k, k + 1) for k in merged[:40]]


def test_scan_pulls_one_entry_past_its_last():
    """The merge pulls a run's next entry after each one it takes, the
    scan's last included, so a scan ending exactly on the last entry of
    a data block is charged the next block too.  Pinned as a count of
    device reads; kills a drain of the only live run that stops at
    ``count`` entries."""
    index, device = fresh()
    keys = list(range(0, 4000, 4))
    index.bulk_load(items_of(keys))
    per_block = 4096 // 16

    def reads_of(count):
        index.pager.drop_last_block()
        before = device.stats.reads
        assert index.scan(keys[0], count) == items_of(keys[:count])
        return device.stats.reads - before

    assert reads_of(per_block - 1) == 1       # keys[0] is below every window
    assert reads_of(per_block) == 2           # ... and the block after it
    assert reads_of(per_block + 1) == 2
    assert reads_of(len(keys)) == reads_of(len(keys) + 5) == 4


def test_bulk_load_places_component_at_right_level():
    index, _ = fresh(buffer_capacity=16, level_ratio=2)
    index.bulk_load(items_of(list(range(1000))))
    level = next(i for i, c in enumerate(index.components) if c is not None)
    assert index._level_capacity(level) >= 1000
    assert level == 0 or index._level_capacity(level - 1) < 1000


def test_empty_bulk_load_allows_inserts():
    index, _ = fresh(buffer_capacity=8)
    index.bulk_load([])
    for key in range(30):
        index.insert(key * 7, key * 7 + 1)
    for key in range(30):
        assert index.lookup(key * 7) == key * 7 + 1


def test_levels_memory_residency_applies_to_future_components():
    index, device = fresh(buffer_capacity=8)
    index.bulk_load(items_of(list(range(0, 500, 5))))
    index.set_inner_memory_resident(True)
    for key in range(1, 200, 5):
        index.insert(key, key + 1)
    for component in index.components:
        if component is not None:
            assert component.levels_file.memory_resident


# -- the buffer search, against a reference ------------------------------------


def _per_probe_lookup_raw(index, key):
    """``_lookup_raw`` with one 16-byte ``read_bytes`` per probe of the
    buffer, nothing held between probes."""
    if index.buffer_count:
        lo, hi = 0, index.buffer_count
        while lo < hi:
            mid = (lo + hi) // 2
            mid_key, payload = entry_at(index.pager.read_bytes(
                index._buffer_file, mid * ENTRY_SIZE, ENTRY_SIZE), 0)
            if mid_key == key:
                return payload
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid
    for component in index.components:
        if component is not None:
            result = component.lookup(key)
            if result is not None:
                return result
    return None


def _pgm_stack(block_size, pool):
    buffer_pool = None if pool == "none" else BufferPool(8)
    pager = Pager(BlockDevice(block_size, HDD), buffer_pool=buffer_pool,
                  write_back=pool == "write-back")
    index = PgmIndex(pager)
    index.bulk_load(items_of(_BULK_KEYS))
    return index


_BULK_KEYS = random_sorted_keys(2000, seed=34, key_space=10**9)


@pytest.mark.parametrize("instrument", ["bare", "traced", "hooked"])
@pytest.mark.parametrize("pool", ["none", "lru", "write-back"])
@pytest.mark.parametrize("block_size", [4096, 1000])
def test_buffer_search_charges_like_per_probe_reads(block_size, pool, instrument):
    """Inserts fill the buffer from 1 to its 585 entries (and flush it);
    between them, lookups of buffered, bulk-loaded and absent keys and
    batches of them run once with the buffer search and once with
    per-probe reads.  Every ``StorageStats`` field and pool probe after
    every operation, the pages, and what a tracer or an access hook saw
    are the same; only the tracer's ``reuse_hits`` may fall (a probe
    into the block the last one read is a last-block reuse hit of the
    reference).  1000-byte blocks put entries across block boundaries."""
    index = _pgm_stack(block_size, pool)
    twin = _pgm_stack(block_size, pool)
    twin._lookup_raw = lambda key: _per_probe_lookup_raw(twin, key)
    watch, twin_watch = Watch(index, instrument), Watch(twin, instrument)
    rng = random.Random(34)
    bulk = set(_BULK_KEYS)
    fresh_keys = [key for key in rng.sample(range(1, 10**9), 600)
                  if key not in bulk]
    for i, key in enumerate(fresh_keys):
        index.insert(key, key + 1)
        twin.insert(key, key + 1)
        probes = [fresh_keys[rng.randrange(i + 1)], _BULK_KEYS[i % 2000],
                  key + 1]
        for probe in probes:
            assert index.lookup(probe) == twin.lookup(probe)
        if i % 50 == 0:
            assert index.lookup_many(probes) == twin.lookup_many(probes)
        assert charges_of(index) == charges_of(twin), key
    assert index.num_merges == 1  # the buffer ran 1..585 and flushed
    assert watch.seen() == twin_watch.seen()
    assert watch.reuse_hits <= twin_watch.reuse_hits
    assert pages_of(index) == pages_of(twin)
