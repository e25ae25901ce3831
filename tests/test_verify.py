"""Tests for the verify() integrity checkers and the zipfian workloads."""

import random

import pytest

from repro.core import index_names, make_index
from repro.datasets import make_dataset
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager
from repro.workloads import WORKLOADS, build_workload

from tests.util import items_of, random_sorted_keys

ALL_INDEXES = index_names(include_plid=True)
KEYS = random_sorted_keys(6000, seed=13)


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_verify_counts_bulk_entries(name):
    index = make_index(name, Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    assert index.verify() == len(KEYS)


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_verify_tracks_crud(name):
    index = make_index(name, Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    rng = random.Random(1)
    present = set(KEYS)
    while len(present) < len(KEYS) + 800:
        key = rng.randrange(10**12)
        if key in present:
            continue
        present.add(key)
        index.insert(key, key + 1)
    for key in rng.sample(KEYS, 120):
        assert index.delete(key)
        present.discard(key)
    index.update(next(iter(present)), 5)
    assert index.verify() == len(present)


@pytest.mark.parametrize("name", ALL_INDEXES)
def test_verify_charges_no_io(name):
    device = BlockDevice(4096, HDD)
    index = make_index(name, Pager(device))
    index.bulk_load(items_of(KEYS))
    before = device.stats.snapshot()
    index.verify()
    delta = device.stats.diff(before)
    assert delta.reads == 0
    assert delta.elapsed_us == 0.0


@pytest.mark.parametrize("name", ["pgm", "plid", "hybrid-pgm", "fiting"])
def test_verify_fails_when_a_bulk_loaded_key_is_unreachable(name, monkeypatch):
    """``verify()`` reads every stored key back through the point path.
    Without the successor cap of ``descend`` (DESIGN.md Section 18), 129 /
    203 / 178 of these keys — the runs right after a giant gap — are
    unreachable through pgm / plid / hybrid-pgm; a ``verify()`` that
    only walks the data in order stays green over them.  fiting keeps
    each segment's model in its directory record: one record's slope is
    zeroed."""
    from repro.core import fiting, pgm
    index = make_index(name, Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(
        int(key) for key in make_dataset("fb", 50_000, seed=1)))
    assert index.verify() == 50_000
    if name == "fiting":
        first_key, data = next(index.directory.iterate_from(0))
        *layout, _slope, intercept = fiting._DESCRIPTOR.unpack(data)
        data_capacity = layout[2]
        assert data_capacity > 2 * index.error_bound + 3, "no window covers it"
        assert index.directory.update(
            first_key, fiting._DESCRIPTOR.pack(*layout, 0.0, intercept))
    else:
        capped = pgm._window
        monkeypatch.setattr(
            pgm, "_window", lambda descriptor, _successor, *rest: capped(
                descriptor, None, *rest))
    with pytest.raises(AssertionError, match="unreachable|routes elsewhere"):
        index.verify()


@pytest.mark.parametrize("name, point_path", [("alex", "lookup"),
                                              ("lipp", "_lookup_walk")])
def test_verify_reads_every_stored_key_back(name, point_path, monkeypatch):
    """alex and lipp ``verify()`` read every stored key back through the
    point path as the other indexes do, so a point path that loses one
    stored key turns it red although the structure checks still hold."""
    index = make_index(name, Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    assert index.verify() == len(KEYS)
    lost = KEYS[len(KEYS) // 2]
    point = getattr(index, point_path)
    monkeypatch.setattr(index, point_path,
                        lambda key: None if key == lost else point(key))
    with pytest.raises(AssertionError, match="reads back"):
        index.verify()


def test_verify_detects_corruption():
    index = make_index("btree", Pager(BlockDevice(4096, NULL_DEVICE)))
    index.bulk_load(items_of(KEYS))
    # Corrupt a leaf block directly (swap two keys).
    leaf_file = index._leaf_file
    block = bytearray(leaf_file.blocks[0])
    block[16:24], block[32:40] = block[32:40], block[16:24]
    leaf_file.blocks[0] = block
    with pytest.raises(AssertionError):
        index.verify()


# -- zipfian workloads -----------------------------------------------------------

def test_zipfian_lookups_are_skewed():
    import numpy as np
    keys = np.asarray(random_sorted_keys(5000, seed=2), dtype=np.uint64)
    _, uniform_ops = build_workload(WORKLOADS["lookup_only"], keys, 4000,
                                    lookup_distribution="uniform")
    _, zipf_ops = build_workload(WORKLOADS["lookup_only"], keys, 4000,
                                 lookup_distribution="zipfian", zipf_s=0.9)
    def top_share(ops):
        from collections import Counter
        counts = Counter(key for _, key in ops)
        top = sum(c for _, c in counts.most_common(50))
        return top / len(ops)
    assert top_share(zipf_ops) > 3 * top_share(uniform_ops)


def test_zipfian_keys_are_valid():
    import numpy as np
    keys = np.asarray(random_sorted_keys(3000, seed=3), dtype=np.uint64)
    existing = set(int(k) for k in keys)
    _, ops = build_workload(WORKLOADS["lookup_only"], keys, 500,
                            lookup_distribution="zipfian")
    assert all(key in existing for _, key in ops)


def test_zipfian_mixed_workload_targets_present_keys():
    import numpy as np
    keys = np.asarray(random_sorted_keys(3000, seed=4), dtype=np.uint64)
    bulk, ops = build_workload(WORKLOADS["balanced"], keys, 400,
                               lookup_distribution="zipfian")
    present = {k for k, _ in bulk}
    for kind, key in ops:
        if kind == "insert":
            present.add(key)
        else:
            assert key in present


def test_invalid_distribution_rejected():
    import numpy as np
    keys = np.asarray(random_sorted_keys(100, seed=5), dtype=np.uint64)
    with pytest.raises(ValueError):
        build_workload(WORKLOADS["lookup_only"], keys, 10,
                       lookup_distribution="gaussian")
    with pytest.raises(ValueError):
        build_workload(WORKLOADS["lookup_only"], keys, 10,
                       lookup_distribution="zipfian", zipf_s=1.5)
