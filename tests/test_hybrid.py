"""Hybrid-design-specific tests (Table 5 of the paper)."""

import random

import pytest

from repro.core import HybridIndex, make_index
from repro.storage import NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, random_sorted_keys

KEYS = random_sorted_keys(30_000, seed=11)
KINDS = ("fiting", "pgm", "alex", "lipp", "btree")


def fresh(kind, **kwargs):
    device = BlockDevice(4096, NULL_DEVICE)
    return HybridIndex(Pager(device), inner_kind=kind, **kwargs), device


def test_unknown_inner_kind_rejected():
    device = BlockDevice(4096, NULL_DEVICE)
    with pytest.raises(ValueError):
        HybridIndex(Pager(device), inner_kind="nope")


def test_leaf_fill_bounds():
    with pytest.raises(ValueError):
        fresh("pgm", leaf_fill=0.01)


@pytest.mark.parametrize("kind", KINDS)
def test_inner_index_holds_leaf_directory(kind):
    index, _ = fresh(kind)
    index.bulk_load(items_of(KEYS))
    per_leaf = int(index.leaves.capacity * index.leaf_fill)
    expected_leaves = (len(KEYS) + per_leaf - 1) // per_leaf
    assert index.num_leaves == expected_leaves


@pytest.mark.parametrize("kind", KINDS)
def test_insert_unsupported(kind):
    index, _ = fresh(kind)
    index.bulk_load(items_of(KEYS))
    with pytest.raises(NotImplementedError):
        index.insert(1, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_name_reflects_inner_kind(kind):
    index, _ = fresh(kind)
    assert index.name == f"hybrid-{kind}"


@pytest.mark.parametrize("kind", KINDS)
def test_route_and_leaf_binary_search(kind):
    index, _ = fresh(kind)
    index.bulk_load(items_of(KEYS))
    rng = random.Random(1)
    for key in rng.sample(KEYS, 200):
        assert index.lookup(key) == key + 1
    assert index.lookup(KEYS[-1] + 1) is None  # routed past the directory


@pytest.mark.parametrize("kind", KINDS)
def test_scan_follows_leaf_links(kind):
    index, _ = fresh(kind)
    index.bulk_load(items_of(KEYS))
    start = len(KEYS) // 2
    assert index.scan(KEYS[start], 600) == items_of(KEYS)[start : start + 600]


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "lipp"])
def test_memory_resident_inner_cuts_lookup_cost(kind):
    device = BlockDevice(4096)
    pager = Pager(device)
    index = HybridIndex(pager, inner_kind=kind)
    index.bulk_load(items_of(KEYS))
    index.set_inner_memory_resident(True)
    pager.drop_last_block()
    before = device.stats.reads
    index.lookup(KEYS[777])
    # The leaf is one block: a resident inner part means exactly one read.
    assert device.stats.reads - before == 1


def test_file_roles_separate_inner_and_leaf():
    index, device = fresh("pgm")
    index.bulk_load(items_of(KEYS))
    roles = index.file_roles()
    assert roles[index._leaf_file.name] == "leaf"
    assert any(role == "inner" for name, role in roles.items()
               if name != index._leaf_file.name)


def test_registry_exposes_hybrids():
    device = BlockDevice(4096, NULL_DEVICE)
    index = make_index("hybrid-lipp", Pager(device))
    assert isinstance(index, HybridIndex)
    assert index.inner_kind == "lipp"
