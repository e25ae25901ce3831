"""Disk-profile arithmetic and documentation-snippet tests."""

import pytest

from repro.storage import HDD, NULL_DEVICE, SSD, DiskProfile


def test_hdd_positioning_dominates():
    random = HDD.read_cost_us(4096, sequential=False)
    sequential = HDD.read_cost_us(4096, sequential=True)
    assert random / sequential > 50  # seek + rotation vs streaming


def test_ssd_small_sequential_discount():
    random = SSD.read_cost_us(4096, sequential=False)
    sequential = SSD.read_cost_us(4096, sequential=True)
    assert 1.0 < random / sequential < 5


def test_writes_cost_at_least_reads_on_ssd():
    assert SSD.write_cost_us(4096, False) > SSD.read_cost_us(4096, False)


def test_profiles_are_frozen():
    with pytest.raises(Exception):
        HDD.read_positioning_us = 1.0


def test_custom_profile():
    profile = DiskProfile("tape", 10_000.0, 1.0, 20_000.0, 2.0, 0.5)
    assert profile.read_cost_us(2048, sequential=True) == 1.0 + 0.5 * 2
    assert profile.write_cost_us(2048, sequential=False) == 20_000.0 + 0.5 * 2


def test_readme_quickstart_snippet():
    """The exact code shown in README.md must keep working."""
    from repro import HDD, StackSpec, build

    spec = StackSpec("alex", profile=HDD, block_size=4096)
    stack = build(spec, [(k, k + 1) for k in range(0, 10_000_000, 100)])
    index = stack.index

    index.insert(5, 6)
    assert index.lookup(5) == 6
    assert index.scan(0, 3) == [(0, 1), (5, 6), (100, 101)]
    assert stack.device.stats.reads > 0


def test_package_docstring_snippet():
    """The snippet in repro/__init__ must keep working."""
    from repro import StackSpec, build

    stack = build(StackSpec("alex"), [(k, k + 1) for k in range(0, 1_000_000, 10)])
    stack.index.insert(5, 6)
    assert stack.index.lookup(5) == 6
