"""Tests for the ablation experiments and extension features."""

import pytest

from repro.bench import EXPERIMENTS, Scale, run_experiment
from repro.core import FitingTreeIndex
from repro.storage import NULL_DEVICE, BlockDevice, Pager

from tests.util import items_of, random_sorted_keys

TINY = Scale(n_read=6000, n_write_bulk=1500, n_write_ops=600,
             n_lookup_ops=80, n_scan_ops=15)


def test_ablations_registered():
    assert {"ablation-alex-layout", "ablation-fiting-segmentation",
            "ablation-error-bound", "scalability"} <= set(EXPERIMENTS)


def test_fiting_greedy_segmentation_option():
    keys = random_sorted_keys(15_000, seed=3)
    counts = {}
    for segmentation in ("streaming", "greedy"):
        index = FitingTreeIndex(Pager(BlockDevice(4096, NULL_DEVICE)),
                                segmentation=segmentation)
        index.bulk_load(items_of(keys))
        counts[segmentation] = index.num_segments
        assert index.lookup(keys[100]) == keys[100] + 1
    assert counts["streaming"] <= counts["greedy"]


def test_fiting_rejects_unknown_segmentation():
    with pytest.raises(ValueError):
        FitingTreeIndex(Pager(BlockDevice(4096, NULL_DEVICE)), segmentation="magic")


def test_alex_layout_ablation_rows():
    result = run_experiment("ablation-alex-layout", TINY)
    assert len(result.rows) == 3
    EXPERIMENTS["ablation-alex-layout"].check(result.rows)


def test_fiting_segmentation_ablation_rows():
    EXPERIMENTS["ablation-fiting-segmentation"].check(
        run_experiment("ablation-fiting-segmentation", TINY).rows)


def test_error_bound_ablation_rows():
    result = run_experiment("ablation-error-bound", TINY)
    assert {row["index"] for row in result.rows} == {"fiting", "pgm"}
    EXPERIMENTS["ablation-error-bound"].check(result.rows)


def test_scalability_rows():
    EXPERIMENTS["scalability"].check(run_experiment("scalability", TINY).rows)
