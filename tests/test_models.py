"""Unit and property tests for the model substrate (linear, PLA, FMCD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    LinearModel,
    build_fmcd_model,
    conflict_degree,
    lipp_node_slots,
    optimal_segments,
    shrinking_cone_segments,
)

sorted_unique_keys = st.lists(
    st.integers(0, 2**62), min_size=1, max_size=300, unique=True
).map(sorted)


# -- LinearModel --------------------------------------------------------------

def test_predict_anchored():
    model = LinearModel(slope=2.0, intercept=1.0, anchor=10)
    assert model.predict(10) == 1.0
    assert model.predict(15) == 11.0


def test_predict_clamped_bounds():
    model = LinearModel(slope=1.0, intercept=0.0, anchor=0)
    assert model.predict_clamped(-100 + 2**63, 10) == 9  # way past the end
    assert model.predict_clamped(0, 10) == 0
    with pytest.raises(ValueError):
        model.predict_clamped(5, 0)


def test_fit_least_squares_recovers_exact_line():
    keys = list(range(100, 1100, 10))
    positions = list(range(100))
    model = LinearModel.fit_least_squares(keys, positions)
    for key, pos in zip(keys, positions):
        assert abs(model.predict(key) - pos) < 1e-6


def test_fit_least_squares_single_point():
    model = LinearModel.fit_least_squares([42], [7])
    assert model.predict(42) == 7.0


def test_fit_least_squares_empty_raises():
    with pytest.raises(ValueError):
        LinearModel.fit_least_squares([], [])


def test_fit_min_max_endpoints():
    model = LinearModel.fit_min_max(1000, 2000, 11)
    assert model.predict_clamped(1000, 11) == 0
    assert model.predict_clamped(2000, 11) == 10


def test_fit_min_max_degenerate_range():
    model = LinearModel.fit_min_max(5, 5, 10)
    assert model.predict_clamped(5, 10) == 0


def test_anchored_precision_at_uint64_scale():
    """The motivating case: dense keys near 2**62 must predict exactly."""
    base = 2**62 - 10_000
    keys = [base + i for i in range(2000)]
    model = LinearModel.fit_least_squares(keys, list(range(2000)))
    worst = max(abs(model.predict(k) - i) for i, k in enumerate(keys))
    assert worst < 1.0


# -- PLA segmentation -----------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(sorted_unique_keys, st.sampled_from([0, 1, 4, 16, 64]))
def test_optimal_segments_respect_error_bound(keys, epsilon):
    segments = optimal_segments(keys, epsilon)
    covered = 0
    for seg in segments:
        assert seg.first_key == keys[seg.first_pos]
        for i in range(seg.first_pos, seg.first_pos + seg.length):
            # +0.5 slack: the model midpoint is a float, the bound holds
            # for the exact feasible region.
            assert abs(seg.model.predict(keys[i]) - i) <= epsilon + 0.5
        covered += seg.length
    assert covered == len(keys)


@settings(max_examples=120, deadline=None)
@given(sorted_unique_keys, st.sampled_from([1, 8, 64]))
def test_greedy_segments_respect_error_bound(keys, epsilon):
    segments = shrinking_cone_segments(keys, epsilon)
    covered = 0
    for seg in segments:
        for i in range(seg.first_pos, seg.first_pos + seg.length):
            assert abs(seg.model.predict(keys[i]) - i) <= epsilon + 0.5
        covered += seg.length
    assert covered == len(keys)


@settings(max_examples=80, deadline=None)
@given(sorted_unique_keys, st.sampled_from([1, 4, 32]))
def test_optimal_never_needs_more_segments_than_greedy(keys, epsilon):
    assert len(optimal_segments(keys, epsilon)) <= len(
        shrinking_cone_segments(keys, epsilon))


def test_segments_partition_positions():
    keys = list(range(0, 10_000, 7))
    segments = optimal_segments(keys, 16)
    positions = []
    for seg in segments:
        positions.extend(range(seg.first_pos, seg.first_pos + seg.length))
    assert positions == list(range(len(keys)))


def test_larger_epsilon_never_more_segments():
    import random
    rng = random.Random(5)
    keys = sorted(rng.sample(range(10**10), 5000))
    counts = [len(optimal_segments(keys, e)) for e in (4, 16, 64, 256)]
    assert counts == sorted(counts, reverse=True)


def test_segments_reject_unsorted_input():
    with pytest.raises(ValueError):
        optimal_segments([3, 1, 2], 8)
    with pytest.raises(ValueError):
        optimal_segments([1, 1], 8)
    with pytest.raises(ValueError):
        shrinking_cone_segments([2, 2], 8)


def test_unsorted_input_error_names_the_index():
    for segmenter in (optimal_segments, shrinking_cone_segments):
        with pytest.raises(ValueError, match="violation at index 3: 9 >= 9"):
            segmenter([1, 5, 9, 9, 12], 8)
        with pytest.raises(ValueError, match="violation at index 2: 7 >= 4"):
            segmenter(np.array([1, 7, 4], dtype=np.uint64), 8)


@pytest.mark.parametrize("segmenter", [optimal_segments, shrinking_cone_segments])
def test_uint64_array_segments_like_the_list(segmenter):
    """``make_dataset`` returns ``np.uint64`` arrays; fed to the integer
    cross products as numpy scalars they raised ``OverflowError`` (numpy
    2) or would round through float64 (numpy 1.x promotion)."""
    from repro.datasets import make_dataset
    top = np.arange(2**64 - 3000, 2**64 - 1, 3, dtype=np.uint64)
    for keys in (make_dataset("fb", 20_000, seed=1), top):
        from_array = segmenter(keys, 8)
        assert from_array == segmenter(keys.tolist(), 8)
        assert type(from_array[-1].first_key) is int
        assert type(from_array[-1].model.anchor) is int


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        optimal_segments([1, 2, 3], -1)


def test_empty_input():
    assert optimal_segments([], 8) == []
    assert shrinking_cone_segments([], 8) == []


def test_single_key_segment():
    segments = optimal_segments([42], 8)
    assert len(segments) == 1
    assert abs(segments[0].model.predict(42)) <= 8.5


def test_perfectly_linear_data_is_one_segment():
    keys = list(range(0, 100_000, 10))
    assert len(optimal_segments(keys, 1)) == 1


# -- FMCD ------------------------------------------------------------------------

def test_lipp_node_slots_tiers():
    assert lipp_node_slots(10) == 50
    assert lipp_node_slots(99_999) == 99_999 * 5
    assert lipp_node_slots(100_000) == 200_000
    assert lipp_node_slots(2_000_000) == 2_400_000
    with pytest.raises(ValueError):
        lipp_node_slots(0)


def test_fmcd_uniform_data_low_conflict():
    import random
    keys = sorted(random.Random(1).sample(range(10**12), 5000))
    result = build_fmcd_model(keys, lipp_node_slots(len(keys)))
    assert result.conflict_degree <= 8
    assert not result.fallback


def test_fmcd_two_keys_no_conflict():
    result = build_fmcd_model([10, 10**9], 10)
    assert result.conflict_degree == 1


def test_fmcd_zero_keys_rejected():
    with pytest.raises(ValueError):
        build_fmcd_model([], 10)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2**62), min_size=2, max_size=200, unique=True).map(sorted))
def test_fmcd_conflict_degree_is_achieved_maximum(keys):
    """The reported degree must equal the actual max slot collision."""
    result = build_fmcd_model(keys, lipp_node_slots(len(keys)))
    slots = {}
    for key in keys:
        slot = result.model.predict_clamped(key, result.num_slots)
        slots[slot] = slots.get(slot, 0) + 1
    assert result.conflict_degree == max(slots.values())


def test_conflict_degree_orders_cluster_hardness():
    uniform = list(range(0, 10**9, 10**5))
    clustered = sorted(set(list(range(0, 10**9, 10**6))
                           + [5 * 10**8 + i for i in range(500)]))
    assert conflict_degree(clustered) > conflict_degree(uniform)


def test_fmcd_dense_run_at_uint64_scale_no_collapse():
    """The anchored model must not collapse a dense far-away run."""
    base = 2**61
    keys = [base + i for i in range(3000)]
    result = build_fmcd_model(keys, lipp_node_slots(len(keys)))
    assert result.conflict_degree <= 2
