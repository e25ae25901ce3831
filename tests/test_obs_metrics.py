"""Unit and property tests for repro.obs.metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, latency_bounds


def test_bounds_factories_strictly_increasing():
    for bounds in (latency_bounds(), latency_bounds(per_decade=1),
                   latency_bounds(per_decade=10)):
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram([2.0, 1.0])


def test_empty_histogram_summary():
    h = Histogram([1.0, 10.0])
    assert h.count == 0
    assert h.percentile(50) == 0.0
    assert h.summary() == {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                           "p99": 0.0, "max": 0.0}


def test_histogram_counts_and_extremes():
    h = Histogram([10.0, 100.0, 1000.0])
    for v in (5, 7, 50, 200, 5000):
        h.record(v)
    assert h.count == 5
    assert h.min == 5 and h.max == 5000
    assert h.counts == [2, 1, 1, 1]  # two <=10, one <=100, one <=1000, one over
    assert h.mean == pytest.approx((5 + 7 + 50 + 200 + 5000) / 5)


def test_percentile_max_is_exact():
    h = Histogram(latency_bounds())
    values = [3, 17, 90, 1200, 88000]
    for v in values:
        h.record(v)
    assert h.percentile(100) == max(values)
    assert h.summary()["max"] == max(values)


def test_percentile_never_outside_observed_range():
    h = Histogram([100.0, 200.0])
    h.record(150.0)
    for q in (0, 1, 50, 99, 100):
        assert h.percentile(q) == 150.0  # single sample: every quantile is it


def test_percentile_rejects_out_of_range():
    h = Histogram([1.0])
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=300),
       st.sampled_from([0.0, 50.0, 90.0, 99.0, 100.0]))
def test_percentile_within_one_bucket_of_order_statistic(values, q):
    """The estimate lands in (or adjacent to) the bucket holding the
    nearest-rank order statistic — the histogram's stated error bound.

    (numpy's default linear-interpolation percentile uses a different
    rank convention, so it is not the reference here; the histogram's
    rank is ``q/100 * count``, nearest-rank style.)
    """
    import bisect
    import math

    bounds = latency_bounds(low_us=1.0, high_us=1e7, per_decade=4)
    h = Histogram(bounds)
    for v in values:
        h.record(v)
    rank = max(math.ceil(q / 100.0 * len(values)), 1)
    reference = sorted(values)[rank - 1]
    estimate = h.percentile(q)
    assert h.min <= estimate <= h.max
    ref_bucket = bisect.bisect_left(bounds, reference)
    est_bucket = bisect.bisect_left(bounds, estimate)
    assert abs(est_bucket - ref_bucket) <= 1


# -- record_many: the array path of the per-value loop -------------------------

_BOUNDS = (1.0, 2.5, 10.0, 100.0)
# values on a bound, between bounds, past the last (overflow), duplicates
_values = st.lists(st.one_of(
    st.sampled_from(_BOUNDS + (0.0, -0.0, 1e9)),
    st.floats(-1e3, 1e12, allow_nan=False, allow_infinity=False)), max_size=60)


def _state(hist):
    return (hist.counts, hist.count, hist.total.hex(), hist.min, hist.max,
            None if hist.min is None else (hist.min.hex(), hist.max.hex()),
            hist.summary())


@settings(max_examples=300, deadline=None)
@example(before=[], values=[0.0, -0.0, 2.5, 1e9, -0.0, 0.0], as_array=False)
@example(before=[3.0], values=[], as_array=True)
@given(before=_values, values=_values, as_array=st.booleans())
def test_record_many_is_the_record_loop_bit_for_bit(before, values, as_array):
    """After any earlier samples, ``record_many`` leaves the counts, the
    count, the total (to the last bit), the extremes (the first of equal
    ones) and the summary exactly where recording one value at a time
    does — for an empty input too."""
    looped, batched = Histogram(_BOUNDS), Histogram(_BOUNDS)
    for value in before:
        looped.record(value)
        batched.record(value)
    for value in values:
        looped.record(value)
    batched.record_many(np.array(values) if as_array else values)
    assert _state(batched) == _state(looped)

