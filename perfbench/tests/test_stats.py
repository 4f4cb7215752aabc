"""Percentile and sample-count math."""

import pytest

from perfbench.hostref import REFERENCE_S, SENSITIVITY, adjust_scales
from perfbench.stats import percentile, rank, ratio, samples_beyond


def test_nearest_rank_percentiles_are_measured_values():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 100) == 100.0
    assert percentile(list(reversed(values)), 90) == 90.0


def test_small_samples():
    assert percentile([7.0], 50) == 7.0
    assert percentile([1.0, 2.0], 50) == 1.0
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 90) == 4.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p90():
    assert rank(100, 90) == 90
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(60, 90) == 6
    assert samples_beyond(61, 90) == 6
    assert samples_beyond(0, 90) == 0
    assert samples_beyond(20, 50) == 10


def test_rank_is_exact_at_integer_boundaries():
    # 0.9 * 70 is 62.99999... in binary floating point; the rank is 63.
    assert rank(70, 90) == 63
    assert rank(10, 10) == 1


def test_ratio():
    assert ratio(1.0, 4.0) == 0.25
    assert ratio(3.0, 0.0) == 0.0


def test_adjust_scales_use_the_timings_on_both_sides_of_an_epoch():
    timings = [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]
    half = 0.5**SENSITIVITY
    assert adjust_scales(timings) == pytest.approx([1.0, half, half])
    assert adjust_scales([REFERENCE_S]) == []
