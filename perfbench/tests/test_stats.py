"""Percentile rule and spread arithmetic."""

import pytest

from stats import geomean, min_samples, percentile, quartile_spread


def test_min_samples_leave_ten_beyond():
    assert min_samples(50) == 20
    assert min_samples(90) == 100


@pytest.mark.parametrize("p, n", [(50, 20), (90, 100), (50, 21)])
def test_percentile_needs_ten_samples_beyond(p, n):
    values = list(range(n))
    got = percentile(values, p)
    assert sum(v > got for v in values) >= 10
    with pytest.raises(ValueError, match="need 10"):
        percentile(values[: min_samples(p) - 1], p)


def test_percentile_is_nearest_rank_and_order_free():
    values = [float(v) for v in range(100, 0, -1)]  # 100 .. 1
    assert percentile(values, 90) == 90.0
    assert percentile(values[:20], 50) == 90.0  # 100 .. 81: tenth smallest


def test_geomean_and_spread():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)
