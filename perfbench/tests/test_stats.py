import math
import random

import pytest

from stats import MIN_BEYOND, MIN_SAMPLES, latency_summary, spread


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    summary = latency_summary([float(v) for v in range(1, 101)])
    assert summary["tail"] == 90.0
    assert summary["tail_percentile"] == 90.0
    assert summary["samples"] == 100
    assert summary["p50"] == 50.5


def test_tail_sample_count_and_order_independence():
    values = [float(v) for v in range(250)]
    random.Random(1).shuffle(values)
    summary = latency_summary(values)
    beyond = [v for v in values if v > summary["tail"]]
    assert len(beyond) == MIN_BEYOND
    assert summary["samples"] == 250


@pytest.mark.parametrize("count", range(MIN_SAMPLES, MIN_SAMPLES + 40))
def test_tail_never_below_median(count):
    rng = random.Random(count)
    for _ in range(20):
        summary = latency_summary([rng.expovariate(1.0) for _ in range(count)])
        assert summary["tail"] >= summary["p50"]


def test_too_few_samples_for_a_tail():
    with pytest.raises(ValueError):
        latency_summary([1.0] * (MIN_SAMPLES - 1))


def test_failed_operations_sit_beyond_every_percentile():
    ok = [1.0] * 100
    assert latency_summary(ok + [math.inf] * MIN_BEYOND)["tail"] == 1.0
    assert latency_summary(ok + [math.inf] * (MIN_BEYOND + 1))["tail"] == math.inf


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((11.5 - 8.5) / 10.0)
