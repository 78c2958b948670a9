import pytest

from bench import stats


@pytest.mark.parametrize(
    "level, enough",
    [(50, 20), (90, 100), (95, 200), (99, 1000), (99.9, 10_000)],
)
def test_tail_needs_ten_samples_beyond_it(level, enough):
    samples = [float(value) for value in range(enough)]
    assert stats.beyond(enough, level) == 10
    assert stats.tail(samples, level) == samples[enough - 11]
    with pytest.raises(ValueError):
        stats.tail(samples[:-1], level)


def test_nearest_rank_percentile():
    samples = [float(value) for value in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 95) == 95.0
    assert stats.percentile(samples, 100) == 100.0
    assert stats.beyond(len(samples), 95) == 5


def test_spread_is_interquartile_distance_over_median():
    q1, median, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert stats.spread([7.0]) == 0.0
