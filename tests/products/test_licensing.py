"""Unit tests for the concurrent-license fail-open model."""

from __future__ import annotations

import pytest

from repro.products.licensing import LicenseModel
from repro.world.clock import SimTime


def make_model(seats=100, mean=80.0, stddev=20.0, seed=5):
    return LicenseModel(
        seats=seats, mean_load=mean, load_stddev=stddev, seed=seed
    )


class DescribeLicenseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_model(seats=0)
        with pytest.raises(ValueError):
            make_model(mean=-1)
        with pytest.raises(ValueError):
            make_model(stddev=-1)

    def test_deterministic_per_minute_and_salt(self):
        model = make_model()
        t = SimTime.from_days(3)
        assert model.concurrent_users(t, "a.com") == model.concurrent_users(t, "a.com")
        assert model.filtering_active(t, "a.com") == model.filtering_active(t, "a.com")

    def test_salt_decorrelates_flows(self):
        """§4.4: different URLs see different filter states in the same
        minute."""
        model = make_model(seats=100, mean=100.0, stddev=30.0)
        t = SimTime.from_days(1)
        states = {
            model.filtering_active(t, f"host{i}.com") for i in range(40)
        }
        assert states == {True, False}

    def test_time_decorrelates(self):
        model = make_model(seats=100, mean=100.0, stddev=30.0)
        states = {
            model.filtering_active(SimTime.from_days(d), "x.com")
            for d in range(1, 40)
        }
        assert states == {True, False}

    def test_low_load_always_active(self):
        model = make_model(seats=1000, mean=10.0, stddev=1.0)
        for day in range(1, 20):
            assert model.filtering_active(SimTime.from_days(day), "x.com")

    def test_overflow_fails_open(self):
        model = make_model(seats=10, mean=1000.0, stddev=1.0)
        for day in range(1, 20):
            assert not model.filtering_active(SimTime.from_days(day), "x.com")

    def test_load_never_negative(self):
        model = make_model(seats=10, mean=0.0, stddev=50.0)
        for day in range(1, 30):
            assert model.concurrent_users(SimTime.from_days(day), "x") >= 0

    def test_analytic_overflow_matches_empirical(self):
        model = make_model(seats=100, mean=100.0, stddev=25.0, seed=9)
        analytic = model.overflow_probability()
        trials = 3000
        overflows = sum(
            1
            for i in range(trials)
            if not model.filtering_active(SimTime(i * 17 + 1), f"h{i}")
        )
        empirical = overflows / trials
        assert abs(empirical - analytic) < 0.05

    def test_zero_stddev_overflow_edges(self):
        assert make_model(seats=10, mean=11.0, stddev=0.0).overflow_probability() == 1.0
        assert make_model(seats=10, mean=9.0, stddev=0.0).overflow_probability() == 0.0
