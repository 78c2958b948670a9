"""Unit tests for simulated time."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.world.clock import MINUTES_PER_DAY, SimClock, SimTime


class DescribeSimTime:
    def test_from_days(self):
        assert SimTime.from_days(2).minutes == 2 * MINUTES_PER_DAY

    def test_days_property(self):
        assert SimTime(MINUTES_PER_DAY * 3).days == 3.0

    def test_plus_days_and_minutes(self):
        t = SimTime(0).plus_days(1.5).plus_days(30 / MINUTES_PER_DAY)
        assert t.minutes == MINUTES_PER_DAY + MINUTES_PER_DAY // 2 + 30

    def test_subtraction_gives_minutes(self):
        assert SimTime(100) - SimTime(40) == 60

    def test_ordering(self):
        assert SimTime(1) < SimTime(2)
        assert SimTime(2) >= SimTime(2)

    def test_epoch_calendar(self):
        assert SimTime(0).calendar() == "2012-01-01"

    @pytest.mark.parametrize(
        "date,expected",
        [
            ((2012, 2, 29), "2012-02-29"),  # 2012 is a leap year
            ((2012, 12, 31), "2012-12-31"),
            ((2013, 1, 1), "2013-01-01"),
            ((2013, 3, 15), "2013-03-15"),
            ((2013, 8, 10), "2013-08-10"),
        ],
    )
    def test_from_date_roundtrip(self, date, expected):
        assert SimTime.from_date(*date).calendar() == expected

    @pytest.mark.parametrize(
        "bad",
        [(2011, 5, 1), (2013, 0, 1), (2013, 13, 1), (2013, 2, 29), (2013, 4, 31)],
    )
    def test_from_date_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            SimTime.from_date(*bad)

    def test_str_is_calendar(self):
        assert str(SimTime.from_date(2013, 4, 10)) == "2013-04-10"

    @given(
        st.integers(min_value=2012, max_value=2020),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=28),
    )
    def test_calendar_roundtrip_property(self, year, month, day):
        assert SimTime.from_date(year, month, day).calendar() == (
            f"{year}-{month:02d}-{day:02d}"
        )


class DescribeSimClock:
    def test_advance_days(self):
        clock = SimClock()
        clock.advance_days(2.5)
        assert clock.now.days == pytest.approx(2.5)

    def test_advance_to(self):
        clock = SimClock()
        target = SimTime.from_date(2013, 1, 1)
        clock.advance_to(target)
        assert clock.now == target

    def test_rejects_rewind(self):
        clock = SimClock(SimTime.from_days(5))
        with pytest.raises(ValueError):
            clock.advance_to(SimTime.from_days(4))
        with pytest.raises(ValueError):
            clock.advance_days(-1)

    def test_tick_callbacks_fire_with_new_time(self):
        clock = SimClock()
        seen = []
        clock.on_tick(seen.append)
        clock.advance_days(1)
        clock.advance_days(1)
        assert [t.days for t in seen] == [1.0, 2.0]

    def test_zero_advance_still_ticks(self):
        clock = SimClock()
        seen = []
        clock.on_tick(seen.append)
        clock.advance_days(0)
        assert len(seen) == 1

    def test_multiple_callbacks_in_order(self):
        clock = SimClock()
        order = []
        clock.on_tick(lambda _t: order.append("a"))
        clock.on_tick(lambda _t: order.append("b"))
        clock.advance_days(1)
        assert order == ["a", "b"]
