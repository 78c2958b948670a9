"""Simulated time.

Everything time-dependent in the model — vendor review delays (§4.2's
"after 3-5 days, we retest"), Netsweeper's categorization queue, database
update pushes, the 30-day window between confirmation and content
characterization (§5) — reads from one :class:`SimClock`. Nothing in the
library reads wall-clock time, which keeps experiments reproducible.

Time is stored as integer minutes since a simulation epoch. The epoch is
nominally 2012-01-01 00:00 so that dates in the paper's Table 3 (9/2012
through 8/2013) can be expressed as calendar stamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR

_EPOCH_YEAR = 2012
_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


@dataclass(frozen=True, order=True)
class SimTime:
    """An instant in simulated time (minutes since the 2012-01-01 epoch)."""

    minutes: int

    @classmethod
    def from_days(cls, days: float) -> "SimTime":
        return cls(int(round(days * MINUTES_PER_DAY)))

    @classmethod
    def from_date(cls, year: int, month: int, day: int) -> "SimTime":
        """Build a SimTime from a calendar date at midnight."""
        if year < _EPOCH_YEAR:
            raise ValueError(f"year {year} precedes simulation epoch {_EPOCH_YEAR}")
        if not 1 <= month <= 12:
            raise ValueError(f"bad month {month}")
        days = 0
        for y in range(_EPOCH_YEAR, year):
            days += 366 if _is_leap(y) else 365
        for m in range(1, month):
            days += _DAYS_IN_MONTH[m - 1]
            if m == 2 and _is_leap(year):
                days += 1
        month_len = _DAYS_IN_MONTH[month - 1] + (
            1 if month == 2 and _is_leap(year) else 0
        )
        if not 1 <= day <= month_len:
            raise ValueError(f"bad day {day} for {year}-{month:02d}")
        days += day - 1
        return cls(days * MINUTES_PER_DAY)

    @property
    def days(self) -> float:
        return self.minutes / MINUTES_PER_DAY

    def plus_days(self, days: float) -> "SimTime":
        return SimTime(self.minutes + int(round(days * MINUTES_PER_DAY)))

    def __sub__(self, other: "SimTime") -> int:
        """Difference in minutes."""
        return self.minutes - other.minutes

    def calendar(self) -> str:
        """Render as ``YYYY-MM-DD`` for reports."""
        days = self.minutes // MINUTES_PER_DAY
        year = _EPOCH_YEAR
        while True:
            year_days = 366 if _is_leap(year) else 365
            if days < year_days:
                break
            days -= year_days
            year += 1
        month = 1
        while True:
            month_len = _DAYS_IN_MONTH[month - 1] + (
                1 if month == 2 and _is_leap(year) else 0
            )
            if days < month_len:
                break
            days -= month_len
            month += 1
        return f"{year}-{month:02d}-{days + 1:02d}"

    def __str__(self) -> str:
        return self.calendar()


class SimClock:
    """The world's single mutable clock.

    Components that need to react to the passage of time register tick
    callbacks; :meth:`advance_days` invokes them after moving the time
    forward, letting queues (vendor review, Netsweeper categorization)
    mature pending work.
    """

    def __init__(self, start: SimTime = SimTime(0)) -> None:
        self._now = start
        self._tick_callbacks: List[Callable[[SimTime], None]] = []

    @property
    def now(self) -> SimTime:
        return self._now

    def on_tick(self, callback: Callable[[SimTime], None]) -> None:
        """Register a callback invoked after every time advance."""
        self._tick_callbacks.append(callback)

    def advance_days(self, days: float) -> SimTime:
        if days < 0:
            raise ValueError("time cannot move backwards")
        return self.advance_to(self._now.plus_days(days))

    def restore(self, when: SimTime) -> SimTime:
        """Set the clock without firing tick callbacks.

        Used only by checkpoint restore: the components the callbacks
        would mature (portals, vendor queues) are restored to their
        exact captured state separately, so a tick here would replay
        maturation against times that already elapsed.
        """
        if when < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {when}"
            )
        self._now = when
        return self._now

    def advance_to(self, when: SimTime) -> SimTime:
        if when < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {when}"
            )
        self._now = when
        for callback in self._tick_callbacks:
            callback(self._now)
        return self._now
