"""Freshness-driven probe scheduling for the always-on monitor.

The paper's longitudinal claims (§4.3: SmartFilter re-confirmed in
Etisalat in 9/2012 *and* 4/2013; §2.2: vendors withdrawing update
support) hinge on re-probing deployments at the right cadence, and
follow-up work on probe-list generation is explicit that freshness
should drive priority: a (product, ISP) pair that just changed state is
where the story is, while a pair that has answered the same way for a
year can wait.

The scheduler encodes that policy as a priority heap keyed by next-due
time on the *simulation* clock:

- a **transition** (confirmed flipped) shortens the pair's re-probe
  interval by ``shorten_factor``, floored at ``min_interval_days``;
- a **stable** round decays the interval by ``decay_factor``, capped at
  ``max_interval_days``;
- a **failed** round re-queues the pair after ``retry_interval_days``
  and counts toward quarantine: ``quarantine_after`` consecutive
  failures dead-letter the target (mirroring the coordinator queue's
  retry accounting) so one permanently broken pair cannot monopolize
  the fleet.

All state is plain data (``capture_state``/``restore_state``) so the
service layer can snapshot it alongside the world and resume a killed
monitor exactly where it died.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.world.clock import MINUTES_PER_DAY


@dataclass(frozen=True)
class ScheduleConfig:
    """Cadence policy for one monitoring fleet."""

    #: Interval assigned to a target on its first (re)schedule.
    base_interval_days: float = 30.0
    #: Floor: recently-transitioned pairs never probe more often than this.
    min_interval_days: float = 7.0
    #: Ceiling: long-stable pairs decay toward (and stop at) this.
    max_interval_days: float = 90.0
    #: Interval multiplier applied when a round observed a transition.
    shorten_factor: float = 0.5
    #: Interval multiplier applied when a round confirmed stability.
    decay_factor: float = 1.5
    #: Re-probe delay after a failed (gap) round.
    retry_interval_days: float = 2.0
    #: Consecutive failed rounds before a target is dead-lettered.
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.min_interval_days <= 0:
            raise ValueError("min_interval_days must be > 0")
        # The chain is false for a NaN anywhere in it.
        if not (
            self.min_interval_days
            <= self.base_interval_days
            <= self.max_interval_days
            < math.inf
        ):
            raise ValueError(
                "intervals must be finite and satisfy min <= base <= max "
                f"(got {self.min_interval_days}/{self.base_interval_days}"
                f"/{self.max_interval_days})"
            )
        if not 0 < self.shorten_factor <= 1.0:
            raise ValueError("shorten_factor must be in (0, 1]")
        if not 1.0 <= self.decay_factor < math.inf:
            raise ValueError("decay_factor must be finite and >= 1")
        if not 0 < self.retry_interval_days < math.inf:
            raise ValueError("retry_interval_days must be finite and > 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


@dataclass
class ScheduledTarget:
    """One (product, ISP, category) pair under monitoring."""

    key: str
    product: str
    isp: str
    category: str
    interval_days: float
    next_due_minutes: int
    rounds_run: int = 0
    gap_rounds: int = 0
    consecutive_failures: int = 0
    transitions: int = 0
    quarantined: bool = False
    last_confirmed: Optional[bool] = None
    last_error: Optional[str] = None

    def as_document(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "product": self.product,
            "isp": self.isp,
            "category": self.category,
            "interval_days": self.interval_days,
            "next_due_minutes": self.next_due_minutes,
            "rounds_run": self.rounds_run,
            "gap_rounds": self.gap_rounds,
            "consecutive_failures": self.consecutive_failures,
            "transitions": self.transitions,
            "quarantined": self.quarantined,
            "last_confirmed": self.last_confirmed,
            "last_error": self.last_error,
        }


@dataclass(frozen=True)
class DeadLetter:
    """A target the scheduler gave up on (with its retry accounting)."""

    key: str
    consecutive_failures: int
    gap_rounds: int
    error: str

    def __str__(self) -> str:
        return (
            f"{self.key}: quarantined after "
            f"{self.consecutive_failures} consecutive failed round(s) "
            f"({self.gap_rounds} gap(s) total): {self.error}"
        )


class PriorityScheduler:
    """Next-due heap over :class:`ScheduledTarget` entries.

    Ties on the due instant break deterministically by key, so two
    monitors over the same target set always probe in the same order —
    the property the crash-resume byte-identity contract rests on.
    """

    def __init__(self, config: ScheduleConfig = ScheduleConfig()) -> None:
        self.config = config
        self._targets: Dict[str, ScheduledTarget] = {}
        self._heap: List[Tuple[int, str]] = []

    # ------------------------------------------------------------ targets
    def add(
        self,
        key: str,
        *,
        product: str,
        isp: str,
        category: str,
        first_due_minutes: int,
        interval_days: Optional[float] = None,
    ) -> ScheduledTarget:
        if key in self._targets:
            raise ValueError(f"target already scheduled: {key}")
        target = ScheduledTarget(
            key=key,
            product=product,
            isp=isp,
            category=category,
            interval_days=(
                self.config.base_interval_days
                if interval_days is None
                else interval_days
            ),
            next_due_minutes=first_due_minutes,
        )
        self._targets[key] = target
        heapq.heappush(self._heap, (target.next_due_minutes, key))
        return target

    def __contains__(self, key: str) -> bool:
        return key in self._targets

    def __len__(self) -> int:
        return len(self._targets)

    def active(self) -> int:
        """Targets still in rotation (not quarantined)."""
        return sum(1 for t in self._targets.values() if not t.quarantined)

    def targets(self) -> List[ScheduledTarget]:
        """All targets, sorted by key (stable for reports and tests)."""
        return [self._targets[key] for key in sorted(self._targets)]

    def get(self, key: str) -> ScheduledTarget:
        return self._targets[key]

    # --------------------------------------------------------------- heap
    def peek(self) -> Optional[ScheduledTarget]:
        """The next-due active target, without removing it."""
        while self._heap:
            _due, key = self._heap[0]
            target = self._targets.get(key)
            if target is None or target.quarantined:
                heapq.heappop(self._heap)  # lazily drop dead entries
                continue
            return target
        return None

    def pop(self) -> Optional[ScheduledTarget]:
        """Claim the next-due active target (it is now in flight).

        The target stays registered; it re-enters the heap through
        :meth:`record_success` or :meth:`record_failure`.
        """
        target = self.peek()
        if target is not None:
            heapq.heappop(self._heap)
        return target

    # ------------------------------------------------------------ results
    def record_success(
        self, key: str, *, confirmed: bool, now_minutes: int
    ) -> bool:
        """Account a committed round; True when the state transitioned.

        A transition shortens the interval (probe the changing pair
        sooner); stability decays it toward the maximum.
        """
        target = self._targets[key]
        transitioned = (
            target.last_confirmed is not None
            and confirmed != target.last_confirmed
        )
        if transitioned:
            target.transitions += 1
            target.interval_days = max(
                self.config.min_interval_days,
                target.interval_days * self.config.shorten_factor,
            )
        else:
            target.interval_days = min(
                self.config.max_interval_days,
                target.interval_days * self.config.decay_factor,
            )
        target.last_confirmed = confirmed
        target.last_error = None
        target.rounds_run += 1
        target.consecutive_failures = 0
        target.next_due_minutes = now_minutes + int(
            target.interval_days * MINUTES_PER_DAY
        )
        heapq.heappush(self._heap, (target.next_due_minutes, key))
        return transitioned

    def record_failure(
        self, key: str, *, now_minutes: int, error: str
    ) -> Optional[DeadLetter]:
        """Account a failed (gap) round; a DeadLetter when quarantined."""
        target = self._targets[key]
        target.rounds_run += 1
        target.gap_rounds += 1
        target.consecutive_failures += 1
        target.last_error = error
        if target.consecutive_failures >= self.config.quarantine_after:
            target.quarantined = True
            return DeadLetter(
                key=key,
                consecutive_failures=target.consecutive_failures,
                gap_rounds=target.gap_rounds,
                error=error,
            )
        target.next_due_minutes = now_minutes + int(
            self.config.retry_interval_days * MINUTES_PER_DAY
        )
        heapq.heappush(self._heap, (target.next_due_minutes, key))
        return None

    # --------------------------------------------------------- durability
    def capture_state(self) -> Dict[str, Any]:
        """Plain-data scheduler state at a round boundary.

        Captured between rounds only — every registered target is either
        quarantined or heap-resident, so the heap itself needs no entry:
        restore rebuilds it from the targets' due times.
        """
        return {
            "targets": {
                key: dict(target.as_document())
                for key, target in self._targets.items()
            }
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._targets = {
            key: ScheduledTarget(**doc) for key, doc in state["targets"].items()
        }
        self._heap = [
            (target.next_due_minutes, key)
            for key, target in self._targets.items()
            if not target.quarantined
        ]
        heapq.heapify(self._heap)
