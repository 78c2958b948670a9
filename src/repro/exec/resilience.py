"""Study-level resilience: retries, circuit breakers, and quarantine.

The paper's campaigns ran over infrastructure that failed constantly —
in-country vantage points churned, test domains intermittently failed to
resolve, and links dropped mid-measurement (§4, §6.1). Follow-up work
(probe-list generation, remote-measurement studies) is explicit that
transient noise must be retried and filtered out before any blocking
verdict is trustworthy. The :class:`ResilientRunner` is where that
policy lives:

- **Retry.** Transient :class:`~repro.net.errors.NetError` failures
  (the ``transient`` flag) are re-attempted up to a budget, each
  attempt scoped via :func:`repro.world.faults.fault_attempt` so a
  seeded fault plan re-rolls its dice.
- **Permanent failures quarantine immediately.** An NXDOMAIN is an
  answer, not noise; retrying it wastes budget and masks signal.
- **Circuit breakers per endpoint.** A (vantage x product) endpoint that
  keeps failing trips open and rejects further probes until a cooldown
  on the *simulation* clock elapses, then half-opens for a single trial
  probe (closed -> open -> half-open -> closed). Breakers are only
  attached where calls commit in submission order (the sequenced
  measurement paths), so their state machine is worker-count invariant.
- **Dead letters, not lost letters.** Every probe that exhausts its
  budget leaves a :class:`QuarantineRecord`; per-stage
  :class:`StageCoverage` counters (attempted/succeeded/retried/
  quarantined) let a degraded study report exactly what it did not
  measure instead of silently under-counting.

The runner never converts a failure into data: a failed probe yields an
unsuccessful :class:`CallOutcome`, and callers map that to an explicit
"insufficient data" verdict — never to "blocked" or "accessible".
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.exec.metrics import Metrics
from repro.net.errors import NetError
from repro.world.clock import MINUTES_PER_DAY, SimTime
from repro.world.faults import fault_attempt

T = TypeVar("T")

#: Consecutive endpoint failures before a runner's breaker opens.
BREAKER_THRESHOLD = 3
#: Sim-clock cooldown before a runner's open breaker half-opens.
BREAKER_COOLDOWN_MINUTES = MINUTES_PER_DAY


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for one study's resilience layer."""

    #: Retries *after* the first attempt for transient failures.
    max_retries: int = 2
    #: Re-raise instead of quarantining (abort the study on first fault).
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class BreakerState(enum.Enum):
    """Circuit-breaker states, in the classic closed/open/half-open trio."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-endpoint failure gate driven by the simulation clock.

    Not thread-safe by itself: callers route all traffic for one
    endpoint through submission-ordered code (the measurement
    sequencer), which is also what makes its transitions deterministic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[SimTime] = None
        self.trips = 0

    def allow(self, now: SimTime) -> bool:
        """Whether a probe may proceed at sim time ``now``.

        An OPEN breaker half-opens once the cooldown has elapsed,
        admitting exactly the probe that asked.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= BREAKER_COOLDOWN_MINUTES:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the trial probe

    def record_success(self, now: SimTime) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED
        self.opened_at = None

    def record_failure(self, now: SimTime) -> bool:
        """Count a failure; True when this one tripped the breaker open."""
        if self.state is BreakerState.HALF_OPEN:
            # The trial probe failed: straight back to OPEN.
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= BREAKER_THRESHOLD
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        return False


@dataclass(frozen=True)
class QuarantineRecord:
    """A dead-letter entry: one probe that resilience gave up on."""

    stage: str
    key: str
    endpoint: Optional[str]
    attempts: int
    error: str
    short_circuited: bool = False  # rejected by an open breaker, not run

    def __str__(self) -> str:
        how = (
            "short-circuited by open breaker"
            if self.short_circuited
            else f"failed after {self.attempts} attempt(s)"
        )
        endpoint = f" endpoint={self.endpoint}" if self.endpoint else ""
        return f"[{self.stage}] {self.key}{endpoint}: {how}: {self.error}"


@dataclass
class StageCoverage:
    """What one pipeline stage attempted vs. actually measured."""

    attempted: int = 0
    succeeded: int = 0
    retried: int = 0
    quarantined: int = 0
    short_circuited: int = 0

    @property
    def complete(self) -> bool:
        return self.attempted == self.succeeded

    def as_dict(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "short_circuited": self.short_circuited,
        }

    def describe(self) -> str:
        return (
            f"{self.succeeded}/{self.attempted} succeeded, "
            f"{self.retried} retried, {self.quarantined} quarantined"
            + (
                f" ({self.short_circuited} breaker-rejected)"
                if self.short_circuited
                else ""
            )
        )


@dataclass
class CallOutcome:
    """What one resilient call produced."""

    ok: bool
    value: Any = None
    attempts: int = 1
    retried: int = 0
    quarantine: Optional[QuarantineRecord] = None


class ResilientRunner:
    """Retry/breaker/quarantine wrapper for probe callables.

    One runner serves a whole study; per-stage counters and the
    dead-letter list aggregate across stages. Counter updates are sums
    (order-independent) and quarantine reports are sorted, so the
    aggregate view is identical at any worker count even for stages that
    run unsequenced.
    """

    def __init__(
        self,
        config: ResilienceConfig = ResilienceConfig(),
        *,
        clock: Callable[[], SimTime],
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._stages: Dict[str, StageCoverage] = {}
        self._quarantine: List[QuarantineRecord] = []
        self._breakers: Dict[str, CircuitBreaker] = {}

    # ----------------------------------------------------------- breakers
    def breaker(self, endpoint: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = CircuitBreaker(endpoint)
                self._breakers[endpoint] = breaker
            return breaker

    # -------------------------------------------------------------- calls
    def _stage(self, stage: str) -> StageCoverage:
        with self._lock:
            coverage = self._stages.get(stage)
            if coverage is None:
                coverage = StageCoverage()
                self._stages[stage] = coverage
            return coverage

    def call(
        self,
        fn: Callable[[], T],
        *,
        stage: str,
        key: str,
        endpoint: Optional[str] = None,
    ) -> CallOutcome:
        """Run ``fn`` with the full resilience policy.

        ``endpoint`` attaches a circuit breaker — pass it only from
        submission-ordered call sites (see class docstring). ``key``
        names the probe for quarantine records.
        """
        coverage = self._stage(stage)
        with self._lock:
            coverage.attempted += 1
        now = self._clock()
        breaker = self.breaker(endpoint) if endpoint is not None else None
        if breaker is not None and not breaker.allow(now):
            record = QuarantineRecord(
                stage, key, endpoint, 0, "circuit open", short_circuited=True
            )
            with self._lock:
                coverage.quarantined += 1
                coverage.short_circuited += 1
                self._quarantine.append(record)
            self.metrics.incr(f"resilience.{stage}.short_circuited")
            return CallOutcome(ok=False, attempts=0, quarantine=record)

        attempt = 0
        retried = 0
        while True:
            with fault_attempt(attempt):
                try:
                    value = fn()
                except NetError as exc:
                    if self.config.fail_fast:
                        raise
                    transient = getattr(exc, "transient", False)
                    if transient and attempt < self.config.max_retries:
                        attempt += 1
                        retried += 1
                        with self._lock:
                            coverage.retried += 1
                        self.metrics.incr(f"resilience.{stage}.retries")
                        continue
                    now = self._clock()
                    if breaker is not None and breaker.record_failure(now):
                        self.metrics.incr("resilience.breaker_trips")
                    record = QuarantineRecord(
                        stage, key, endpoint, attempt + 1, repr(exc)
                    )
                    with self._lock:
                        coverage.quarantined += 1
                        self._quarantine.append(record)
                    self.metrics.incr(f"resilience.{stage}.quarantined")
                    return CallOutcome(
                        ok=False,
                        attempts=attempt + 1,
                        retried=retried,
                        quarantine=record,
                    )
            if breaker is not None:
                breaker.record_success(self._clock())
            with self._lock:
                coverage.succeeded += 1
            return CallOutcome(
                ok=True, value=value, attempts=attempt + 1, retried=retried
            )

    # --------------------------------------------------------- durability
    def capture_state(self) -> Dict[str, Any]:
        """Plain-data resilience state for study checkpoints.

        Coverage, the dead-letter list, and breaker states are all
        output-visible through :class:`PartialStudyResult`, so a
        resumed study must carry them forward exactly.
        """
        with self._lock:
            return {
                "stages": {
                    stage: coverage.as_dict()
                    for stage, coverage in self._stages.items()
                },
                "quarantine": list(self._quarantine),
                "breakers": {
                    name: {
                        "state": breaker.state.value,
                        "consecutive_failures": breaker.consecutive_failures,
                        "opened_at": (
                            None
                            if breaker.opened_at is None
                            else breaker.opened_at.minutes
                        ),
                        "trips": breaker.trips,
                    }
                    for name, breaker in self._breakers.items()
                },
            }

    def restore_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._stages = {
                stage: StageCoverage(**counters)
                for stage, counters in state["stages"].items()
            }
            self._quarantine = list(state["quarantine"])
            self._breakers = {}
            # Older snapshots also carry each breaker's "threshold" and
            # "cooldown_minutes", which always held the module constants.
            for name, saved in state["breakers"].items():
                breaker = CircuitBreaker(name)
                breaker.state = BreakerState(saved["state"])
                breaker.consecutive_failures = saved["consecutive_failures"]
                breaker.opened_at = (
                    None
                    if saved["opened_at"] is None
                    else SimTime(saved["opened_at"])
                )
                breaker.trips = saved["trips"]
                self._breakers[name] = breaker

    # ------------------------------------------------------------ reports
    def coverage(self) -> Dict[str, StageCoverage]:
        """Per-stage counters (copies, sorted by stage name)."""
        with self._lock:
            return {
                stage: StageCoverage(**self._stages[stage].as_dict())
                for stage in sorted(self._stages)
            }

    def quarantined(self) -> List[QuarantineRecord]:
        """The dead-letter list, sorted for scheduling independence."""
        with self._lock:
            return sorted(
                self._quarantine,
                key=lambda r: (r.stage, r.key, r.short_circuited),
            )

    def breaker_states(self) -> Dict[str, Tuple[str, int]]:
        """endpoint -> (state, trips) for reports and tests."""
        with self._lock:
            return {
                name: (breaker.state.value, breaker.trips)
                for name, breaker in sorted(self._breakers.items())
            }
