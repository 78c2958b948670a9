"""Round supervision: watchdog, failure classification, bounded retries.

One confirmation round is a long, stateful operation — it registers
fresh domains, submits half, advances the clock through the §4.2
categorization window, and retests — so a failure partway leaves the
simulated world half-mutated, and the sim clock refuses to rewind. The
supervisor therefore never retries in place: the caller supplies a
``reset`` callable that swaps in a pristine measurement world (rebuild
from seed + restore the pre-round state), and the supervisor invokes it
after *every* failed attempt before deciding whether to retry.

Failure policy, reusing the PR 3 taxonomy:

- :class:`~repro.net.errors.NetError` with ``transient=True`` (DNS
  timeouts, resets, and the watchdog's own expiry) → retried up to
  ``max_retries``. Each attempt runs under
  :func:`repro.world.faults.fault_attempt`, so a seeded fault plan
  re-rolls its dice per attempt — which is also what makes the retry
  ladder deterministic and resumable.
- Permanent ``NetError`` → no retry; the round fails immediately.
- Anything else (a programming error) propagates: the supervisor
  contains infrastructure failures, not bugs.

The hard invariant (extending PR 3's never-manufacture rule): a round
the supervisor gives up on yields a failed :class:`RoundOutcome` — the
service records a *gap* in the timeline, never a CONFIRMED or
NOT_CONFIRMED state fabricated from a broken measurement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TypeVar

from repro.exec.metrics import Metrics
from repro.net.errors import NetError
from repro.world.faults import fault_attempt

T = TypeVar("T")


class WatchdogExpired(NetError):
    """A round outran its watchdog deadline.

    Transient by classification: a hung round is operationally the same
    as a timeout — worth one retry on a rebuilt world, never worth
    inventing a result for.
    """

    transient = True


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry and watchdog policy for one monitor's rounds."""

    #: Retries *after* the first attempt, for transient failures only.
    max_retries: int = 2
    #: Wall-clock deadline per attempt; None disables the watchdog.
    watchdog_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.watchdog_seconds is not None and self.watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be > 0")


@dataclass
class RoundOutcome:
    """What one supervised round produced."""

    ok: bool
    value: Any = None
    attempts: int = 1
    retried: int = 0
    error: Optional[str] = None
    transient: bool = False
    watchdog_expired: bool = False

    def as_document(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "attempts": self.attempts,
            "retried": self.retried,
            "error": self.error,
            "transient": self.transient,
            "watchdog_expired": self.watchdog_expired,
        }


class RoundSupervisor:
    """Runs round bodies under the retry/watchdog/reset policy."""

    def __init__(
        self,
        config: SupervisorConfig = SupervisorConfig(),
        *,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()

    def run(
        self, fn: Callable[[], T], *, reset: Callable[[], None]
    ) -> RoundOutcome:
        """One supervised round.

        ``reset`` must return the measurement world to its exact
        pre-round state; it is called after every failed attempt (and
        before the failed outcome returns), so the caller always gets
        back a world as if the failed round had never started.
        """
        attempt = 0
        retried = 0
        while True:
            try:
                value = self._attempt(fn, attempt)
            except NetError as exc:
                reset()
                transient = getattr(exc, "transient", False)
                expired = isinstance(exc, WatchdogExpired)
                if expired:
                    self.metrics.incr("monitor.round.watchdog_expired")
                if transient and attempt < self.config.max_retries:
                    attempt += 1
                    retried += 1
                    self.metrics.incr("monitor.round.retries")
                    continue
                self.metrics.incr("monitor.round.failed")
                return RoundOutcome(
                    ok=False,
                    attempts=attempt + 1,
                    retried=retried,
                    error=repr(exc),
                    transient=transient,
                    watchdog_expired=expired,
                )
            self.metrics.incr("monitor.round.succeeded")
            return RoundOutcome(
                ok=True, value=value, attempts=attempt + 1, retried=retried
            )

    def _attempt(self, fn: Callable[[], T], attempt: int) -> T:
        """One attempt, optionally under the watchdog deadline.

        The watchdog runs the body in a daemon worker thread and
        abandons it on expiry. Abandonment is safe precisely because of
        the reset contract: the caller swaps in a rebuilt world, so a
        zombie attempt can only mutate objects nothing references
        anymore. ``fault_attempt`` is entered *inside* the worker (it is
        thread-local) so the fault plan sees the right attempt number.
        """
        if self.config.watchdog_seconds is None:
            with fault_attempt(attempt):
                return fn()
        box: Dict[str, Any] = {}

        def worker() -> None:
            try:
                with fault_attempt(attempt):
                    box["value"] = fn()
            except BaseException as exc:  # propagate through the join
                box["error"] = exc

        thread = threading.Thread(
            target=worker, name="monitor-round", daemon=True
        )
        thread.start()
        thread.join(self.config.watchdog_seconds)
        if thread.is_alive():
            raise WatchdogExpired(
                f"round exceeded the {self.config.watchdog_seconds}s "
                "watchdog deadline"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]
