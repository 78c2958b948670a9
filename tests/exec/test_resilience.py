"""ResilientRunner policy: retries, breakers, quarantine, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.metrics import Metrics
from repro.exec.resilience import (
    BREAKER_COOLDOWN_MINUTES,
    BREAKER_THRESHOLD,
    BreakerState,
    CircuitBreaker,
    QuarantineRecord,
    ResilienceConfig,
    ResilientRunner,
    StageCoverage,
)
from repro.world.clock import MINUTES_PER_DAY, SimClock, SimTime
from repro.world.faults import current_attempt
from repro.net.errors import ConnectionTimeout, NxDomain


def make_runner(clock=None, **config):
    clock = clock if clock is not None else SimClock()
    return (
        ResilientRunner(
            ResilienceConfig(**config),
            clock=lambda: clock.now,
            metrics=Metrics(),
        ),
        clock,
    )


class DescribeRetries:
    def test_transient_failure_retries_and_succeeds(self):
        runner, _ = make_runner(max_retries=2)
        attempts = []

        def flaky():
            attempts.append(current_attempt())
            if len(attempts) < 3:
                raise ConnectionTimeout("blip")
            return "payload"

        outcome = runner.call(flaky, stage="s", key="k")
        assert outcome.ok and outcome.value == "payload"
        assert outcome.attempts == 3 and outcome.retried == 2
        # Each attempt ran under its own fault_attempt scope, so a
        # seeded plan re-rolls per retry.
        assert attempts == [0, 1, 2]
        cov = runner.coverage()["s"]
        assert (cov.attempted, cov.succeeded, cov.retried) == (1, 1, 2)

    def test_exhausted_budget_quarantines(self):
        runner, _ = make_runner(max_retries=1)

        def always_down():
            raise ConnectionTimeout("dead link")

        outcome = runner.call(always_down, stage="s", key="k")
        assert not outcome.ok
        assert outcome.attempts == 2
        record = outcome.quarantine
        assert isinstance(record, QuarantineRecord)
        assert "failed after 2 attempt(s)" in str(record)
        assert runner.coverage()["s"].quarantined == 1
        assert runner.metrics.count("resilience.s.quarantined") == 1

    def test_permanent_failure_never_retries(self):
        runner, _ = make_runner(max_retries=5)
        calls = []

        def nxdomain():
            calls.append(1)
            raise NxDomain("gone.test")

        outcome = runner.call(nxdomain, stage="s", key="k")
        assert not outcome.ok
        assert len(calls) == 1  # an answer, not noise: no retry burned

    def test_fail_fast_reraises(self):
        runner, _ = make_runner(fail_fast=True)
        with pytest.raises(ConnectionTimeout):
            runner.call(
                lambda: (_ for _ in ()).throw(ConnectionTimeout("x")),
                stage="s",
                key="k",
            )

    def test_non_net_errors_propagate(self):
        # The policy only absorbs network noise; a programming error
        # must surface immediately.
        runner, _ = make_runner()
        with pytest.raises(ZeroDivisionError):
            runner.call(lambda: 1 // 0, stage="s", key="k")


class DescribeCircuitBreaker:
    def test_full_state_cycle(self):
        # closed → open (threshold) → half-open (cooldown) → closed.
        clock = SimClock()
        breaker = CircuitBreaker("e")
        for _ in range(BREAKER_THRESHOLD - 1):
            assert not breaker.record_failure(clock.now)
            assert breaker.state is BreakerState.CLOSED
        assert breaker.record_failure(clock.now)  # the threshold trips it
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(clock.now)
        clock.advance_days(BREAKER_COOLDOWN_MINUTES / MINUTES_PER_DAY)
        assert breaker.allow(clock.now)  # cooldown elapsed: trial probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(clock.now)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 1

    def test_failed_trial_probe_reopens(self):
        clock = SimClock()
        breaker = CircuitBreaker("e")
        for _ in range(BREAKER_THRESHOLD):
            breaker.record_failure(clock.now)
        clock.advance_days(BREAKER_COOLDOWN_MINUTES / MINUTES_PER_DAY)
        assert breaker.allow(clock.now)
        assert breaker.record_failure(clock.now)  # trial failed
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(clock.now)
        assert breaker.trips == 2

    @settings(max_examples=40, deadline=None)
    @given(events=st.lists(st.booleans(), max_size=40))
    def test_state_machine_invariants(self, events):
        """Property: the breaker never reaches an inconsistent state."""
        clock = SimClock()
        breaker = CircuitBreaker("e")
        for success in events:
            allowed = breaker.allow(clock.now)
            if allowed:
                if success:
                    breaker.record_success(clock.now)
                else:
                    breaker.record_failure(clock.now)
            # A quarter cooldown per event: an open breaker half-opens
            # four events after it trips.
            clock.advance_days(BREAKER_COOLDOWN_MINUTES / MINUTES_PER_DAY / 4)
            # Invariants after every event:
            if breaker.state is BreakerState.OPEN:
                assert breaker.opened_at is not None
            if breaker.state is BreakerState.CLOSED:
                assert breaker.consecutive_failures < BREAKER_THRESHOLD
                assert breaker.opened_at is None
            else:
                # Any non-closed state was reached by tripping.
                assert breaker.trips >= 1

    def test_open_breaker_short_circuits_runner_calls(self):
        runner, clock = make_runner(max_retries=0)

        def down():
            raise ConnectionTimeout("down")

        assert BREAKER_THRESHOLD == 3
        for index in range(BREAKER_THRESHOLD):
            runner.call(down, stage="s", key=f"k{index}", endpoint="isp/product")
        # Breaker now open: the next call never runs the callable.
        ran = []
        outcome = runner.call(
            lambda: ran.append(1), stage="s", key="k3", endpoint="isp/product"
        )
        assert not outcome.ok and not ran
        assert outcome.quarantine.short_circuited
        assert "short-circuited by open breaker" in str(outcome.quarantine)
        cov = runner.coverage()["s"]
        assert cov.short_circuited == 1
        # After the sim-clock cooldown, the half-open trial runs again.
        clock.advance_days(1.5)
        outcome = runner.call(
            lambda: "recovered", stage="s", key="k4", endpoint="isp/product"
        )
        assert outcome.ok and outcome.value == "recovered"
        assert runner.breaker_states()["isp/product"] == ("closed", 1)

    def test_breakers_are_per_endpoint(self):
        runner, _ = make_runner(max_retries=0)
        for _ in range(BREAKER_THRESHOLD):
            runner.call(
                lambda: (_ for _ in ()).throw(ConnectionTimeout("x")),
                stage="s",
                key="k",
                endpoint="isp-a/prod",
            )
        assert runner.breaker_states()["isp-a/prod"] == ("open", 1)
        outcome = runner.call(lambda: "fine", stage="s", key="k", endpoint="isp-b/prod")
        assert outcome.ok  # isp-b unaffected by isp-a's open breaker


class DescribeReporting:
    def test_quarantine_list_is_sorted_not_insertion_ordered(self):
        runner, _ = make_runner(max_retries=0)

        def fail():
            raise ConnectionTimeout("x")

        for key in ("zz", "aa", "mm"):
            runner.call(fail, stage="s", key=key)
        assert [r.key for r in runner.quarantined()] == ["aa", "mm", "zz"]

    def test_coverage_returns_copies(self):
        runner, _ = make_runner()
        runner.call(lambda: 1, stage="s", key="k")
        snapshot = runner.coverage()["s"]
        snapshot.succeeded = 999
        assert runner.coverage()["s"].succeeded == 1

    def test_stage_coverage_describe_and_complete(self):
        cov = StageCoverage(attempted=5, succeeded=4, retried=2, quarantined=1)
        assert not cov.complete
        assert "4/5 succeeded" in cov.describe()
        assert StageCoverage(attempted=3, succeeded=3).complete


class DescribeConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
