"""Round supervisor tests: retry classification, the reset contract,
and watchdog expiry."""

from __future__ import annotations

import time

import pytest

from repro.monitor.supervisor import (
    RoundSupervisor,
    SupervisorConfig,
    WatchdogExpired,
)
from repro.net.errors import DnsTimeout, NxDomain


def make(max_retries=2, watchdog=None):
    return RoundSupervisor(
        SupervisorConfig(
            max_retries=max_retries,
            watchdog_seconds=watchdog,
        )
    )


class DescribeRetryPolicy:
    def test_success_passes_value_through(self):
        outcome = make().run(lambda: 42, reset=lambda: None)
        assert outcome.ok and outcome.value == 42
        assert outcome.attempts == 1 and outcome.retried == 0

    def test_transient_failure_retried(self):
        calls = []

        def body():
            calls.append(1)
            if len(calls) < 3:
                raise DnsTimeout("probe")
            return "done"

        outcome = make(max_retries=2).run(body, reset=lambda: None)
        assert outcome.ok and outcome.value == "done"
        assert outcome.attempts == 3 and outcome.retried == 2

    def test_reset_called_after_every_failed_attempt(self):
        resets = []

        def body():
            raise DnsTimeout("probe")

        outcome = make(max_retries=2).run(
            body, reset=lambda: resets.append(1)
        )
        assert not outcome.ok
        assert len(resets) == 3  # one per failed attempt, incl. the last

    def test_permanent_failure_not_retried(self):
        calls = []

        def body():
            calls.append(1)
            raise NxDomain("gone")

        outcome = make(max_retries=5).run(body, reset=lambda: None)
        assert not outcome.ok and not outcome.transient
        assert len(calls) == 1
        assert "NxDomain" in outcome.error

    def test_exhausted_budget_reports_transient_failure(self):
        outcome = make(max_retries=1).run(
            lambda: (_ for _ in ()).throw(DnsTimeout("x")),
            reset=lambda: None,
        )
        assert not outcome.ok and outcome.transient
        assert outcome.attempts == 2
        assert outcome.as_document()["transient"] is True

    def test_programming_errors_propagate(self):
        def body():
            raise KeyError("bug")

        with pytest.raises(KeyError):
            make().run(body, reset=lambda: None)


class DescribeWatchdog:
    def test_fast_round_unaffected(self):
        outcome = make(watchdog=5.0).run(lambda: "ok", reset=lambda: None)
        assert outcome.ok and outcome.value == "ok"

    def test_hung_round_expires_and_degrades(self):
        def body():
            time.sleep(10.0)

        outcome = make(max_retries=0, watchdog=0.05).run(
            body, reset=lambda: None
        )
        assert not outcome.ok
        assert outcome.watchdog_expired and outcome.transient
        assert "watchdog" in outcome.error

    def test_expiry_is_retried_as_transient(self):
        calls = []

        def body():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(10.0)
            return "recovered"

        outcome = make(max_retries=1, watchdog=0.05).run(
            body, reset=lambda: None
        )
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.retried == 1

    def test_worker_exception_rethrown_through_join(self):
        def body():
            raise NxDomain("inside the worker")

        outcome = make(max_retries=0, watchdog=5.0).run(
            body, reset=lambda: None
        )
        assert not outcome.ok and "NxDomain" in outcome.error

    def test_expired_class_is_transient_neterror(self):
        assert WatchdogExpired.transient is True


class DescribeValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(watchdog_seconds=0.0)
