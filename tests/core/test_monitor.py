"""Tests for longitudinal confirmation monitoring: the §2.2 arcs (stable
use, a vendor withdrawing updates, censorship appearing) run as
fixed-interval ``MonitorService`` rounds on the mini scenario, with each
round committed as one epoch and every transition read from the store's
epoch diff."""

from __future__ import annotations

import pytest

from repro.monitor import (
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    ScheduleConfig,
    read_status,
)
from repro.query import QueryEngine, RecordFilter, TransitionKind
from repro.store import ResultsStore
from repro.world.clock import MINUTES_PER_DAY

from tests.monitor.conftest import (
    ISP,
    PRODUCT,
    TARGET_KEY,
    mini_config,
    mini_scenario,
)

BOX = f"{ISP}-sf"


def monitor(tmp_path, *, before_round=None, interval_days=30.0):
    """One target, re-confirmed every ``interval_days``."""
    return MonitorService(
        tmp_path / "mon",
        tmp_path / "store",
        scenario_factory=mini_scenario,
        targets=[MonitorTarget(mini_config())],
        config=MonitorConfig(
            schedule=ScheduleConfig(
                base_interval_days=interval_days,
                min_interval_days=interval_days,
                max_interval_days=interval_days,
            )
        ),
        before_round=before_round,
    )


def withdraw_before_round_one(service, round_index, key):
    """The vendor cuts the deployment's update support between rounds."""
    if round_index == 1:
        box = service.scenario.deployments[BOX]
        box.subscription.withdraw(service.scenario.world.now)


def censor_from_round_one(service, round_index, key):
    """No filtering in round 0; censorship begins before round 1."""
    service.scenario.deployments[BOX].enabled = round_index >= 1


def states(service):
    return [entry["state"] for entry in service.timeline]


def diff_kinds(service):
    """What the store's epoch diff reports between consecutive rounds."""
    engine = QueryEngine(service.store)
    epochs = [entry["epoch"] for entry in service.timeline]
    return [
        transition.kind
        for earlier, later in zip(epochs, epochs[1:])
        for transition in engine.diff(earlier, later).transitions
    ]


class DescribeMonitoring:
    def test_stable_confirmed_series(self, tmp_path):
        service = monitor(tmp_path)
        service.run(rounds=3)
        assert states(service) == ["confirmed"] * 3
        assert diff_kinds(service) == [TransitionKind.PERSISTED] * 2
        assert service.scheduler.get(TARGET_KEY).transitions == 0
        # The interval runs from the end of a round, which spans the
        # submission-to-retest wait, so rounds start evenly spaced and
        # more than 30 days apart.
        starts = [entry["started_minutes"] for entry in service.timeline]
        first_gap, second_gap = (b - a for a, b in zip(starts, starts[1:]))
        assert first_gap == second_gap > 30 * MINUTES_PER_DAY

    def test_withdrawal_detected(self, tmp_path):
        """The Websense-Yemen arc (§2.2): after the vendor cuts update
        support, the deployment keeps its old database but the monitor's
        freshly submitted sites never reach it — confirmed flips to
        not-confirmed."""
        service = monitor(tmp_path, before_round=withdraw_before_round_one)
        service.run(rounds=2)
        assert states(service) == ["confirmed", "not_confirmed"]
        assert service.scheduler.get(TARGET_KEY).transitions == 1
        first, second = (entry["epoch"] for entry in service.timeline)
        diff = QueryEngine(ResultsStore(tmp_path / "store")).diff(first, second)
        assert [(t.product, t.isp, t.kind) for t in diff.transitions] == [
            (PRODUCT, ISP, TransitionKind.WITHDRAWN)
        ]

    def test_appearance_detected(self, tmp_path):
        service = monitor(tmp_path, before_round=censor_from_round_one)
        service.run(rounds=2)
        assert states(service) == ["not_confirmed", "confirmed"]
        assert diff_kinds(service) == [TransitionKind.APPEARED]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            monitor(tmp_path).run(rounds=0)
        with pytest.raises(ValueError):
            monitor(tmp_path, interval_days=-1)


class DescribeStoreBackedMonitoring:
    def test_each_round_commits_a_distinct_epoch(self, tmp_path):
        service = monitor(tmp_path)
        service.run(rounds=3)
        # Identical results are still three distinct observations: the
        # round index and start instant are part of the epoch identity.
        epochs = [entry["epoch"] for entry in service.timeline]
        assert len(set(epochs)) == 3
        assert sorted(ResultsStore(tmp_path / "store").epoch_ids()) == sorted(
            epochs
        )

    def test_stored_transitions_match_in_memory_series(self, tmp_path):
        service = monitor(tmp_path, before_round=withdraw_before_round_one)
        service.run(rounds=2)
        # The journal's fold is the durable copy of the live timeline.
        stored = read_status(tmp_path / "mon")["timeline"]
        assert [(e["state"], e["epoch"]) for e in stored] == [
            (e["state"], e["epoch"]) for e in service.timeline
        ]
        assert diff_kinds(service) == [TransitionKind.WITHDRAWN]

    def test_timeline_survives_monitor_restart(self, tmp_path):
        """A monitor restarted against the same directory and store
        recovers the round it never saw in memory, and the transition
        across the restart."""
        first = monitor(tmp_path, before_round=censor_from_round_one)
        first.run(rounds=1)  # not confirmed
        # A brand-new service (fresh process, empty timeline) continues.
        second = monitor(tmp_path, before_round=censor_from_round_one)
        assert second.timeline == []
        second.run(rounds=2, resume=True)  # confirmed
        assert second.timeline[0] == first.timeline[0]
        assert states(second) == ["not_confirmed", "confirmed"]
        assert diff_kinds(second) == [TransitionKind.APPEARED]

    def test_round_epochs_indexed_by_pair(self, tmp_path):
        monitor(tmp_path).run(rounds=1)
        store = ResultsStore(tmp_path / "store")
        assert len(store.epoch_ids()) == 1
        engine = QueryEngine(store)
        assert engine.epoch_ids(RecordFilter(isp=ISP)) == store.epoch_ids()
        assert (
            engine.epoch_ids(RecordFilter(product=PRODUCT))
            == store.epoch_ids()
        )
