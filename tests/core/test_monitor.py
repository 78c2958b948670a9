"""Tests for longitudinal confirmation monitoring."""

from __future__ import annotations

import pytest

from repro.core.confirm import ConfirmationConfig
from repro.core.monitor import (
    LongitudinalMonitor,
    TransitionKind,
    UsageState,
)
from repro.middlebox.deploy import deploy
from repro.products.smartfilter import make_smartfilter
from repro.world.content import ContentClass
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


def build(accepting=True):
    world = make_mini_world()
    product = make_smartfilter(
        make_content_oracle(world), derive_rng(1, "mon-sf")
    )
    world.clock.on_tick(product.tick)
    box = deploy(world, world.isps["testnet"], product, ["Anonymizers"])
    config = ConfirmationConfig(
        product_name="McAfee SmartFilter",
        isp_name="testnet",
        content_class=ContentClass.PROXY_ANONYMIZER,
        category_label="Anonymizers",
        requested_category="Anonymizers",
        total_domains=6,
        submit_count=3,
    )
    return world, product, box, config


class DescribeMonitoring:
    def test_stable_confirmed_series(self, tmp_path):
        world, product, _box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        series = monitor.run(rounds=3, interval_days=30)
        assert series.states() == [UsageState.CONFIRMED] * 3
        assert series.transitions() == []
        assert series.ever_confirmed()
        assert series.currently_confirmed()

    def test_each_round_uses_fresh_domains(self, tmp_path):
        world, product, _box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        series = monitor.run(rounds=2, interval_days=10)
        first = {o.domain for o in series.rounds[0].result.outcomes}
        second = {o.domain for o in series.rounds[1].result.outcomes}
        assert first.isdisjoint(second)

    def test_withdrawal_detected(self, tmp_path):
        """The Websense-Yemen arc (§2.2): after the vendor cuts update
        support, the deployment keeps its old database but the monitor's
        freshly submitted sites never reach it — confirmed flips to
        not-confirmed."""
        world, product, box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        monitor.run_round()
        # Vendor withdraws support between rounds.
        box.subscription.withdraw(world.now)
        world.advance_days(30)
        monitor.run_round()
        series = monitor.series
        assert series.states() == [
            UsageState.CONFIRMED,
            UsageState.NOT_CONFIRMED,
        ]
        transitions = series.transitions()
        assert len(transitions) == 1
        assert transitions[0].kind is TransitionKind.WITHDRAWN

    def test_appearance_detected(self, tmp_path):
        world, product, box, config = build()
        box.enabled = False  # no filtering yet
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        monitor.run_round()
        box.enabled = True  # censorship begins
        world.advance_days(30)
        monitor.run_round()
        transitions = monitor.series.transitions()
        assert [t.kind for t in transitions] == [TransitionKind.APPEARED]

    def test_validation(self, tmp_path):
        world, product, _box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        with pytest.raises(ValueError):
            monitor.run(rounds=0, interval_days=10)
        with pytest.raises(ValueError):
            monitor.run(rounds=2, interval_days=-1)

    def test_empty_series_state(self, tmp_path):
        world, product, _box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        assert monitor.series.currently_confirmed() is None
        assert not monitor.series.ever_confirmed()


class DescribeStoreBackedMonitoring:
    def test_each_round_commits_a_distinct_epoch(self, tmp_path):
        from repro.store import ResultsStore

        world, product, _box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        monitor.run(rounds=3, interval_days=30)
        # Identical results are still three distinct observations: the
        # round index and start instant are part of the epoch identity.
        assert len(ResultsStore(tmp_path).epoch_ids()) == 3

    def test_stored_transitions_match_in_memory_series(self, tmp_path):
        from repro.core.monitor import stored_transitions
        from repro.store import ResultsStore

        world, product, box, config = build()
        monitor = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        monitor.run_round()
        box.subscription.withdraw(world.now)
        world.advance_days(30)
        monitor.run_round()
        live = monitor.series.transitions()
        stored = stored_transitions(
            ResultsStore(tmp_path), config.product_name, config.isp_name
        )
        assert [t.kind for t in stored] == [t.kind for t in live]
        assert [t.kind for t in stored] == [TransitionKind.WITHDRAWN]

    def test_timeline_survives_monitor_restart(self, tmp_path):
        """A monitor restarted against the same store recovers the full
        transition history it never saw in memory."""
        from repro.core.monitor import stored_transitions
        from repro.store import ResultsStore

        world, product, box, config = build()
        box.enabled = False
        first = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        first.run_round()  # not confirmed
        box.enabled = True
        world.advance_days(30)
        # A brand-new monitor (fresh process, empty series) continues.
        second = LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        )
        second.run_round()  # confirmed
        assert second.series.transitions() == []  # one round in memory
        stored = stored_transitions(
            ResultsStore(tmp_path), config.product_name, config.isp_name
        )
        assert [t.kind for t in stored] == [TransitionKind.APPEARED]

    def test_round_epochs_indexed_by_pair(self, tmp_path):
        from repro.store import ResultsStore

        world, product, _box, config = build()
        LongitudinalMonitor(
            world, product, 65002, config, store=str(tmp_path)
        ).run_round()
        store = ResultsStore(tmp_path)
        assert store.lookup("isp", config.isp_name) == store.epoch_ids()
        assert store.lookup("product", config.product_name) == store.epoch_ids()

    def test_round_epoch_matches_the_monitor_service(self, tmp_path):
        """Both monitors build round epochs with ``confirmation_epoch``,
        so the same first round of the same Table 3 row commits the same
        epoch id through either one."""
        from repro.analysis.paper_data import PAPER_TABLE3
        from repro.core.pipeline import config_for_row
        from repro.monitor import MonitorConfig, MonitorService, MonitorTarget
        from repro.store import ResultsStore
        from repro.world.scenario import build_scenario

        row = next(
            row
            for row in PAPER_TABLE3
            if (row.product, row.isp_key) == ("Blue Coat", "etisalat")
        )
        scenario = build_scenario(seed=2013)
        LongitudinalMonitor(
            scenario.world,
            scenario.products[row.product],
            scenario.hosting_asns[0],
            config_for_row(row),
            store=str(tmp_path / "monitor"),
        ).run_round()
        MonitorService(
            tmp_path / "service",
            tmp_path / "service-store",
            scenario_factory=lambda: build_scenario(seed=2013),
            targets=[MonitorTarget(config_for_row(row))],
            config=MonitorConfig(),
        ).run(rounds=1)
        expected = [
            "e8aa93b23f2bf175c0dbca3511cacc11a0385148065556c15d61ed8f7fd6097c"
        ]
        assert ResultsStore(tmp_path / "monitor").epoch_ids() == expected
        assert ResultsStore(tmp_path / "service-store").epoch_ids() == expected
