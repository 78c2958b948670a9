#!/usr/bin/env python3
"""Longitudinal monitoring: re-confirming product use over time.

Replays two temporal arcs from the paper through the always-on monitor
(``MonitorService``), one fixed-interval monitor per arc:

1. **Etisalat / SmartFilter** — confirmed in 9/2012 and re-confirmed in
   4/2013 (Table 3): a stable series.
2. **The Websense-Yemen arc** (§2.2) — a vendor that withdraws update
   support leaves the old database running, but freshly submitted sites
   never reach the deployment: the monitor sees confirmation flip off,
   which is exactly the observable policy effect of the 2009 decision.

Each round is committed as one epoch to a throwaway results store, and
the transitions are read back from it with the epoch diff.

Run:  python examples/longitudinal_monitoring.py
"""

import tempfile
from pathlib import Path

from repro import (
    ConfirmationConfig,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    QueryEngine,
    build_scenario,
)
from repro.monitor import ScheduleConfig
from repro.query import TransitionKind
from repro.world.clock import SimTime
from repro.world.content import ContentClass


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        run(Path(directory))


def run(directory: Path) -> None:
    print("=== Arc 1: SmartFilter in Etisalat, quarterly rounds ===")
    monitor(
        directory / "arc1",
        directory / "store",
        ConfirmationConfig(
            product_name="McAfee SmartFilter",
            isp_name="etisalat",
            content_class=ContentClass.PROXY_ANONYMIZER,
            category_label="Anonymizers",
            requested_category="Anonymizers",
        ),
        interval_days=90,
        rounds=3,
    )

    print("\n=== Arc 2: a vendor withdraws update support mid-series ===")
    print("  (before the second round: the 2009 Yemen decision)")
    monitor(
        directory / "arc2",
        directory / "store",
        ConfirmationConfig(
            product_name="Websense",
            isp_name="tx-utility-1",
            content_class=ContentClass.PROXY_ANONYMIZER,
            category_label="Proxy Avoidance",
            requested_category="Proxy Avoidance",
        ),
        interval_days=45,
        rounds=2,
        before_round=withdraw_before_second_round,
    )


def withdraw_before_second_round(service, round_index, key) -> None:
    if round_index == 1:
        box = service.scenario.deployments["tx-utility-1-websense"]
        box.subscription.withdraw(service.scenario.world.now)


def monitor(monitor_dir, store_dir, config, *, interval_days, rounds, before_round=None):
    """Run one pair ``rounds`` times, ``interval_days`` apart, and print
    each round's state and every change the epoch diff detects."""
    service = MonitorService(
        monitor_dir,
        store_dir,
        scenario_factory=build_scenario,
        targets=[MonitorTarget(config)],
        config=MonitorConfig(
            schedule=ScheduleConfig(
                base_interval_days=interval_days,
                min_interval_days=interval_days,
                max_interval_days=interval_days,
            )
        ),
        before_round=before_round,
    )
    service.run(rounds)
    timeline = service.timeline
    for entry in timeline:
        print(f"  {SimTime(entry['started_minutes'])}: {entry['state']}")
    engine = QueryEngine(service.store)
    changes = [
        f"{transition.kind.value} between "
        f"{SimTime(earlier['started_minutes'])} and "
        f"{SimTime(later['started_minutes'])}"
        for earlier, later in zip(timeline, timeline[1:])
        for transition in engine.diff(earlier["epoch"], later["epoch"]).transitions
        if transition.kind is not TransitionKind.PERSISTED
    ]
    for change in changes:
        print(f"  detected: {change}")
    if not changes:
        print("  transitions: none (stable use)")

if __name__ == "__main__":
    main()
