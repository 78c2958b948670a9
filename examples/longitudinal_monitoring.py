#!/usr/bin/env python3
"""Longitudinal monitoring: re-confirming product use over time.

Replays two temporal arcs from the paper:

1. **Etisalat / SmartFilter** — confirmed in 9/2012 and re-confirmed in
   4/2013 (Table 3): a stable series.
2. **The Websense-Yemen arc** (§2.2) — a vendor that withdraws update
   support leaves the old database running, but freshly submitted sites
   never reach the deployment: the monitor sees confirmation flip off,
   which is exactly the observable policy effect of the 2009 decision.

Each round is also committed as one epoch to a throwaway results store.

Run:  python examples/longitudinal_monitoring.py
"""

import tempfile

from repro import ConfirmationConfig, build_scenario
from repro.core.monitor import LongitudinalMonitor
from repro.store import ResultsStore
from repro.world.content import ContentClass


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        run(ResultsStore(directory))


def run(store: ResultsStore) -> None:
    scenario = build_scenario()
    world = scenario.world

    print("=== Arc 1: SmartFilter in Etisalat, quarterly rounds ===")
    monitor = LongitudinalMonitor(
        world,
        scenario.smartfilter,
        scenario.hosting_asns[0],
        ConfirmationConfig(
            product_name="McAfee SmartFilter",
            isp_name="etisalat",
            content_class=ContentClass.PROXY_ANONYMIZER,
            category_label="Anonymizers",
            requested_category="Anonymizers",
        ),
        store=store,
    )
    series = monitor.run(rounds=3, interval_days=90)
    for round_ in series.rounds:
        result = round_.result
        print(
            f"  {round_.started_at}: {result.blocked_submitted}/"
            f"{len(result.submitted_outcomes)} blocked -> {round_.state.value}"
        )
    print(f"  transitions: {series.transitions() or 'none (stable use)'}")

    print("\n=== Arc 2: a vendor withdraws update support mid-series ===")
    websense_box = scenario.deployments["tx-utility-1-websense"]
    monitor2 = LongitudinalMonitor(
        world,
        scenario.websense,
        scenario.hosting_asns[0],
        ConfirmationConfig(
            product_name="Websense",
            isp_name="tx-utility-1",
            content_class=ContentClass.PROXY_ANONYMIZER,
            category_label="Proxy Avoidance",
            requested_category="Proxy Avoidance",
        ),
        store=store,
    )
    first = monitor2.run_round()
    print(
        f"  {first.started_at}: {first.result.blocked_submitted}/"
        f"{len(first.result.submitted_outcomes)} blocked -> {first.state.value}"
    )
    print("  -- vendor withdraws update support (the 2009 Yemen decision) --")
    websense_box.subscription.withdraw(world.now)
    world.advance_days(45)
    second = monitor2.run_round()
    print(
        f"  {second.started_at}: {second.result.blocked_submitted}/"
        f"{len(second.result.submitted_outcomes)} blocked -> {second.state.value}"
    )
    for transition in monitor2.series.transitions():
        print(
            f"  detected: {transition.kind.value} between "
            f"{transition.between} and {transition.and_}"
        )


if __name__ == "__main__":
    main()
