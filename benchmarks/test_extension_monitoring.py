"""Extension bench — E16: longitudinal re-confirmation.

Reproduces the paper's temporal claims as measurements: Etisalat's
SmartFilter confirms in 9/2012 AND 4/2013 (Table 3 has both rows), and
a vendor that withdraws update support (§2.2's Websense-Yemen decision)
flips a previously confirmed deployment to not-confirmed — the
observable policy outcome the paper's advocacy aims at.
"""

from __future__ import annotations

from repro import ConfirmationConfig, build_scenario
from repro.core.monitor import LongitudinalMonitor, TransitionKind, UsageState
from repro.world.content import ContentClass


def test_stable_use_reconfirms_across_quarters(
    benchmark, fresh_scenario, tmp_path
):
    scenario = fresh_scenario
    monitor = LongitudinalMonitor(
        scenario.world,
        scenario.smartfilter,
        scenario.hosting_asns[0],
        ConfirmationConfig(
            product_name="McAfee SmartFilter",
            isp_name="etisalat",
            content_class=ContentClass.PROXY_ANONYMIZER,
            category_label="Anonymizers",
            requested_category="Anonymizers",
        ),
        store=str(tmp_path),
    )
    series = benchmark.pedantic(
        monitor.run, args=(3, 90.0), rounds=1, iterations=1
    )
    print("\nround states:", [s.value for s in series.states()])
    assert series.states() == [UsageState.CONFIRMED] * 3
    assert series.transitions() == []


def test_vendor_withdrawal_flips_confirmation(benchmark, tmp_path):
    def run_arc():
        scenario = build_scenario()
        world = scenario.world
        box = scenario.deployments["tx-utility-1-websense"]
        monitor = LongitudinalMonitor(
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
            store=str(tmp_path),
        )
        monitor.run_round()
        box.subscription.withdraw(world.now)
        world.advance_days(45)
        monitor.run_round()
        return monitor.series

    series = benchmark.pedantic(run_arc, rounds=1, iterations=1)
    print("\nround states:", [s.value for s in series.states()])
    assert series.states() == [
        UsageState.CONFIRMED,
        UsageState.NOT_CONFIRMED,
    ]
    assert [t.kind for t in series.transitions()] == [TransitionKind.WITHDRAWN]
