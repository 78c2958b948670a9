"""Extension bench — E16: longitudinal re-confirmation.

Reproduces the paper's temporal claims as measurements: Etisalat's
SmartFilter confirms in 9/2012 AND 4/2013 (Table 3 has both rows), and
a vendor that withdraws update support (§2.2's Websense-Yemen decision)
flips a previously confirmed deployment to not-confirmed — the
observable policy outcome the paper's advocacy aims at.

Each arc runs through the always-on monitor (:class:`MonitorService`)
at a fixed interval, and the transitions are read back from the store
with the epoch diff. The round epoch ids are pinned.
"""

from __future__ import annotations

from repro import (
    ConfirmationConfig,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    QueryEngine,
    ResultsStore,
    build_scenario,
)
from repro.monitor import ScheduleConfig
from repro.query import TransitionKind
from repro.world.content import ContentClass

ARC1_EPOCHS = [
    "23f9348ba145f39493ac7aa6832b755b1de3c387c9ebea20e97d15450d86edaa",
    "2dea420f9204c91a2b5a7b8c532077196330ea92d0935699ff04d1f267754703",
    "4d92ab32412fdd4a133dd773ed16dcac75617ad75d5adf1944408d500dffffcb",
]
ARC2_EPOCHS = [
    "6b6637f902910712abaf148352df19581abc3d905cfd45c4e5f1c6da403988e3",
    "f071bdd0ca87e964e0642cea6d5ca76b5ab74b70751790b2e96ddbd9a4e50811",
]


def run_arc(directory, config, *, interval_days, rounds, before_round=None):
    """``rounds`` monitoring rounds of one pair, ``interval_days`` apart."""
    service = MonitorService(
        directory / "monitor",
        directory / "store",
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
    return service.timeline


def transitions(store_dir, epochs):
    """The epoch diff's transitions between consecutive round epochs."""
    engine = QueryEngine(ResultsStore(store_dir))
    return [
        transition.kind
        for old, new in zip(epochs, epochs[1:])
        for transition in engine.diff(old, new).transitions
    ]


def withdraw_websense_support(service, round_index, key):
    """The vendor cuts update support before the second round."""
    if round_index == 1:
        box = service.scenario.deployments["tx-utility-1-websense"]
        box.subscription.withdraw(service.scenario.world.now)


def test_stable_use_reconfirms_across_quarters(benchmark, tmp_path):
    config = ConfirmationConfig(
        product_name="McAfee SmartFilter",
        isp_name="etisalat",
        content_class=ContentClass.PROXY_ANONYMIZER,
        category_label="Anonymizers",
        requested_category="Anonymizers",
    )
    timeline = benchmark.pedantic(
        run_arc,
        args=(tmp_path, config),
        kwargs={"interval_days": 90.0, "rounds": 3},
        rounds=1,
        iterations=1,
    )
    states = [entry["state"] for entry in timeline]
    epochs = [entry["epoch"] for entry in timeline]
    print("\nround states:", states)
    assert states == ["confirmed"] * 3
    assert epochs == ARC1_EPOCHS
    assert transitions(tmp_path / "store", epochs) == [
        TransitionKind.PERSISTED
    ] * 2


def test_vendor_withdrawal_flips_confirmation(benchmark, tmp_path):
    config = ConfirmationConfig(
        product_name="Websense",
        isp_name="tx-utility-1",
        content_class=ContentClass.PROXY_ANONYMIZER,
        category_label="Proxy Avoidance",
        requested_category="Proxy Avoidance",
    )
    timeline = benchmark.pedantic(
        run_arc,
        args=(tmp_path, config),
        kwargs={
            "interval_days": 45.0,
            "rounds": 2,
            "before_round": withdraw_websense_support,
        },
        rounds=1,
        iterations=1,
    )
    states = [entry["state"] for entry in timeline]
    epochs = [entry["epoch"] for entry in timeline]
    print("\nround states:", states)
    assert states == ["confirmed", "not_confirmed"]
    assert epochs == ARC2_EPOCHS
    assert transitions(tmp_path / "store", epochs) == [TransitionKind.WITHDRAWN]
