"""Shared fixtures for the paper-artifact modules.

The full campaign runs once per session; individual modules time their
own pipeline stage against fresh worlds with ``benchmark.pedantic`` and
then assert the paper's shape on the shared report.
"""

from __future__ import annotations

import pytest

from repro import FullStudy, build_scenario
from repro.world.scenario import Scenario


@pytest.fixture(scope="session")
def session_scenario() -> Scenario:
    """A scenario reserved for read-only inspection (do not mutate)."""
    return build_scenario()


@pytest.fixture(scope="session")
def full_report():
    """The complete campaign, run once: (report, scenario)."""
    scenario = build_scenario()
    report = FullStudy(scenario).run()
    return report, scenario


@pytest.fixture()
def fresh_scenario() -> Scenario:
    """A brand-new world for benchmarks that mutate state."""
    return build_scenario()
