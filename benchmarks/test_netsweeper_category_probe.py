"""E7 — §4.4: the YemenNet denypagetests category probe.

Probing the 66 category test pages from inside YemenNet must find
exactly the paper's five blocked categories (adult images, phishing,
pornography, proxy anonymizers, search keywords) — and, critically,
must NOT see YemenNet's custom-list political blocking, which lives
outside the vendor taxonomy. Benchmarks the 66-URL probe.
"""

from __future__ import annotations

from repro import build_scenario, run_category_probe
from repro.analysis import (
    PAPER_YEMEN_PROBE_CATEGORIES,
    probe_record,
    render_category_probe,
)


def test_yemen_probe_matches_paper(benchmark, fresh_scenario):
    world = fresh_scenario.world
    probe = benchmark.pedantic(
        run_category_probe, args=(world, "yemennet"), rounds=1, iterations=1
    )
    print("\n" + render_category_probe(probe_record(probe)))
    assert probe.tested == 66
    assert set(probe.blocked_names) == set(PAPER_YEMEN_PROBE_CATEGORIES)


def test_probe_blind_to_custom_lists(benchmark, fresh_scenario):
    """YemenNet blocks political hosts via a custom list (Table 4), yet
    the probe enumerates vendor categories only — no 'Politics'."""
    scenario = fresh_scenario
    box = scenario.deployments["yemennet-netsweeper"]
    assert box.policy.custom_blocked_hosts, "scenario should custom-block hosts"
    probe = benchmark.pedantic(
        run_category_probe,
        args=(scenario.world, "yemennet"),
        rounds=1,
        iterations=1,
    )
    assert "Politics" not in probe.blocked_names
    assert "General News" not in probe.blocked_names


def test_probe_useless_when_disabled(benchmark):
    """§4.4: 'only viable in networks where the tool has not been
    disabled'."""
    scenario = build_scenario()
    scenario.deployments[
        "yemennet-netsweeper"
    ].policy.honor_category_test_pages = False
    probe = benchmark.pedantic(
        run_category_probe,
        args=(scenario.world, "yemennet"),
        rounds=1,
        iterations=1,
    )
    assert probe.blocked == []
