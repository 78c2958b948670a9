"""E11 — ablation: identification recall vs. scanner coverage.

§6's limitation quantified: the scan-based method only sees what the
scanner has indexed. Sweeping the Shodan coverage fraction shows recall
(validated installations / visible ground truth) degrading, while
precision (validation) stays at 1.0 — the "high confidence subset"
framing of §1. Also compares the capped Shodan index against an
uncapped Internet-Census sweep.
"""

from __future__ import annotations

from repro import FullStudy, build_scenario
from repro.products import default_registry
from repro.scan.census import run_census

SHODAN_KEYWORDS = default_registry().shodan_keywords()


def _visible_ground_truth(scenario) -> int:
    return sum(
        1
        for box in scenario.deployments.values()
        if box.externally_visible and box.enabled
    )


def test_recall_vs_coverage(benchmark):
    def sweep():
        rows = []
        for coverage in (1.0, 0.75, 0.5, 0.25):
            scenario = build_scenario()
            truth = _visible_ground_truth(scenario)
            report = FullStudy(
                scenario, shodan_coverage=coverage
            ).run_identification()
            found = len(report.installations)
            rows.append((coverage, found, truth, found / truth))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\ncoverage  found  truth  recall")
    for coverage, found, truth, recall in rows:
        print(f"  {coverage:4.2f}    {found:4d}  {truth:4d}   {recall:.2f}")

    recalls = [recall for _c, _f, _t, recall in rows]
    assert recalls[0] >= 0.95, "full coverage should find ~everything visible"
    assert recalls[-1] < recalls[0], "recall must degrade with coverage"
    # Monotone non-increasing within tolerance.
    for earlier, later in zip(recalls, recalls[1:]):
        assert later <= earlier + 0.05


def test_census_beats_capped_shodan(benchmark, session_scenario):
    """The uncapped census grep returns at least as many hits per
    keyword as a capped Shodan query (the §3.1 motivation for moving to
    Internet Census data)."""
    scenario = session_scenario
    world = scenario.world

    census = benchmark.pedantic(run_census, args=(world,), rounds=1, iterations=1)

    from repro.scan.banner import scan_world
    from repro.scan.shodan import ShodanIndex

    shodan = ShodanIndex(scan_world(world), result_cap=5)
    for keywords in SHODAN_KEYWORDS.values():
        for keyword in keywords:
            bare = keyword.strip('"')
            capped = len(shodan.search(keyword))
            uncapped = len(census.grep(bare))
            assert uncapped >= capped


def test_cctld_expansion_defeats_result_cap(benchmark, session_scenario):
    """§3.1: keyword x ccTLD expansion recovers results a capped single
    query drops."""
    scenario = session_scenario
    world = scenario.world
    from repro.net.url import COUNTRY_CODE_TLDS
    from repro.scan.banner import scan_world
    from repro.scan.shodan import ShodanIndex

    records = scan_world(world)

    def expanded_vs_capped():
        tight = ShodanIndex(records, result_cap=3)
        single = len(tight.search("proxysg"))
        expanded = len(
            tight.search_expanded("proxysg", sorted(COUNTRY_CODE_TLDS))
        )
        return single, expanded

    single, expanded = benchmark.pedantic(
        expanded_vs_capped, rounds=1, iterations=1
    )
    print(f"\nsingle capped query: {single} hits; expanded: {expanded} hits")
    assert expanded > single
