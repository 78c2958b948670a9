"""E2 — Table 2: keywords and WhatWeb signatures discriminate products.

Every externally visible installation must (a) be surfaced by at least
one of its product's Shodan keywords and (b) validate under its
product's WhatWeb signature; the keyword-colliding noise hosts must be
surfaced by keywords yet REJECTED by validation — the two-stage design
the paper relies on. Benchmarks the WhatWeb engine over all candidates.
"""

from __future__ import annotations

from repro.analysis import render_table2
from repro.geo.maxmind import GeoDatabase
from repro.products import default_registry
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.scan.whatweb import WhatWebEngine, world_probe

SHODAN_KEYWORDS = default_registry().shodan_keywords()


def test_table2_signatures(benchmark, session_scenario):
    scenario = session_scenario
    world = scenario.world
    print("\n" + render_table2())

    records = scan_world(world)
    geo = GeoDatabase.build_from_world(world)
    shodan = ShodanIndex(records, geolocate=geo.country_code)
    whatweb = WhatWebEngine(world_probe(world))

    visible = [
        box
        for box in scenario.deployments.values()
        if box.externally_visible and box.enabled
    ]
    assert visible

    # (a) Shodan keywords surface each visible appliance.
    for box in visible:
        vendor = box.appliance.vendor
        surfaced = any(
            any(record.ip == box.box_ip for record in shodan.search(keyword))
            for keyword in SHODAN_KEYWORDS[vendor]
        )
        assert surfaced, f"{box.name} not surfaced by {vendor} keywords"

    # (b) WhatWeb validates each visible appliance...
    def validate_all():
        return [whatweb.identify(box.box_ip) for box in visible]

    reports = benchmark.pedantic(validate_all, rounds=1, iterations=1)
    for box, report in zip(visible, reports):
        assert report.matched(box.appliance.vendor), (
            f"{box.name}: WhatWeb missed {box.appliance.vendor}; "
            f"matched {report.products}"
        )

    # ... and rejects the keyword-colliding noise hosts.
    noise_ips = [
        host.ip for host in world.hosts.values() if "noise" in host.tags
    ]
    assert noise_ips, "scenario should contain noise hosts"
    for ip in noise_ips:
        report = whatweb.identify(ip)
        assert not report.matches, (
            f"noise host {ip} wrongly validated as {report.products}"
        )


def test_stacked_box_shows_both_surfaces(benchmark, session_scenario):
    """§4.5: the Etisalat box validates as Blue Coat AND SmartFilter."""
    scenario = session_scenario
    world = scenario.world
    whatweb = WhatWebEngine(world_probe(world))
    stack = scenario.deployments["etisalat-stack"]

    report = benchmark.pedantic(
        whatweb.identify, args=(stack.box_ip,), rounds=1, iterations=1
    )
    assert report.matched("Blue Coat")
    assert report.matched("McAfee SmartFilter")
