#!/usr/bin/env python3
"""§3 step by step: locate candidates, validate, geolocate.

Shows the internals the quickstart hides: what the scanner indexed, how
keyword x ccTLD expansion beats the per-query result cap, which
candidates WhatWeb rejected (and why the survivors matched).

Run:  python examples/identify_installations.py
"""

from repro import build_scenario
from repro.core.identify import IdentificationPipeline
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.products import default_registry
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.scan.whatweb import WhatWebEngine, world_probe

#: Table 2, column "Shodan keywords", for the paper's four vendors.
SHODAN_KEYWORDS = default_registry().shodan_keywords()


def main() -> None:
    scenario = build_scenario()
    world = scenario.world

    print("1. Internet-wide banner scan")
    records = scan_world(world)
    print(f"   {len(records)} (ip, port) banners grabbed\n")

    geo = GeoDatabase.build_from_world(world)
    shodan = ShodanIndex(records, geolocate=geo.country_code)

    print("2. Keyword search (capped at", shodan.result_cap, "results/query)")
    for product, keywords in SHODAN_KEYWORDS.items():
        for keyword in keywords:
            hits = shodan.search(keyword)
            print(f"   {product:20s} {keyword!r:24s} -> {len(hits)} hits")
    print()

    print("3. Full pipeline with ccTLD expansion + WhatWeb validation")
    whatweb = WhatWebEngine(world_probe(world))
    whois = WhoisService.build_from_world(world)
    pipeline = IdentificationPipeline(shodan, whatweb, geo, whois)
    report = pipeline.run()

    print(f"   candidates: {len(report.candidates)}")
    print(f"   validated installations: {len(report.installations)}")
    print(f"   precision of keyword stage: {report.precision:.2f}\n")

    print("   Rejected candidates (keyword hits that are NOT the product):")
    for candidate in report.rejected:
        hostname = world.zone.reverse(candidate.ip) or str(candidate.ip)
        print(
            f"     {candidate.ip} ({hostname}) flagged for "
            f"{candidate.product} by {candidate.matched_queries}"
        )
    print()

    print("   Validated installations by product:")
    for product in SHODAN_KEYWORDS:
        print(f"   -- {product}")
        for inst in report.by_product(product):
            evidence = inst.evidence[0] if inst.evidence else ""
            print(
                f"      {inst.ip}  {inst.country_code.upper():3s} "
                f"AS{inst.asn} {inst.org_name} "
                f"[{inst.org_kind.value if inst.org_kind else '?'}] "
                f"({evidence})"
            )


if __name__ == "__main__":
    main()
