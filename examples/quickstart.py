#!/usr/bin/env python3
"""Quickstart: run the paper's full campaign and print every artifact.

Builds the IMC'13 ground-truth world, replays the §3 identification
scan, the ten §4 case studies, the YemenNet category probe, and the §5
characterizations, then renders Tables 1-4, Figure 1, and the probe
side by side with the paper's published values.

Run:  python examples/quickstart.py
"""

from repro import FullStudy, build_scenario
from repro.analysis import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
    render_category_probe,
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)


def main() -> None:
    print("Building the IMC'13 scenario world ...")
    scenario = build_scenario()
    world = scenario.world
    print(
        f"  {len(world.countries)} countries, "
        f"{len(world.autonomous_systems)} ASes, "
        f"{len(world.websites)} websites, "
        f"{len(scenario.deployments)} filter deployments\n"
    )

    study = FullStudy(scenario)
    report = study.run()

    print("== Table 1: products considered ==")
    print(render_table1())
    print("\n== Table 2: identification methodology ==")
    print(render_table2())
    print("\n== Figure 1: locations of URL filter installations ==")
    print(
        render_figure1(
            installations_rows(report.identification),
            report.identification.products,
        )
    )
    print(
        f"\n  ({len(report.identification.candidates)} candidates from "
        f"{report.identification.queries_issued} Shodan queries, "
        f"{len(report.identification.installations)} validated, "
        f"{len(report.identification.rejected)} rejected by WhatWeb)"
    )
    print("\n== Table 3: confirmation case studies ==")
    print(render_table3(map(confirmation_record, report.confirmations)))
    print("\n== Netsweeper category probe (YemenNet, 1/2013) ==")
    print(render_category_probe(probe_record(report.category_probe)))
    print("\n== Table 4: content blocked by confirmed deployments ==")
    print(render_table4(characterization_rows(report)))
    print(
        "\nConfirmed product/ISP pairs: "
        + ", ".join(f"{p} in {i}" for p, i in report.confirmed_pairs())
    )


if __name__ == "__main__":
    main()
