"""E3 — Figure 1: countries where each product's installations are found.

The identification pipeline (scan → keyword x ccTLD → WhatWeb →
MaxMind/Cymru) must re-derive the paper's per-product country map from
the world's banners alone. Benchmarks the full §3 pipeline.
"""

from __future__ import annotations

from repro import FullStudy
from repro.analysis import PAPER_FIGURE1, installations_rows, render_figure1


def test_figure1_country_map(benchmark, fresh_scenario):
    study = FullStudy(fresh_scenario)
    report = benchmark.pedantic(study.run_identification, rounds=1, iterations=1)

    print("\n" + render_figure1(installations_rows(report), report.products))

    measured = report.country_map()
    for product, expected in PAPER_FIGURE1.items():
        assert measured[product] == set(expected), (
            f"{product}: measured {sorted(measured[product])} "
            f"!= paper {sorted(expected)}"
        )

    # The keyword stage is deliberately non-conservative: validation
    # must be doing real work (§3.1).
    assert report.rejected, "expected keyword false positives to be rejected"
    assert 0.5 < report.precision < 1.0


def test_hidden_installations_are_missed(benchmark, session_scenario):
    """The stated limitation: only externally visible installations are
    identifiable. The hidden SmartFilter region (IR/BH/OM/TN) must NOT
    appear in Figure 1."""
    scenario = session_scenario
    report = benchmark.pedantic(
        FullStudy(scenario).run_identification, rounds=1, iterations=1
    )
    smartfilter_countries = report.countries("McAfee SmartFilter")
    for hidden in ("ir", "bh", "om", "tn"):
        assert hidden not in smartfilter_countries
