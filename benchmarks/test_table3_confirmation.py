"""E5 — Table 3: the ten confirmation case studies.

The calibrated scenario must reproduce every published row exactly:
which cases confirm, which fail, and the blocked-count cells (5/5, 5/6,
6/6, 0/3, 0/5). Controls must stay accessible throughout (the causal
half of the methodology). Benchmarks a single full case study.
"""

from __future__ import annotations

from repro import ConfirmationStudy, build_scenario
from repro.analysis import PAPER_TABLE3, confirmation_record, render_table3
from repro.core.pipeline import config_for_row


def test_table3_rows_match_paper(benchmark, full_report):
    report, _scenario = full_report

    def render():
        return render_table3(map(confirmation_record, report.confirmations))

    table = benchmark.pedantic(render, rounds=1, iterations=1)
    print("\n" + table)

    assert len(report.confirmations) == len(PAPER_TABLE3)
    for row in PAPER_TABLE3:
        result = report.confirmation_for(row.product, row.isp_key, row.category)
        assert result is not None, f"missing case study: {row}"
        assert result.blocked_submitted == row.blocked, (
            f"{row.product}/{row.isp_key}/{row.category}: measured "
            f"{result.blocked_submitted}, paper {row.blocked}"
        )
        assert result.confirmed == row.confirmed
        assert len(result.submitted_outcomes) == row.submitted
        assert len(result.outcomes) == row.total
        # Held-out controls never flip within the study window.
        assert result.blocked_control == 0, (
            f"{row.isp_key}: {result.blocked_control} control domains blocked"
        )


def test_confirmed_pairs(benchmark, full_report):
    report, _scenario = full_report
    pairs = benchmark.pedantic(report.confirmed_pairs, rounds=1, iterations=1)
    assert ("McAfee SmartFilter", "bayanat") in pairs
    assert ("McAfee SmartFilter", "nournet") in pairs
    assert ("McAfee SmartFilter", "etisalat") in pairs
    assert ("Netsweeper", "du") in pairs
    assert ("Netsweeper", "ooredoo") in pairs
    assert ("Netsweeper", "yemennet") in pairs
    assert ("Blue Coat", "etisalat") not in pairs
    assert ("Blue Coat", "ooredoo") not in pairs


def test_single_case_study_runtime(benchmark):
    """Times one complete §4 case study on a fresh world."""
    row = PAPER_TABLE3[3]  # SmartFilter / Bayanat / 9-2012

    def run_case():
        scenario = build_scenario()
        study = ConfirmationStudy(
            scenario.world,
            scenario.products[row.product],
            scenario.hosting_asns[0],
        )
        return study.run(config_for_row(row))

    result = benchmark.pedantic(run_case, rounds=1, iterations=1)
    assert result.confirmed
    assert result.blocked_submitted == row.blocked
