"""E9 — Table 4: rights-protected content blocked per deployment.

The §5 characterization (global + local lists, block-page regex
attribution) must mark the same Table 4 columns as the documented
reconstruction, and every confirmed deployment must block at least one
rights-protected column — the paper's headline human-rights finding.
Benchmarks one full characterization run.
"""

from __future__ import annotations

from repro import ContentCharacterization, build_scenario
from repro.analysis import PAPER_TABLE4, characterization_rows, render_table4


def test_table4_columns_match(benchmark, full_report):
    report, _scenario = full_report
    table = benchmark.pedantic(
        render_table4,
        args=(characterization_rows(report),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)

    assert set(report.characterizations) == {
        "etisalat", "du", "yemennet", "ooredoo"
    }
    for paper_row in PAPER_TABLE4:
        result = report.characterizations[paper_row.isp_key]
        measured = result.table4_columns()
        assert measured == set(paper_row.columns), (
            f"{paper_row.isp_key}: measured "
            f"{sorted(c.value for c in measured)} != paper "
            f"{sorted(c.value for c in paper_row.columns)}"
        )
        assert result.blocks_rights_protected_content()
        assert result.asn == paper_row.asn
        assert result.country_code == paper_row.country_code


def test_vendor_attribution(benchmark, full_report):
    """Blocked URLs attribute to the product actually doing the
    filtering — SmartFilter in Etisalat (not the Blue Coat appliance),
    Netsweeper elsewhere."""
    report, _scenario = full_report

    def attributions():
        return {
            isp: result.vendor_attribution()
            for isp, result in report.characterizations.items()
        }

    attribution = benchmark.pedantic(attributions, rounds=1, iterations=1)
    assert attribution["etisalat"].get("McAfee SmartFilter", 0) > 0
    assert attribution["etisalat"].get("Blue Coat", 0) == 0
    for isp in ("du", "yemennet", "ooredoo"):
        assert attribution[isp].get("Netsweeper", 0) > 0


def test_characterization_runtime(benchmark):
    scenario = build_scenario()
    characterization = ContentCharacterization(scenario.world)
    result = benchmark.pedantic(
        characterization.run,
        args=("du", "Netsweeper"),
        rounds=1,
        iterations=1,
    )
    assert result.tests, "characterization tested no URLs"
    assert result.blocks_rights_protected_content()
