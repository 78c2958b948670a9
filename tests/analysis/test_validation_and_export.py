"""Tests for the scorecard validator and structured exports."""

from __future__ import annotations

import json

import pytest

from repro import FullStudy, build_scenario
from repro.analysis.export import (
    characterization_rows,
    confirmations_rows,
    installations_rows,
    to_csv,
    to_json,
)
from repro.analysis.validation import validate_report
from repro.core.identify import IdentificationReport
from repro.core.pipeline import StudyReport


@pytest.fixture(scope="module")
def full_report():
    return FullStudy(build_scenario()).run()


class DescribeScorecard:
    def test_calibrated_run_matches_everything(self, full_report):
        scorecard = validate_report(full_report)
        assert scorecard.all_matched, scorecard.summary()
        # 4 figure1 products + 10 table3 rows + probe + 4 table4 rows
        assert scorecard.total == 19
        assert "EXACT MATCH" in scorecard.summary()

    def test_by_artifact_partition(self, full_report):
        scorecard = validate_report(full_report)
        assert len(scorecard.by_artifact("figure1")) == 4
        assert len(scorecard.by_artifact("table3")) == 10
        assert len(scorecard.by_artifact("probe")) == 1
        assert len(scorecard.by_artifact("table4")) == 4

    def test_empty_report_fails_gracefully(self):
        empty = StudyReport(identification=IdentificationReport())
        scorecard = validate_report(empty)
        assert not scorecard.all_matched
        assert scorecard.passed == 0
        assert any(
            "case study missing" in check.detail
            for check in scorecard.failures()
        )
        assert "DIFFERS" in scorecard.summary()


class DescribeExport:
    def test_installations_rows(self, full_report):
        rows = installations_rows(full_report.identification)
        assert len(rows) == len(full_report.identification.installations)
        sample = rows[0]
        assert {"ip", "product", "country", "asn", "org_name"} <= set(sample)

    def test_confirmations_rows(self, full_report):
        rows = confirmations_rows(full_report)
        assert len(rows) == 10
        bayanat = next(r for r in rows if r["isp"] == "bayanat")
        assert bayanat["blocked_submitted"] == 5
        assert bayanat["confirmed"] is True
        assert bayanat["blocked_control"] == 0

    def test_characterization_rows(self, full_report):
        rows = characterization_rows(full_report)
        assert {r["isp"] for r in rows} == {
            "etisalat", "du", "yemennet", "ooredoo",
        }
        assert all(r["tested"] >= r["blocked"] >= 0 for r in rows)

    def test_json_roundtrip(self, full_report):
        document = json.loads(to_json(full_report))
        assert set(document) == {
            "installations",
            "confirmations",
            "characterization",
            "category_probe",
        }
        assert document["category_probe"]["tested"] == 66
        assert len(document["confirmations"]) == 10

    def test_csv_rendering(self, full_report):
        text = to_csv(confirmations_rows(full_report))
        lines = text.strip().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[0].startswith("product,isp,category")

    def test_csv_joins_lists(self, full_report):
        text = to_csv(installations_rows(full_report.identification))
        assert ";" in text or "evidence" in text

    def test_csv_empty(self):
        assert to_csv([]) == ""
