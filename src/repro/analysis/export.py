"""Structured export of study results (JSON / CSV).

The paper publishes its data (§1 footnote: "Data available at ..."); a
reproduction should too. These exporters flatten a
:class:`~repro.core.pipeline.StudyReport` into machine-readable rows.
The installation, confirmation, characterization and probe rows are
also what an epoch stores and what :mod:`repro.analysis.tables`
renders, so a table served from the store and the report's copy are
rendered from the same rows.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.core.confirm import CategoryProbeResult, ConfirmationResult
    from repro.core.identify import IdentificationReport
    from repro.core.pipeline import StudyReport


def installations_rows(
    identification: "IdentificationReport",
) -> List[Dict[str, Any]]:
    """Figure 1 backing data: one row per validated installation."""
    return [
        {
            "ip": str(installation.ip),
            "product": installation.product,
            "country": installation.country_code,
            "asn": installation.asn,
            "as_name": installation.as_name,
            "org_name": installation.org_name,
            "org_kind": installation.org_kind.value
            if installation.org_kind
            else None,
            "evidence": [str(e) for e in installation.evidence],
        }
        for installation in identification.installations
    ]


def confirmation_record(
    result: "ConfirmationResult", *, include_confidence: bool = False
) -> Dict[str, Any]:
    """Table 3 backing data for one case study, as an epoch stores it.

    ``include_confidence`` adds the fused verdict confidence and
    per-classifier signal breakdown. Opt-in: epoch ids are content
    hashes over the row bytes, so the default row shape must not change.
    """
    config = result.config
    row = {
        "product": config.product_name,
        "isp": config.isp_name,
        "category": config.category_label,
        "submitted_at": str(result.submitted_at),
        "submitted_at_minutes": result.submitted_at.minutes,
        "retested_at": str(result.retested_at),
        "domains_total": config.total_domains,
        "domains_submitted": config.submit_count,
        "submitted_outcomes": len(result.submitted_outcomes),
        "blocked_submitted": result.blocked_submitted,
        "blocked_control": result.blocked_control,
        "confirmed": result.confirmed,
        "pre_check_accessible": result.pre_check_accessible,
    }
    if include_confidence:
        row["confidence"] = round(result.confidence, 4)
        row["signals"] = result.signal_summary()
    return row


def confirmations_rows(report: "StudyReport") -> List[Dict[str, Any]]:
    """Table 3 backing data for the JSON and CSV exports.

    The stored rows without the outcome count and the submission
    minute, which the exports have never carried.
    """
    rows = []
    for result in report.confirmations:
        row = confirmation_record(result)
        del row["submitted_at_minutes"], row["submitted_outcomes"]
        rows.append(row)
    return rows


def characterization_rows(
    report: "StudyReport", *, include_confidence: bool = False
) -> List[Dict[str, Any]]:
    """Table 4 backing data: one row per (ISP, list category)."""
    rows = []
    for isp_key, result in sorted(report.characterizations.items()):
        for name, stats in sorted(result.stats.items()):
            row = {
                "isp": isp_key,
                "asn": result.asn,
                "country": result.country_code,
                "product": result.product_name,
                "category": name,
                "theme": stats.category.theme.value,
                "tested": stats.tested,
                "blocked": stats.blocked,
                "table4_column": stats.category.table4_column.value
                if stats.category.table4_column
                else None,
            }
            if include_confidence:
                row["confidence"] = round(stats.mean_confidence, 4)
                row["signals"] = dict(sorted(stats.signal_counts.items()))
            rows.append(row)
    return rows


def probe_record(probe: "CategoryProbeResult") -> Dict[str, Any]:
    """§4.4 backing data: the categories one ISP's probe found blocked."""
    return {
        "isp": probe.isp_name,
        "probed_at": str(probe.probed_at),
        "tested": probe.tested,
        "blocked": probe.blocked_names,
    }


def to_json(report: "StudyReport", *, indent: int = 2) -> str:
    """The whole campaign as one JSON document."""
    document = {
        "installations": installations_rows(report.identification),
        "confirmations": confirmations_rows(report),
        "characterization": characterization_rows(report),
    }
    if report.category_probe is not None:
        document["category_probe"] = probe_record(report.category_probe)
    return json.dumps(document, indent=indent, sort_keys=True)


def to_csv(rows: List[Dict[str, Any]]) -> str:
    """Render flat row dicts as CSV (lists joined with ``;``)."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                key: ";".join(value) if isinstance(value, list) else value
                for key, value in row.items()
            }
        )
    return buffer.getvalue()
