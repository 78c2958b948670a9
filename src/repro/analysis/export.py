"""Structured export of study results (JSON / CSV).

The paper publishes its data (§1 footnote: "Data available at ..."); a
reproduction should too. These exporters flatten a
:class:`~repro.core.pipeline.StudyReport` into machine-readable rows.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.core.pipeline import StudyReport


def installations_rows(report: "StudyReport") -> List[Dict[str, Any]]:
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
        for installation in report.identification.installations
    ]


def confirmations_rows(report: "StudyReport") -> List[Dict[str, Any]]:
    """Table 3 backing data: one row per case study."""
    rows = []
    for result in report.confirmations:
        config = result.config
        row = {
            "product": config.product_name,
            "isp": config.isp_name,
            "category": config.category_label,
            "submitted_at": str(result.submitted_at),
            "retested_at": str(result.retested_at),
            "domains_total": config.total_domains,
            "domains_submitted": config.submit_count,
            "blocked_submitted": result.blocked_submitted,
            "blocked_control": result.blocked_control,
            "confirmed": result.confirmed,
            "pre_check_accessible": result.pre_check_accessible,
        }
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


def to_json(report: "StudyReport", *, indent: int = 2) -> str:
    """The whole campaign as one JSON document."""
    document = {
        "installations": installations_rows(report),
        "confirmations": confirmations_rows(report),
        "characterization": characterization_rows(report),
    }
    if report.category_probe is not None:
        document["category_probe"] = {
            "isp": report.category_probe.isp_name,
            "probed_at": str(report.category_probe.probed_at),
            "tested": report.category_probe.tested,
            "blocked": report.category_probe.blocked_names,
        }
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
