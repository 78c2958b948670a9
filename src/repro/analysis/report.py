"""Markdown report writer for a completed study."""

from __future__ import annotations

from typing import Optional

from repro.analysis.export import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
)
from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.products.registry import NETSWEEPER
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.core.pipeline import StudyReport
    from repro.exec.metrics import Metrics


def write_markdown_report(report: "StudyReport", *, seed: Optional[int] = None) -> str:
    """Render the full campaign as a self-contained markdown document.

    Deliberately excludes execution metrics: the document is a function
    of the scenario alone and stays byte-identical at any worker count.
    Use :func:`write_execution_summary` for the run-shape appendix.
    """
    seed_line = f"Scenario seed: `{seed}`.\n" if seed is not None else ""
    identification = report.identification
    sections = [
        "# URL-Filter Censorship Study — Reproduction Report",
        "",
        "Reproduction of Dalek et al., *A Method for Identifying and "
        "Confirming the Use of URL Filtering Products for Censorship* "
        "(IMC 2013), run against the simulated ground-truth world.",
        seed_line,
        "## Table 1 — Products considered",
        "```", render_table1(), "```",
        "",
        "## Table 2 — Identification methodology",
        "```", render_table2(identification.products or None), "```",
        "",
        "## Figure 1 — Locations of URL filter installations",
        "```",
        render_figure1(
            installations_rows(identification), identification.products
        ),
        "```",
        "",
        f"- Shodan queries issued: {identification.queries_issued}",
        f"- candidates surfaced: {len(identification.candidates)}",
        f"- validated installations: {len(identification.installations)}",
        f"- rejected by WhatWeb: {len(identification.rejected)}",
        f"- keyword-stage precision: {identification.precision:.2f}",
        "",
        "## Table 3 — Confirmation case studies",
        "```",
        render_table3(map(confirmation_record, report.confirmations)),
        "```",
        "",
    ]
    if report.category_probe is not None:
        sections += [
            f"## {NETSWEEPER} category probe (YemenNet)",
            "```",
            render_category_probe(probe_record(report.category_probe)),
            "```",
            "",
        ]
    if report.characterizations:
        sections += [
            "## Table 4 — Content blocked by confirmed deployments",
            "```", render_table4(characterization_rows(report)), "```",
            "",
        ]
    pairs = report.confirmed_pairs()
    sections += [
        "## Headline finding",
        "",
        "Confirmed product/ISP pairs: "
        + (", ".join(f"**{p}** in `{i}`" for p, i in pairs) or "none")
        + ".",
        "",
    ]
    return "\n".join(sections)


def write_execution_summary(metrics: "Metrics") -> str:
    """Render how a run executed (timings, fan-out).

    Kept separate from :func:`write_markdown_report` because timings are
    not deterministic; callers opt in via ``repro study --metrics``.
    """
    sections = ["## Execution summary", ""]
    sections += ["```", metrics.summary(), "```", ""]
    return "\n".join(sections)
