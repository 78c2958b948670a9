"""Text renderers for the paper's tables and figure.

Each ``render_*`` function takes pipeline outputs and returns the
monospace table the benchmark harness prints, side by side with the
paper's published values where applicable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

from repro.analysis.paper_data import (
    PAPER_FIGURE1,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_YEMEN_PROBE_CATEGORIES,
    Table3Row,
)
from repro.core.characterize import CharacterizationResult
from repro.core.confirm import CategoryProbeResult, ConfirmationResult
from repro.core.identify import IdentificationReport
from repro.measure.testlists import Table4Column
from repro.products.registry import NETSWEEPER, default_registry


def _grid(rows: Sequence[Sequence[str]], header: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    columns = len(header)
    widths = [len(h) for h in header]
    for row in rows:
        for index in range(columns):
            widths[index] = max(widths[index], len(str(row[index])))
    lines = []
    divider = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append(divider)
    for row in rows:
        lines.append(
            " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_table1() -> str:
    """Table 1: the product inventory."""
    rows = [
        (
            row.company,
            row.headquarters,
            row.description,
            ", ".join(code.upper() for code in row.previously_observed),
        )
        for row in PAPER_TABLE1
    ]
    return _grid(
        rows, ("Company", "Headquarters", "Product description", "Previously observed")
    )


def render_table2(products: Optional[Sequence[str]] = None) -> str:
    """Table 2: identification keywords and validation signatures.

    Keywords and signature notes come straight off the registry specs;
    ``products`` restricts the rows (default: the paper's four vendors).
    """
    rows = [
        (spec.name, ", ".join(spec.shodan_keywords), spec.signature_note)
        for spec in default_registry().resolve(products)
    ]
    return _grid(rows, ("Product", "Shodan keywords", "WhatWeb signature"))


def render_figure1(report: IdentificationReport) -> str:
    """Figure 1: countries per product, measured vs paper."""
    rows = []
    product_names = report.products or default_registry().default_names()
    for product in product_names:
        measured = sorted(code.upper() for code in report.countries(product))
        expected = sorted(
            code.upper() for code in PAPER_FIGURE1.get(product, frozenset())
        )
        rows.append(
            (
                product,
                ", ".join(measured),
                ", ".join(expected),
                "match" if measured == expected else "DIFFERS",
            )
        )
    return _grid(rows, ("Product", "Measured countries", "Paper countries", ""))


def render_table3(
    confirmations: Iterable[ConfirmationResult],
    paper_rows: Optional[Sequence[Table3Row]] = None,
) -> str:
    """Table 3: case studies, measured vs paper.

    ``paper_rows`` restricts rendering to a subset of published rows
    (the CLI's single-case view); default is the whole table.
    """
    results = list(confirmations)

    def find(row: Table3Row) -> Optional[ConfirmationResult]:
        for result in results:
            cfg = result.config
            if (
                cfg.product_name == row.product
                and cfg.isp_name == row.isp_key
                and cfg.category_label == row.category
            ):
                return result
        return None

    rows = []
    for paper_row in (paper_rows if paper_rows is not None else PAPER_TABLE3):
        result = find(paper_row)
        if result is None:
            measured_blocked = "n/a"
            measured_confirmed = "n/a"
        else:
            measured_blocked = (
                f"{result.blocked_submitted}/{len(result.submitted_outcomes)}"
            )
            measured_confirmed = "yes" if result.confirmed else "no"
        rows.append(
            (
                paper_row.product,
                paper_row.country_code.upper(),
                f"{paper_row.isp_label} (AS {paper_row.asn})",
                f"{paper_row.date[1]}/{paper_row.date[0]}",
                f"{paper_row.submitted}/{paper_row.total}",
                paper_row.category,
                f"{paper_row.blocked}/{paper_row.submitted}",
                measured_blocked,
                "yes" if paper_row.confirmed else "no",
                measured_confirmed,
            )
        )
    return _grid(
        rows,
        (
            "Product", "Country", "ISP", "Date", "Submitted", "Category",
            "Paper blocked", "Measured blocked", "Paper ok", "Measured ok",
        ),
    )


def render_table4(characterizations: Dict[str, CharacterizationResult]) -> str:
    """Table 4: blocked rights-protected content, measured vs paper."""
    columns = list(Table4Column)
    header = ["Product", "Where"] + [c.value for c in columns] + [""]
    rows = []
    for paper_row in PAPER_TABLE4:
        result = characterizations.get(paper_row.isp_key)
        measured: Set[Table4Column] = (
            result.table4_columns() if result else set()
        )
        cells = []
        for column in columns:
            paper_mark = "x" if column in paper_row.columns else "."
            measured_mark = "x" if column in measured else "."
            cells.append(
                paper_mark if paper_mark == measured_mark else
                f"{measured_mark}(paper {paper_mark})"
            )
        rows.append(
            [
                paper_row.product,
                f"{paper_row.country_code.upper()} (AS {paper_row.asn})",
            ]
            + cells
            + ["match" if measured == set(paper_row.columns) else "DIFFERS"]
        )
    return _grid(rows, header)


def render_category_probe(probe: CategoryProbeResult) -> str:
    """§4.4: the YemenNet denypagetests probe, measured vs paper."""
    measured = set(probe.blocked_names)
    expected = set(PAPER_YEMEN_PROBE_CATEGORIES)
    rows = [
        (
            name,
            "blocked" if name in measured else "",
            "blocked" if name in expected else "",
        )
        for name in sorted(measured | expected)
    ]
    status = "match" if measured == expected else "DIFFERS"
    return (
        _grid(rows, (f"{NETSWEEPER} category", "Measured", "Paper"))
        + f"\n({probe.tested} categories probed; {status})"
    )


def render_table5(outcomes: Sequence) -> str:
    """Table 5: evasion tactics vs pipeline stages.

    ``outcomes`` are :class:`repro.core.evasion.EvasionOutcome` rows.
    """
    rows = [
        (
            outcome.tactic,
            "yes" if outcome.located else "no",
            "yes" if outcome.validated else "no",
            "yes" if outcome.confirmed else "no",
            outcome.note,
        )
        for outcome in outcomes
    ]
    return _grid(
        rows, ("Tactic", "Located", "Validated", "Confirmed", "Note")
    )


def render_paper_table5() -> str:
    rows = list(PAPER_TABLE5)
    return _grid(rows, ("Step", "Limitation", "Evasion tactic"))
