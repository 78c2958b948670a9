"""Text renderers for the paper's tables and figure.

Each ``render_*`` function returns the monospace table the benchmark
harness prints, side by side with the paper's published values where
applicable. Figure 1, Table 3, Table 4 and the §4.4 probe read the
plain rows of :mod:`repro.analysis.export` — the rows an epoch stores —
so the report renders a table from the same input the store serves it
from.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.analysis.paper_data import (
    PAPER_FIGURE1,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_YEMEN_PROBE_CATEGORIES,
    Table3Row,
)
from repro.measure.testlists import Table4Column
from repro.products.registry import NETSWEEPER, default_registry

Row = Dict[str, Any]


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


def render_figure1(
    rows: Iterable[Row], products: Optional[Sequence[str]] = None
) -> str:
    """Figure 1: countries per product, measured vs paper.

    ``rows`` are installation rows; ``products`` selects the products
    shown (default: the paper's four vendors).
    """
    countries: Dict[str, Set[str]] = {}
    for row in rows:
        if row["country"]:
            countries.setdefault(row["product"], set()).add(row["country"])
    body = []
    for product in products or default_registry().default_names():
        measured = sorted(code.upper() for code in countries.get(product, ()))
        expected = sorted(
            code.upper() for code in PAPER_FIGURE1.get(product, frozenset())
        )
        body.append(
            (
                product,
                ", ".join(measured),
                ", ".join(expected),
                "match" if measured == expected else "DIFFERS",
            )
        )
    return _grid(body, ("Product", "Measured countries", "Paper countries", ""))


def render_table3(
    rows: Iterable[Row],
    paper_rows: Optional[Sequence[Table3Row]] = None,
) -> str:
    """Table 3: case studies, measured vs paper.

    ``rows`` are confirmation rows; a (product, ISP, category) seen
    twice renders its first row. ``paper_rows`` restricts rendering to
    a subset of published rows (the CLI's single-case view); default is
    the whole table.
    """
    results: Dict[Tuple[str, str, str], Row] = {}
    for row in rows:
        results.setdefault((row["product"], row["isp"], row["category"]), row)

    body = []
    for paper_row in (paper_rows if paper_rows is not None else PAPER_TABLE3):
        result = results.get(
            (paper_row.product, paper_row.isp_key, paper_row.category)
        )
        if result is None:
            measured_blocked = "n/a"
            measured_confirmed = "n/a"
        else:
            measured_blocked = (
                f"{result['blocked_submitted']}/{result['submitted_outcomes']}"
            )
            measured_confirmed = "yes" if result["confirmed"] else "no"
        body.append(
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
        body,
        (
            "Product", "Country", "ISP", "Date", "Submitted", "Category",
            "Paper blocked", "Measured blocked", "Paper ok", "Measured ok",
        ),
    )


def render_table4(rows: Iterable[Row]) -> str:
    """Table 4: blocked rights-protected content, measured vs paper.

    ``rows`` are characterization rows, one per (ISP, list category);
    an ISP marks a column when one of its categories in that column
    had a URL blocked.
    """
    marked: Dict[str, Set[Table4Column]] = {}
    for row in rows:
        if row["blocked"] > 0 and row["table4_column"]:
            marked.setdefault(row["isp"], set()).add(
                Table4Column(row["table4_column"])
            )
    columns = list(Table4Column)
    header = ["Product", "Where"] + [c.value for c in columns] + [""]
    body = []
    for paper_row in PAPER_TABLE4:
        measured = marked.get(paper_row.isp_key, set())
        cells = []
        for column in columns:
            paper_mark = "x" if column in paper_row.columns else "."
            measured_mark = "x" if column in measured else "."
            cells.append(
                paper_mark if paper_mark == measured_mark else
                f"{measured_mark}(paper {paper_mark})"
            )
        body.append(
            [
                paper_row.product,
                f"{paper_row.country_code.upper()} (AS {paper_row.asn})",
            ]
            + cells
            + ["match" if measured == set(paper_row.columns) else "DIFFERS"]
        )
    return _grid(body, header)


def render_category_probe(row: Row) -> str:
    """§4.4: the YemenNet denypagetests probe, measured vs paper.

    ``row`` is the probe row: the categories probed and those blocked.
    """
    measured = set(row["blocked"])
    expected = set(PAPER_YEMEN_PROBE_CATEGORIES)
    body = [
        (
            name,
            "blocked" if name in measured else "",
            "blocked" if name in expected else "",
        )
        for name in sorted(measured | expected)
    ]
    status = "match" if measured == expected else "DIFFERS"
    return (
        _grid(body, (f"{NETSWEEPER} category", "Measured", "Paper"))
        + f"\n({row['tested']} categories probed; {status})"
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
