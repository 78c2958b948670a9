"""Analysis: published targets, table renderers, exports and validation."""

from repro.analysis.paper_data import (
    PAPER_FIGURE1,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_YEMEN_PROBE_CATEGORIES,
    Table1Row,
    Table3Row,
    Table4Row,
)
from repro.analysis.export import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
    to_csv,
    to_json,
)
from repro.analysis.report import write_markdown_report
from repro.analysis.validation import ArtifactCheck, Scorecard, validate_report
from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_paper_table5,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)

__all__ = [
    "ArtifactCheck",
    "PAPER_FIGURE1",
    "Scorecard",
    "characterization_rows",
    "confirmation_record",
    "installations_rows",
    "probe_record",
    "to_csv",
    "to_json",
    "validate_report",
    "write_markdown_report",
    "PAPER_TABLE1",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_YEMEN_PROBE_CATEGORIES",
    "Table1Row",
    "Table3Row",
    "Table4Row",
    "render_category_probe",
    "render_figure1",
    "render_paper_table5",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
]
