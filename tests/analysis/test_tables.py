"""Unit tests for table rendering and paper-data integrity."""

from __future__ import annotations

from repro.analysis.paper_data import (
    PAPER_FIGURE1,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_YEMEN_PROBE_CATEGORIES,
)
from repro.analysis.tables import (
    render_paper_table5,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.confirm import ConfirmationResult
from repro.products.categories import NETSWEEPER_TAXONOMY
from repro.scan.signatures import PRODUCT_NAMES


class DescribePaperData:
    def test_table3_has_ten_rows(self):
        assert len(PAPER_TABLE3) == 10

    def test_table3_confirmed_rows_have_blocks(self):
        for row in PAPER_TABLE3:
            if row.confirmed:
                assert row.blocked >= row.submitted - 1
            else:
                assert row.blocked == 0

    def test_table3_submitted_subset_of_total(self):
        for row in PAPER_TABLE3:
            assert 0 < row.submitted <= row.total

    def test_figure1_covers_all_products(self):
        assert set(PAPER_FIGURE1) == set(PRODUCT_NAMES)

    def test_table1_covers_all_products(self):
        assert {row.company for row in PAPER_TABLE1} == set(PRODUCT_NAMES)

    def test_probe_categories_exist_in_taxonomy(self):
        for name in PAPER_YEMEN_PROBE_CATEGORIES:
            assert NETSWEEPER_TAXONOMY.by_name(name) is not None

    def test_table4_isps_unique(self):
        keys = [(row.product, row.asn) for row in PAPER_TABLE4]
        assert len(set(keys)) == len(keys)


class DescribeRenderers:
    def test_table1_renders_all_companies(self):
        text = render_table1()
        for row in PAPER_TABLE1:
            assert row.company in text

    def test_table2_renders_keywords(self):
        text = render_table2()
        assert "proxysg" in text
        assert "blockpage.cgi" in text
        assert "ws-session" in text

    def test_table3_handles_missing_results(self):
        text = render_table3([])
        assert "n/a" in text
        assert "Bayanat Al-Oula" in text

    def test_paper_table5_renders(self):
        text = render_paper_table5()
        assert "externally visible" in text
        assert "§4" in text
