"""Tests for the query engine: index-driven selection, filters,
aggregates, table views byte-identical to the live renderers, and
longitudinal diffs over a real two-epoch study store."""

from __future__ import annotations

import pytest

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
from repro.query import QueryEngine, RecordFilter, TransitionKind
from repro.store import ResultsStore, StoreError, build_epoch


class DescribeRecordFilter:
    def test_empty_filter(self):
        assert RecordFilter().empty
        assert RecordFilter().matches({"anything": 1})

    def test_constraints_stringify(self):
        record_filter = RecordFilter(asn=65001, isp="testnet")
        assert ("asn", "65001") in record_filter.constraints()
        assert record_filter.matches({"asn": 65001, "isp": "testnet"})
        assert not record_filter.matches({"asn": 65001, "isp": "other"})


class DescribeSelection:
    def test_epoch_ids_unfiltered(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        engine = QueryEngine(store)
        assert engine.epoch_ids() == store.epoch_ids()
        assert len(engine.epoch_ids()) == 2

    def test_filter_narrows_through_indexes(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        engine = QueryEngine(store)
        from repro.products.registry import NETSWEEPER, SMARTFILTER

        # Netsweeper only appears in the full four-product campaign.
        only_full = engine.epoch_ids(RecordFilter(product=NETSWEEPER))
        assert only_full == [store.epoch_ids()[1]]
        both = engine.epoch_ids(RecordFilter(product=SMARTFILTER))
        assert both == store.epoch_ids()

    def test_conjunctive_filter(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        engine = QueryEngine(store)
        from repro.products.registry import NETSWEEPER

        nothing = engine.epoch_ids(
            RecordFilter(product=NETSWEEPER, country="nowhere")
        )
        assert nothing == []

    def test_latest_is_newest_commit(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        assert QueryEngine(store).latest().epoch_id == store.epoch_ids()[-1]

    def test_latest_on_empty_store(self, tmp_path):
        with pytest.raises(StoreError, match="no epochs"):
            QueryEngine(ResultsStore(tmp_path)).latest()


class DescribeRecords:
    def test_select_rows_with_filter(self, two_epoch_store):
        store, _first, second = two_epoch_store
        engine = QueryEngine(store)
        rows = engine.select(
            "confirmations", record_filter=RecordFilter(isp="etisalat")
        )
        assert rows
        assert all(row["isp"] == "etisalat" for row in rows)
        live = [c for c in second.confirmations if c.config.isp_name == "etisalat"]
        assert len(rows) == len(live)

    def test_select_unknown_kind(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        with pytest.raises(StoreError, match="record kind"):
            QueryEngine(store).select("surprises")


class DescribeTableViews:
    """Stored renders must be byte-identical to the live renderers."""

    def test_table3(self, two_epoch_store):
        store, _first, second = two_epoch_store
        assert QueryEngine(store).table("table3") == render_table3(
            map(confirmation_record, second.confirmations)
        )

    def test_table4(self, two_epoch_store):
        store, _first, second = two_epoch_store
        assert QueryEngine(store).table("table4") == render_table4(
            characterization_rows(second)
        )

    def test_figure1(self, two_epoch_store):
        store, _first, second = two_epoch_store
        identification = second.identification
        assert QueryEngine(store).table("figure1") == render_figure1(
            installations_rows(identification), identification.products
        )

    def test_probe(self, two_epoch_store):
        store, _first, second = two_epoch_store
        assert QueryEngine(store).table("probe") == render_category_probe(
            probe_record(second.category_probe)
        )

    def test_older_epoch_renders_its_own_results(self, two_epoch_store):
        store, first, _second = two_epoch_store
        engine = QueryEngine(store)
        old_id = store.epoch_ids()[0]
        # The SmartFilter-only run: Table 2 and Figure 1 show one product.
        products = first.identification.products
        live = {
            "table1": render_table1(),
            "table2": render_table2(products),
            "figure1": render_figure1(
                installations_rows(first.identification), products
            ),
            "table3": render_table3(
                map(confirmation_record, first.confirmations)
            ),
            "table4": render_table4(characterization_rows(first)),
        }
        assert products == ("McAfee SmartFilter",)
        assert engine.tables_available(epoch=old_id) == list(live)
        for name in live:
            assert engine.table(name, epoch=old_id) == live[name], name

    def test_available_tables_track_segments(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        engine = QueryEngine(store)
        # The SmartFilter-only run has no category probe segment.
        assert "probe" not in engine.tables_available(
            epoch=store.epoch_ids()[0]
        )
        assert "probe" in engine.tables_available()

    def test_unknown_table_rejected(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        with pytest.raises(ValueError, match="unknown table"):
            QueryEngine(store).table("table9")


class DescribeDiff:
    def test_default_diff_spans_newest_pair(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        diff = QueryEngine(store).diff()
        assert diff.old.epoch_id == store.epoch_ids()[0]
        assert diff.new.epoch_id == store.epoch_ids()[1]
        # SmartFilter-only -> full campaign: other vendors' pairs appear,
        # the SmartFilter pairs persist; nothing is withdrawn.
        assert diff.by_kind(TransitionKind.APPEARED)
        assert diff.by_kind(TransitionKind.PERSISTED)
        assert not diff.by_kind(TransitionKind.WITHDRAWN)
        # New vendors' installations appear; none are withdrawn.
        assert diff.churn is not None
        assert diff.churn.appeared
        assert not diff.churn.withdrawn

    def test_reverse_diff_withdraws(self, two_epoch_store):
        store, _first, _second = two_epoch_store
        ids = store.epoch_ids()
        diff = QueryEngine(store).diff(old=ids[1], new=ids[0])
        assert diff.by_kind(TransitionKind.WITHDRAWN)
        assert not diff.by_kind(TransitionKind.APPEARED)

    def test_diff_needs_two_epochs(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.commit(
            build_epoch(
                identity={"seed": 1},
                fingerprint="fp",
                seed=1,
                window=(0, 1),
                records={"confirmations": []},
            )
        )
        with pytest.raises(StoreError, match="two committed epochs"):
            QueryEngine(store).diff()
