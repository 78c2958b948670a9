"""Every outlet of a study re-renders every table from the same rows.

A study reaches readers three ways: the live report, the epoch a
results store commits (which ``repro query`` and the serving API read),
and the ``repro study --json`` document. All three must carry one row
schema per record kind, so that:

- the JSON document holds, for every kind, exactly the rows the store
  keeps for the committed epoch;
- Figure 1, Table 3, Table 4 and the YemenNet category probe render
  byte-identically from the live results, from the committed epoch and
  from the JSON document.

Checked on the default study at the calibrated seed 2013 and at the
cross-seed tests' seeds 101 and 202, and on the degraded Netsweeper
study that CI's chaos job runs (a partial result under a fault plan).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
    to_json,
)
from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_table3,
    render_table4,
)
from repro.core.pipeline import FullStudy, PartialStudyResult
from repro.query.views import render_epoch_table
from repro.store import ResultsStore
from repro.world.faults import FaultPlan
from repro.world.scenario import build_scenario

STUDY_KINDS = {
    "installations", "confirmations", "characterizations", "category_probe",
}
TABLES = ("figure1", "table3", "table4", "probe")
DEGRADED_PLAN = "seed=7,reset=0.05,dns_timeout=0.04"


@pytest.fixture(scope="module", params=[2013, 101, 202, "degraded"])
def published(request, tmp_path_factory):
    """One run's outlets: (live report, products, store, manifest, doc)."""
    if request.param == "degraded":
        study = FullStudy(
            build_scenario(),
            products=["Netsweeper"],
            fault_plan=FaultPlan.parse(DEGRADED_PLAN),
        )
        outcome = study.run()
        # Non-vacuity: the plan really degrades this study.
        assert isinstance(outcome, PartialStudyResult)
        assert not outcome.complete
        report = outcome.report
    else:
        study = FullStudy(build_scenario(seed=request.param))
        outcome = report = study.run()
    store = ResultsStore(tmp_path_factory.mktemp(str(request.param)))
    manifest = store.manifest(study.commit_epoch(store, outcome).epoch_id)
    document = json.loads(to_json(study.epoch(outcome)))
    return report, study.identity()["products"], store, manifest, document


def _live_tables(report) -> list:
    identification = report.identification
    return [
        render_figure1(
            installations_rows(identification), identification.products
        ),
        render_table3(map(confirmation_record, report.confirmations)),
        render_table4(characterization_rows(report)),
        render_category_probe(probe_record(report.category_probe)),
    ]


def _json_tables(document, products) -> list:
    [probe] = document["category_probe"]
    return [
        render_figure1(document["installations"], products),
        render_table3(document["confirmations"]),
        render_table4(document["characterizations"]),
        render_category_probe(probe),
    ]


def test_json_holds_the_rows_the_store_keeps(published):
    _report, _products, store, manifest, document = published
    assert set(document) == set(manifest.segments) == STUDY_KINDS
    for kind, rows in document.items():
        assert rows == store.records(manifest.epoch_id, kind), kind


def test_every_outlet_renders_the_same_tables(published):
    report, products, store, manifest, document = published
    live = _live_tables(report)
    stored = [render_epoch_table(store, manifest, name) for name in TABLES]
    assert stored == live
    assert _json_tables(document, products) == live
