"""PartialStudyResult survives the checkpoint codec byte-for-byte.

Satellite of the durability work: the same ``encode_state`` /
``decode_state`` codec that persists snapshots must round-trip a
complete :class:`PartialStudyResult` — the report, the coverage
counters, the quarantine dead-letter list, the breaker states — such
that every published artifact (Table 2 keywords, Table 3 confirmation
rows, Table 4 characterization splits, the §4.4 probe) and every
partial-data annotation re-renders identically from the deserialized
object. A checkpoint that silently perturbed a table or dropped a
caveat would be worse than no checkpoint.
"""

import pytest

from repro.analysis.export import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
    to_json,
)
from repro.analysis.report import write_markdown_report
from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.core.pipeline import FullStudy, PartialStudyResult
from repro.exec.checkpoint import decode_state, encode_state
from repro.products.registry import NETSWEEPER
from repro.world.faults import FaultPlan
from repro.world.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def study():
    return FullStudy(
        build_scenario(seed=17, config=ScenarioConfig(population_size=300)),
        products=[NETSWEEPER],
        fault_plan=FaultPlan.parse("seed=11,nxdomain=0.25,reset=0.2"),
        max_retries=1,
    )


@pytest.fixture(scope="module")
def partial(study):
    result = study.run()
    assert isinstance(result, PartialStudyResult)
    return result


@pytest.fixture(scope="module")
def restored(partial):
    encoded = encode_state(partial)
    # The codec output is plain JSON-safe strings (what lands on disk).
    assert set(encoded) == {"blob", "sha256"}
    return decode_state(encoded)


class DescribePartialStudyRoundTrip:
    def test_restores_the_wrapper_type(self, restored):
        assert isinstance(restored, PartialStudyResult)

    def test_tables_re_render_identically(self, partial, restored):
        before, after = partial.report, restored.report
        assert render_table2([NETSWEEPER]) == render_table2([NETSWEEPER])
        assert render_figure1(
            installations_rows(after.identification),
            after.identification.products,
        ) == render_figure1(
            installations_rows(before.identification),
            before.identification.products,
        )
        assert render_table3(
            map(confirmation_record, after.confirmations)
        ) == render_table3(map(confirmation_record, before.confirmations))
        assert render_table4(characterization_rows(after)) == render_table4(
            characterization_rows(before)
        )
        assert render_category_probe(probe_record(after.category_probe)) == (
            render_category_probe(probe_record(before.category_probe))
        )

    def test_annotations_and_summary_re_render_identically(
        self, partial, restored
    ):
        assert restored.annotations() == partial.annotations()
        assert restored.summary_lines() == partial.summary_lines()
        assert restored.complete == partial.complete
        # Non-vacuity: this fault plan really does degrade the study.
        assert not partial.complete
        assert partial.annotations()

    def test_full_exports_are_byte_identical(self, study, partial, restored):
        assert to_json(study.epoch(restored)) == to_json(study.epoch(partial))
        assert write_markdown_report(restored.report, seed=17) == (
            write_markdown_report(partial.report, seed=17)
        )

    def test_resilience_accounting_survives(self, partial, restored):
        assert restored.fault_plan.describe() == partial.fault_plan.describe()
        assert {
            stage: cov.as_dict() for stage, cov in restored.coverage.items()
        } == {stage: cov.as_dict() for stage, cov in partial.coverage.items()}
        assert [str(q) for q in restored.quarantined] == [
            str(q) for q in partial.quarantined
        ]
        assert restored.breaker_states == partial.breaker_states
