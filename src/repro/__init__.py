"""repro — a reproduction of Dalek et al., "A Method for Identifying and
Confirming the Use of URL Filtering Products for Censorship" (IMC 2013).

The package implements the paper's two-part methodology — identifying
externally visible URL-filter installations by banner scanning +
signature validation (§3), and confirming their use for censorship via
controlled submissions to vendor categorization portals (§4) — together
with every substrate it needs, as a deterministic simulation: a
synthetic Internet (:mod:`repro.world`), four commercial filter product
models (:mod:`repro.products`), deployment middleboxes
(:mod:`repro.middlebox`), a Shodan-like scanner (:mod:`repro.scan`),
geolocation/whois (:mod:`repro.geo`), and the in-country measurement
apparatus (:mod:`repro.measure`).

Quickstart::

    from repro import build_scenario, FullStudy

    scenario = build_scenario()
    report = FullStudy(scenario).run()
    for result in report.confirmations:
        print(result.summary_row())
"""

from repro.core.confirm import (
    ConfirmationConfig,
    ConfirmationResult,
    ConfirmationStudy,
    run_category_probe,
)
from repro.core.characterize import ContentCharacterization
from repro.core.identify import IdentificationPipeline, IdentificationReport
from repro.core.pipeline import (
    FullStudy,
    StudyReport,
    run_full_study,
)
from repro.exec import Executor, Metrics
from repro.monitor import MonitorConfig, MonitorService, MonitorTarget
from repro.query import QueryEngine, RecordFilter
from repro.serve import ResultsServer
from repro.store import ResultsStore
from repro.world.builder import CustomScenario, WorldBuilder
from repro.world.scenario import (
    DEFAULT_SEED,
    Scenario,
    ScenarioConfig,
    build_scenario,
)
from repro.world.world import Vantage, World

__version__ = "1.0.0"

__all__ = [
    "ConfirmationConfig",
    "ConfirmationResult",
    "ConfirmationStudy",
    "ContentCharacterization",
    "CustomScenario",
    "DEFAULT_SEED",
    "Executor",
    "WorldBuilder",
    "FullStudy",
    "IdentificationPipeline",
    "IdentificationReport",
    "Metrics",
    "MonitorConfig",
    "MonitorService",
    "MonitorTarget",
    "QueryEngine",
    "RecordFilter",
    "ResultsServer",
    "ResultsStore",
    "Scenario",
    "ScenarioConfig",
    "StudyReport",
    "Vantage",
    "World",
    "__version__",
    "build_scenario",
    "run_category_probe",
    "run_full_study",
]
