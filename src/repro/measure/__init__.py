"""Measurement layer: field/lab clients, verdicts, test lists, domains."""

from repro.measure.classifiers import (
    BlockPagePatternMatcher,
    PageRecord,
    PageView,
    VerdictEngine,
    default_classifiers,
    default_filters,
    fuse,
)
from repro.measure.classifiers.blockpage import BlockPagePattern
from repro.measure.client import MeasurementClient, MeasurementRun, UrlTest
from repro.measure.verdict import Comparison, Detection, Signal, Verdict
from repro.measure.domains import (
    ADULT_IMAGE_PATH,
    BENIGN_IMAGE_PATH,
    TestDomain,
    TestDomainFactory,
)
from repro.measure.glype import GLYPE_MARKER, glype_index_page
from repro.measure.netalyzr import (
    ProxyDetectionReport,
    ProxyFinding,
    REFERENCE_HOST,
    detect_proxy,
    install_reference_server,
    survey_isps,
)
from repro.measure.testlists import (
    CATEGORY_BY_NAME,
    LIST_CATEGORIES,
    ListCategory,
    Table4Column,
    TestList,
    TestListEntry,
    Theme,
    build_global_list,
    build_local_list,
)

__all__ = [
    "ADULT_IMAGE_PATH",
    "BENIGN_IMAGE_PATH",
    "BlockPagePattern",
    "BlockPagePatternMatcher",
    "CATEGORY_BY_NAME",
    "Comparison",
    "Detection",
    "PageRecord",
    "PageView",
    "Signal",
    "VerdictEngine",
    "GLYPE_MARKER",
    "LIST_CATEGORIES",
    "ListCategory",
    "MeasurementClient",
    "MeasurementRun",
    "ProxyDetectionReport",
    "ProxyFinding",
    "REFERENCE_HOST",
    "detect_proxy",
    "install_reference_server",
    "survey_isps",
    "Table4Column",
    "TestDomain",
    "TestDomainFactory",
    "TestList",
    "TestListEntry",
    "Theme",
    "UrlTest",
    "Verdict",
    "build_global_list",
    "build_local_list",
    "default_classifiers",
    "default_filters",
    "fuse",
    "glype_index_page",
]
