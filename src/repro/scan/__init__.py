"""Scanning substrate: banners, Shodan-like index, census, WhatWeb."""

from repro.scan.banner import (
    BannerRecord,
    DEFAULT_SCAN_PORTS,
    grab_banner,
    scan_world,
)
from repro.scan.census import CensusDataset, run_census
from repro.scan.shodan import (
    DEFAULT_RESULT_CAP,
    ShodanIndex,
    ShodanQueryLog,
)
from repro.products.registry import (
    BLUE_COAT,
    NETSWEEPER,
    SMARTFILTER,
    WEBSENSE,
)
from repro.scan.stream import (
    BatchJob,
    BatchResult,
    DEFAULT_BATCH_SIZE,
    SCAN_VANTAGE,
    ScanSummary,
    StreamingScan,
    scan_batch,
)
from repro.scan.signatures import (
    DEFAULT_PROBE_PLAN,
    Evidence,
    PRODUCT_NAMES,
    ProbeObservation,
    SHODAN_KEYWORDS,
    WHATWEB_SIGNATURES,
)
from repro.scan.whatweb import (
    ProductMatch,
    WhatWebEngine,
    WhatWebReport,
    world_probe,
)

__all__ = [
    "BLUE_COAT",
    "BannerRecord",
    "BatchJob",
    "BatchResult",
    "CensusDataset",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_PROBE_PLAN",
    "DEFAULT_RESULT_CAP",
    "DEFAULT_SCAN_PORTS",
    "Evidence",
    "SCAN_VANTAGE",
    "ScanSummary",
    "StreamingScan",
    "scan_batch",
    "NETSWEEPER",
    "PRODUCT_NAMES",
    "ProbeObservation",
    "ProductMatch",
    "SHODAN_KEYWORDS",
    "SMARTFILTER",
    "ShodanIndex",
    "ShodanQueryLog",
    "WEBSENSE",
    "WHATWEB_SIGNATURES",
    "WhatWebEngine",
    "WhatWebReport",
    "grab_banner",
    "run_census",
    "scan_world",
    "world_probe",
]
