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
from repro.scan.stream import (
    BatchJob,
    BatchResult,
    DEFAULT_BATCH_SIZE,
    SCAN_VANTAGE,
    ScanSummary,
    StreamingScan,
    scan_batch,
)
from repro.scan.whatweb import (
    ProductMatch,
    WhatWebEngine,
    WhatWebReport,
    world_probe,
)

__all__ = [
    "BannerRecord",
    "BatchJob",
    "BatchResult",
    "CensusDataset",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_RESULT_CAP",
    "DEFAULT_SCAN_PORTS",
    "SCAN_VANTAGE",
    "ScanSummary",
    "StreamingScan",
    "scan_batch",
    "ProductMatch",
    "ShodanIndex",
    "ShodanQueryLog",
    "WhatWebEngine",
    "WhatWebReport",
    "grab_banner",
    "run_census",
    "scan_world",
    "world_probe",
]
