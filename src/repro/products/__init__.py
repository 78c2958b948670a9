"""URL-filtering product models: vendor databases, portals, block pages."""

from repro.products.base import (
    BlockPageConfig,
    DeploymentContext,
    SIGNATURE_HEADER_NAMES,
    UrlFilterProduct,
    strip_signature_headers,
)
from repro.products.bluecoat import BlueCoatProxySG, CFAUTH_HOST, make_bluecoat
from repro.products.categories import (
    BLUECOAT_TAXONOMY,
    NETSWEEPER_TAXONOMY,
    SMARTFILTER_TAXONOMY,
    TAXONOMIES,
    Taxonomy,
    VendorCategory,
    WEBSENSE_TAXONOMY,
)
from repro.products.database import DatabaseSubscription, DbEntry, UrlDatabase
from repro.products.licensing import LicenseModel
from repro.products.registry import (
    BLUE_COAT,
    FORTIGUARD,
    NETSWEEPER,
    REGISTRY,
    SMARTFILTER,
    WEBSENSE,
    BlockPatternSpec,
    ProductRegistry,
    ProductSpec,
    default_registry,
)
from repro.products.signatures import (
    Evidence,
    ProbeObservation,
    SignatureFn,
    body_contains,
    header_contains,
    header_present,
    location_matches,
    title_contains,
)
from repro.products.netsweeper import (
    ADMIN_PORT as NETSWEEPER_ADMIN_PORT,
    CATEGORY_TEST_HOST,
    Netsweeper,
    make_netsweeper,
)
from repro.products.smartfilter import McAfeeSmartFilter, make_smartfilter
from repro.products.submission import (
    ReviewPolicy,
    Submission,
    SubmissionPortal,
    SubmissionStatus,
    SubmitterIdentity,
)
from repro.products.websense import (
    BLOCKPAGE_PORT as WEBSENSE_BLOCKPAGE_PORT,
    Websense,
    make_websense,
)

__all__ = [
    "BLUECOAT_TAXONOMY",
    "BLUE_COAT",
    "BlockPageConfig",
    "BlockPatternSpec",
    "BlueCoatProxySG",
    "CATEGORY_TEST_HOST",
    "CFAUTH_HOST",
    "DatabaseSubscription",
    "DbEntry",
    "DeploymentContext",
    "Evidence",
    "FORTIGUARD",
    "LicenseModel",
    "McAfeeSmartFilter",
    "NETSWEEPER",
    "NETSWEEPER_ADMIN_PORT",
    "NETSWEEPER_TAXONOMY",
    "Netsweeper",
    "ProbeObservation",
    "ProductRegistry",
    "ProductSpec",
    "REGISTRY",
    "ReviewPolicy",
    "SIGNATURE_HEADER_NAMES",
    "SMARTFILTER",
    "SMARTFILTER_TAXONOMY",
    "SignatureFn",
    "Submission",
    "SubmissionPortal",
    "SubmissionStatus",
    "SubmitterIdentity",
    "TAXONOMIES",
    "Taxonomy",
    "UrlDatabase",
    "UrlFilterProduct",
    "VendorCategory",
    "WEBSENSE",
    "WEBSENSE_BLOCKPAGE_PORT",
    "WEBSENSE_TAXONOMY",
    "Websense",
    "body_contains",
    "default_registry",
    "header_contains",
    "header_present",
    "location_matches",
    "make_bluecoat",
    "make_netsweeper",
    "make_smartfilter",
    "make_websense",
    "strip_signature_headers",
    "title_contains",
]
