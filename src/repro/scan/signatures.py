"""Table 2: the identification keywords and validation signatures.

Everything here is derived from the product registry
(:mod:`repro.products.registry`); this module remains as the scanning
layer's view of Table 2.  Two artifacts per product:

- **Shodan keywords** — the strings searched (with ccTLD expansion) to
  locate candidate installations. Deliberately *not conservative*
  (§3.1): false positives are expected and weeded out by validation.
- **WhatWeb signature** — the rule the validation engine applies against
  live probes of a candidate IP.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.products.bluecoat import bluecoat_signature
from repro.products.netsweeper import netsweeper_signature
from repro.products.registry import default_registry
from repro.products.signatures import (
    Evidence,
    ProbeObservation,
    SignatureFn,
)
from repro.products.smartfilter import smartfilter_signature
from repro.products.websense import websense_signature

__all__ = [
    "DEFAULT_PROBE_PLAN",
    "Evidence",
    "PRODUCT_NAMES",
    "ProbeObservation",
    "SHODAN_KEYWORDS",
    "SignatureFn",
    "WHATWEB_SIGNATURES",
    "bluecoat_signature",
    "netsweeper_signature",
    "smartfilter_signature",
    "websense_signature",
]

_REGISTRY = default_registry()

PRODUCT_NAMES: Sequence[str] = _REGISTRY.default_names()

#: Table 2, column "Shodan keywords".
SHODAN_KEYWORDS: Dict[str, List[str]] = _REGISTRY.shodan_keywords()

#: Table 2, column "WhatWeb signature".
WHATWEB_SIGNATURES: Dict[str, SignatureFn] = _REGISTRY.whatweb_signatures()

#: Probe plan: the (port, path) pairs WhatWeb requests on a candidate IP.
DEFAULT_PROBE_PLAN: Sequence = _REGISTRY.probe_plan()
