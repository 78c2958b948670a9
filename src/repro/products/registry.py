"""The product registry: one spec per vendor, consumed by every layer.

The paper's methodology is explicitly product-parameterized — Table 2
keywords, WhatWeb signatures, and §5 block-page regexes are per-vendor
rows.  :class:`ProductSpec` consolidates everything the pipeline knows
about one vendor; :class:`ProductRegistry` is the lookup the scanning,
measurement, core, world, and analysis layers iterate instead of
hard-coding the 2013 quadruple.  Adding product N+1 is one new module
under :mod:`repro.products` that builds a spec and calls
``REGISTRY.register()`` (see :mod:`repro.products.fortiguard` for the
worked example).

Derived corpora (the Shodan keyword table, the WhatWeb signature map,
the probe plan, the block-page pattern corpus, …) are computed from the
registered specs and cached; registration invalidates the caches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Pattern,
    Sequence,
    Tuple,
)

from repro.products.signatures import SignatureFn
from repro.world.content import ContentClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.products.base import UrlFilterProduct
    from repro.products.categories import Taxonomy

#: Canonical vendor display names, defined only here. Other modules
#: import them; ``tools/check_vendor_literals.py`` rejects a vendor-name
#: literal outside ``repro.products``.
BLUE_COAT = "Blue Coat"
SMARTFILTER = "McAfee SmartFilter"
NETSWEEPER = "Netsweeper"
WEBSENSE = "Websense"
FORTIGUARD = "FortiGuard"


@dataclass(frozen=True)
class BlockPatternSpec:
    """One §5 block-page regex: branded (brand strings) or structural."""

    regex: str
    scope: str = "body"  # "headers" | "body" | "any"
    branded: bool = False

    def __post_init__(self) -> None:
        if self.scope not in ("headers", "body", "any"):
            raise ValueError(f"bad pattern scope {self.scope!r}")
        re.compile(self.regex)  # fail fast on bad regexes


@dataclass(frozen=True)
class ProductSpec:
    """Everything the pipeline knows about one URL-filtering product.

    ``factory`` builds the simulated product:
    ``factory(content_oracle, rng, review_policy=..., hosting_oracle=...,
    **vendor_kwargs)``.  The world layer supplies per-scenario arguments
    (review policies are mutable — evasion studies edit them — so specs
    never hold policy *instances*).
    """

    # Identity
    name: str  # canonical display name ("Blue Coat")
    slug: str  # rng-label slug ("bluecoat"), stable across refactors
    order: int  # paper presentation order; registry iteration key
    paper_default: bool  # part of the IMC'13 reproduction defaults?

    # §3 identification (Table 2)
    shodan_keywords: Tuple[str, ...]
    signature: SignatureFn
    signature_note: str  # Table 2 "WhatWeb signature" prose cell
    probe_endpoints: Tuple[Tuple[int, str], ...] = ()  # extra (port, path)

    # §5 block-page corpus
    block_patterns: Tuple[BlockPatternSpec, ...] = ()

    # Simulation
    factory: Optional[Callable[..., "UrlFilterProduct"]] = None
    taxonomy: Optional["Taxonomy"] = None

    # §4 confirmation: vendor form category per probed content class.
    # A key mapped to None means the form takes no category field.
    category_requests: Mapping[ContentClass, Optional[str]] = field(
        default_factory=dict
    )
    #: §4: whether submitted URLs can be pre-validated as uncategorized
    #: (Netsweeper queues accesses instead, §4.4).
    pre_validate: bool = True

    # Branding / residue tokens
    brand_marks: Tuple[str, ...] = ()  # legacy block-page attribution
    scrub_tokens: Tuple[str, ...] = ()  # evasion: strings to scrub
    residue_tokens: Tuple[str, ...] = ()  # netalyzr transit-header needles
    #: (header, value) the appliance stamps on forwarded responses.
    proxy_annotation: Optional[Tuple[str, str]] = None

    # Table 1 metadata
    headquarters: str = ""
    description: str = ""
    previously_observed: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a display name")
        if not self.slug or not re.fullmatch(r"[a-z0-9_]+", self.slug):
            raise ValueError(f"bad slug {self.slug!r} for {self.name}")

    def structural_patterns(self) -> Tuple[BlockPatternSpec, ...]:
        return tuple(p for p in self.block_patterns if not p.branded)


class ProductRegistry:
    """Ordered vendor lookup with derived, cached corpora."""

    def __init__(self) -> None:
        self._specs: Dict[str, ProductSpec] = {}
        self._cache: Dict[object, object] = {}

    # -------------------------------------------------------- registration
    def register(self, spec: ProductSpec) -> ProductSpec:
        """Validate and add ``spec``; returns it for chaining."""
        if spec.name in self._specs:
            raise ValueError(f"product {spec.name!r} already registered")
        if not spec.shodan_keywords:
            raise ValueError(f"{spec.name}: at least one Shodan keyword")
        if not callable(spec.signature):
            raise ValueError(f"{spec.name}: signature must be callable")
        if not spec.structural_patterns():
            raise ValueError(
                f"{spec.name}: at least one structural block-page pattern"
            )
        for slug_owner in self._specs.values():
            if slug_owner.slug == spec.slug:
                raise ValueError(
                    f"{spec.name}: slug {spec.slug!r} already used by "
                    f"{slug_owner.name}"
                )
        if spec.taxonomy is not None:
            for content, label in spec.category_requests.items():
                if label is None:
                    continue
                try:
                    spec.taxonomy.by_name(label)
                except KeyError:
                    raise ValueError(
                        f"{spec.name}: category request {label!r} for "
                        f"{content} is not in the vendor taxonomy"
                    ) from None
        self._specs[spec.name] = spec
        self._cache.clear()
        return spec

    # -------------------------------------------------------------- lookup
    def get(self, name: str) -> ProductSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown product {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def find(self, name: str) -> Optional[ProductSpec]:
        return self._specs.get(name)

    def all(self) -> Tuple[ProductSpec, ...]:
        """Every spec, in (order, name) order — import-order independent."""
        return tuple(
            sorted(self._specs.values(), key=lambda s: (s.order, s.name))
        )

    def defaults(self) -> Tuple[ProductSpec, ...]:
        """The paper-reproduction default products (the 2013 four)."""
        return tuple(s for s in self.all() if s.paper_default)

    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.all())

    def default_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.defaults())

    def resolve(
        self, products: Optional[Sequence[str]] = None
    ) -> Tuple[ProductSpec, ...]:
        """Specs for a selection (None → defaults), in registry order."""
        if products is None:
            return self.defaults()
        wanted = set(products)
        unknown = wanted - set(self._specs)
        if unknown:
            raise KeyError(
                f"unknown products {sorted(unknown)!r}; "
                f"registered: {', '.join(self.names())}"
            )
        return tuple(s for s in self.all() if s.name in wanted)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ProductSpec]:
        return iter(self.all())

    # --------------------------------------------------- derived corpora
    def _memo(self, key: object, build: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _selection(
        self, products: Optional[Sequence[str]]
    ) -> Tuple[ProductSpec, ...]:
        return self.resolve(tuple(products) if products is not None else None)

    def shodan_keywords(
        self, products: Optional[Sequence[str]] = None
    ) -> Dict[str, List[str]]:
        """Table 2, column "Shodan keywords"."""
        key = ("shodan", tuple(products) if products is not None else None)
        return self._memo(
            key,
            lambda: {
                s.name: list(s.shodan_keywords)
                for s in self._selection(products)
            },
        )  # type: ignore[return-value]

    def whatweb_signatures(
        self, products: Optional[Sequence[str]] = None
    ) -> Dict[str, SignatureFn]:
        """Table 2, column "WhatWeb signature"."""
        key = ("whatweb", tuple(products) if products is not None else None)
        return self._memo(
            key,
            lambda: {s.name: s.signature for s in self._selection(products)},
        )  # type: ignore[return-value]

    def probe_plan(
        self, products: Optional[Sequence[str]] = None
    ) -> Tuple[Tuple[int, str], ...]:
        """The (port, path) pairs WhatWeb requests on a candidate IP.

        Common web ports first, then each selected vendor's distinctive
        endpoints (deduplicated, sorted for determinism), then the open
        proxy port.
        """
        key = ("plan", tuple(products) if products is not None else None)

        def build() -> Tuple[Tuple[int, str], ...]:
            base = [(80, "/"), (443, "/")]
            extras = sorted(
                {
                    endpoint
                    for s in self._selection(products)
                    for endpoint in s.probe_endpoints
                }
            )
            tail = [(3128, "/")]
            plan: List[Tuple[int, str]] = []
            for endpoint in base + extras + tail:
                if endpoint not in plan:
                    plan.append(endpoint)
            return tuple(plan)

        return self._memo(key, build)  # type: ignore[return-value]

    def scan_ports(
        self, products: Optional[Sequence[str]] = None
    ) -> Tuple[int, ...]:
        """Banner-scan ports: the common web set plus vendor extras."""
        key = ("ports", tuple(products) if products is not None else None)

        def build() -> Tuple[int, ...]:
            ports: List[int] = [80, 443, 8080, 8443, 3128]
            for spec in self._selection(products):
                for port, _path in spec.probe_endpoints:
                    if port not in ports:
                        ports.append(port)
            return tuple(ports)

        return self._memo(key, build)  # type: ignore[return-value]

    def block_page_patterns(
        self, products: Optional[Sequence[str]] = None
    ) -> Tuple["CompiledBlockPattern", ...]:
        """The §5 regex corpus, compiled, in registry order."""
        key = ("patterns", tuple(products) if products is not None else None)
        return self._memo(
            key,
            lambda: tuple(
                CompiledBlockPattern(
                    s.name,
                    re.compile(p.regex, re.IGNORECASE),
                    p.scope,
                    p.branded,
                )
                for s in self._selection(products)
                for p in s.block_patterns
            ),
        )  # type: ignore[return-value]

    def brand_marks(self) -> Tuple[Tuple[str, str], ...]:
        """(needle, vendor) pairs for first-match legacy attribution."""
        return self._memo(
            ("brand-marks",),
            lambda: tuple(
                (mark, s.name) for s in self.all() for mark in s.brand_marks
            ),
        )  # type: ignore[return-value]

    def scrub_tokens(self) -> Dict[str, Tuple[str, ...]]:
        """vendor → strings an evading operator scrubs from responses."""
        return self._memo(
            ("scrub",),
            lambda: {s.name: s.scrub_tokens for s in self.all()},
        )  # type: ignore[return-value]

    def residue_attribution(self) -> Tuple[Tuple[str, str], ...]:
        """(needle, vendor) pairs matched against proxy transit headers."""
        return self._memo(
            ("residue",),
            lambda: tuple(
                (token, s.name)
                for s in self.all()
                for token in s.residue_tokens
            ),
        )  # type: ignore[return-value]

    def proxy_annotations(self) -> Dict[str, Tuple[str, str]]:
        """vendor → (header, value) stamped on forwarded responses."""
        return self._memo(
            ("annotations",),
            lambda: {
                s.name: s.proxy_annotation
                for s in self.all()
                if s.proxy_annotation is not None
            },
        )  # type: ignore[return-value]


@dataclass(frozen=True)
class CompiledBlockPattern:
    """One compiled §5 regex attributed to one vendor's block flow."""

    vendor: str
    pattern: Pattern
    scope: str  # "headers" | "body" | "any"
    branded: bool


#: The process-wide registry.  Vendor modules self-register on import;
#: use :func:`default_registry` to get it with the built-ins loaded.
REGISTRY = ProductRegistry()

_BOOTSTRAPPED = False


def default_registry() -> ProductRegistry:
    """The global registry with the built-in products registered.

    Importing a vendor module registers its spec; this imports the five
    built-ins exactly once. Another product is one more module that
    registers its spec the same way (see :mod:`repro.products.fortiguard`).
    """
    global _BOOTSTRAPPED
    if not _BOOTSTRAPPED:
        _BOOTSTRAPPED = True
        import repro.products.bluecoat  # noqa: F401
        import repro.products.smartfilter  # noqa: F401
        import repro.products.netsweeper  # noqa: F401
        import repro.products.websense  # noqa: F401
        import repro.products.fortiguard  # noqa: F401
    return REGISTRY
