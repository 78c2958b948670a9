"""Fluent builder for custom worlds.

``build_scenario()`` gives you the paper's world; this builder is for
everyone else — construct your own countries, ISPs, product deployments
and populations with a few chained calls, and get back a
:class:`CustomScenario` exposing the same handles the IMC'13 scenario
does, so every pipeline in :mod:`repro.core` runs unchanged against it.

Example::

    scenario = (
        WorldBuilder(seed=7)
        .country("xx", "Examplestan", region="Test")
        .country("ca", "Canada", region="North America")
        .hosting_as(65100, "HOSTCO", "Host Co", "ca")
        .isp("examplenet", 65000, "EXAMPLENET", "Examplestan Telecom", "xx",
             national=True)
        .population(300)
        .product("Netsweeper")
        .deploy("Netsweeper", "examplenet",
                blocked=["Proxy Anonymizer", "Pornography"])
        .build()
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.middlebox.deploy import deploy as _deploy
from repro.middlebox.deploy import register_vendor_infrastructure
from repro.middlebox.filter_box import FilterMiddlebox
from repro.middlebox.policy import FilterPolicy
from repro.net.ip import Ipv4Prefix, PrefixPool
from repro.products.base import UrlFilterProduct
from repro.products.licensing import LicenseModel
from repro.products.registry import default_registry
from repro.products.submission import ReviewPolicy
from repro.world.content import ContentClass
from repro.world.entities import OrgKind
from repro.world.population import populate
from repro.world.rng import derive_rng
from repro.world.world import World


@dataclass
class CustomScenario:
    """A built custom world with the handles the pipelines expect."""

    world: World
    products: Dict[str, UrlFilterProduct]
    deployments: Dict[str, FilterMiddlebox]
    hosting_asns: List[int]

    def content_oracle(self, host: str) -> Optional[ContentClass]:
        site = self.world.websites.get(host)
        return site.content_class if site else None

    def hosting_oracle(self, host: str) -> Optional[str]:
        site = self.world.websites.get(host)
        if site is None:
            return None
        owner = self.world.owner_of(site.ip)
        return owner.name if owner else None


class WorldBuilder:
    """Chainable world construction; call :meth:`build` once at the end."""

    def __init__(self, seed: int = 0) -> None:
        self._world = World(seed=seed)
        # Each AS gets a /16 from 24.0.0.0/6, disjoint from the scenario
        # pool and the sharded scan space.
        self._pool = PrefixPool(Ipv4Prefix.parse("24.0.0.0/6"), 16)
        self._hosting_asns: List[int] = []
        self._population_size = 0
        self._seed_coverage: Dict[str, float] = {}
        self._product_specs: List[Tuple[str, ReviewPolicy]] = []
        self._deploy_specs: List[dict] = []
        self._built = False

    # ---------------------------------------------------------- topology
    def country(self, code: str, name: str, region: str = "") -> "WorldBuilder":
        self._world.add_country(code, name, region)
        return self

    def hosting_as(
        self, asn: int, as_name: str, org_name: str, country_code: str
    ) -> "WorldBuilder":
        self._world.add_autonomous_system(
            asn, as_name, org_name, OrgKind.HOSTING,
            self._world.country(country_code), [self._pool.allocate()],
        )
        self._hosting_asns.append(asn)
        return self

    def isp(
        self,
        name: str,
        asn: int,
        as_name: str,
        org_name: str,
        country_code: str,
        *,
        national: bool = False,
        kind: Optional[OrgKind] = None,
    ) -> "WorldBuilder":
        org_kind = kind or (OrgKind.NATIONAL_ISP if national else OrgKind.ISP)
        autonomous_system = self._world.add_autonomous_system(
            asn, as_name, org_name, org_kind,
            self._world.country(country_code), [self._pool.allocate()],
        )
        self._world.add_isp(name, autonomous_system)
        return self

    # ------------------------------------------------------------ content
    def population(self, site_count: int) -> "WorldBuilder":
        """Request a synthetic web of ``site_count`` sites."""
        self._population_size = site_count
        return self

    def website(
        self, domain: str, content_class: ContentClass, hosting_asn: Optional[int] = None
    ) -> "WorldBuilder":
        if hosting_asn is None:
            if not self._hosting_asns:
                raise ValueError("declare a hosting AS before adding websites")
            hosting_asn = self._hosting_asns[0]
        self._world.register_website(domain, content_class, hosting_asn)
        return self

    # ----------------------------------------------------------- products
    def product(
        self,
        vendor: str,
        *,
        review_policy: Optional[ReviewPolicy] = None,
        db_coverage: float = 0.9,
    ) -> "WorldBuilder":
        registry = default_registry()
        if vendor not in registry:
            raise KeyError(
                f"unknown vendor {vendor!r}; choose from "
                f"{sorted(registry.names())}"
            )
        self._product_specs.append(
            (vendor, review_policy or ReviewPolicy())
        )
        self._seed_coverage[vendor] = db_coverage
        return self

    def deploy(
        self,
        vendor: str,
        isp_name: str,
        *,
        blocked: Sequence[str] = (),
        engine_vendor: Optional[str] = None,
        visible: bool = True,
        policy: Optional[FilterPolicy] = None,
        license_model: Optional[LicenseModel] = None,
        name: Optional[str] = None,
    ) -> "WorldBuilder":
        self._deploy_specs.append(
            dict(
                vendor=vendor,
                isp_name=isp_name,
                blocked=list(blocked),
                engine_vendor=engine_vendor,
                visible=visible,
                policy=policy,
                license_model=license_model,
                name=name,
            )
        )
        return self

    # -------------------------------------------------------------- build
    def build(self) -> CustomScenario:
        if self._built:
            raise RuntimeError("build() may only be called once")
        self._built = True
        world = self._world
        if not self._hosting_asns and (
            self._population_size or self._deploy_specs
        ):
            raise ValueError("declare at least one hosting AS")

        if self._population_size:
            populate(world, self._hosting_asns, self._population_size)

        scenario = CustomScenario(
            world=world,
            products={},
            deployments={},
            hosting_asns=list(self._hosting_asns),
        )

        registry = default_registry()
        for vendor, review_policy in self._product_specs:
            factory = registry.get(vendor).factory
            assert factory is not None, f"{vendor} spec has no factory"
            product = factory(
                scenario.content_oracle,
                derive_rng(world.seed, "custom-vendor", vendor),
                review_policy=review_policy,
                hosting_oracle=scenario.hosting_oracle,
            )
            scenario.products[vendor] = product
            world.clock.on_tick(product.tick)
            register_vendor_infrastructure(
                world, product, self._hosting_asns[0]
            )
            coverage = self._seed_coverage.get(vendor, 0.9)
            rng = derive_rng(world.seed, "custom-db-seed", vendor)
            for domain in sorted(world.websites):
                site = world.websites[domain]
                if rng.random() > coverage:
                    continue
                category = product.taxonomy.classify(site.content_class)
                if category is not None:
                    product.database.add(domain, category, world.now)

        for spec in self._deploy_specs:
            vendor = spec["vendor"]
            if vendor not in scenario.products:
                raise KeyError(
                    f"deploy({vendor!r}): declare the product first"
                )
            engine = None
            if spec["engine_vendor"] is not None:
                engine = scenario.products[spec["engine_vendor"]]
            box = _deploy(
                world,
                world.isps[spec["isp_name"]],
                scenario.products[vendor],
                spec["blocked"],
                engine=engine,
                policy=spec["policy"],
                license_model=spec["license_model"],
                externally_visible=spec["visible"],
                name=spec["name"],
            )
            scenario.deployments[box.name] = box

        from repro.measure.netalyzr import install_reference_server

        if self._hosting_asns:
            install_reference_server(world, self._hosting_asns[0])
        return scenario
