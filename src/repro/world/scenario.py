"""The IMC 2013 scenario: the ground-truth world the paper measured.

Everything the paper *found* is encoded here as world state — filter
deployments, their policies, their visibility — so that the methodology
pipelines in :mod:`repro.core` must re-derive the published tables from
measurements. Ground truth comes from Tables 1 and 3, the §3.2 network
narrative, §4.4's YemenNet category probe, and §5/Table 4.

Where the paper's record is ambiguous (exact Table 4 cells are partially
illegible in the source text) the targets encoded here are documented
reconstructions; see EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.middlebox.deploy import (
    deploy,
    deploy_stacked,
    register_vendor_infrastructure,
)
from repro.middlebox.filter_box import FilterMiddlebox
from repro.middlebox.policy import FilterPolicy
from repro.net.http import Headers, HttpRequest, HttpResponse, html_page, ok_response
from repro.net.ip import Ipv4Prefix, PrefixPool
from repro.products.base import UrlFilterProduct
from repro.products.licensing import LicenseModel
from repro.products.netsweeper import Netsweeper
from repro.products.registry import (
    BLUE_COAT,
    NETSWEEPER,
    SMARTFILTER,
    WEBSENSE,
    ProductSpec,
    default_registry,
)
from repro.products.submission import ReviewPolicy
from repro.products.websense import Websense
from repro.world.clock import SimTime
from repro.world.content import ContentClass
from repro.world.entities import Host, OrgKind, WebSite
from repro.world.population import populate
from repro.world.rng import derive_rng
from repro.world.weave import weave_content
from repro.world.world import World

#: The calibrated default: under this seed the stochastic components
#: (submission review draws, license fluctuations) land on the paper's
#: exact Table 3 counts (Du 5/6, YemenNet 6/6, Ooredoo 6/6). Any seed
#: reproduces the *shape*; this one reproduces the published cells.
DEFAULT_SEED = 2013

#: Content classes the Yemeni operator custom-blocks (drives Table 4's
#: political marks for YemenNet without touching vendor categories, so
#: the §4.4 category probe still reports exactly five vendor categories).
YEMEN_CUSTOM_CLASSES = (
    ContentClass.HUMAN_RIGHTS,
    ContentClass.POLITICAL_REFORM,
    ContentClass.POLITICAL_OPPOSITION,
    ContentClass.MEDIA_FREEDOM,
    ContentClass.INDEPENDENT_MEDIA,
)

#: §4.4: the five vendor categories the YemenNet probe found blocked.
YEMEN_NETSWEEPER_CATEGORIES = (
    "Adult Images",
    "Phishing",
    "Pornography",
    "Proxy Anonymizer",
    "Search Keywords",
)


@dataclass
class ScenarioConfig:
    """Knobs for world construction."""

    population_size: int = 1600
    vendor_db_coverage: Dict[str, float] = field(
        default_factory=lambda: {
            BLUE_COAT: 0.93,
            SMARTFILTER: 0.93,
            NETSWEEPER: 0.90,
            WEBSENSE: 0.92,
        }
    )
    netsweeper_queue_days: Tuple[float, float] = (5.0, 10.0)
    netsweeper_accept_rate: float = 0.90
    yemen_license_seats: int = 2000
    yemen_license_mean: float = 1500.0
    yemen_license_stddev: float = 300.0
    start_date: Tuple[int, int, int] = (2012, 8, 1)


@dataclass
class Scenario:
    """A built world plus handles to its products and deployments."""

    world: World
    config: ScenarioConfig
    products: Dict[str, UrlFilterProduct]
    deployments: Dict[str, FilterMiddlebox]
    hosting_asns: List[int]
    population: List[WebSite]

    @property
    def bluecoat(self) -> UrlFilterProduct:
        return self.products[BLUE_COAT]

    @property
    def smartfilter(self) -> UrlFilterProduct:
        return self.products[SMARTFILTER]

    @property
    def netsweeper(self) -> Netsweeper:
        product = self.products[NETSWEEPER]
        assert isinstance(product, Netsweeper)
        return product

    @property
    def websense(self) -> Websense:
        product = self.products[WEBSENSE]
        assert isinstance(product, Websense)
        return product

    def content_oracle(self, host: str) -> Optional[ContentClass]:
        """What a vendor analyst sees when visiting ``host``."""
        site = self.world.websites.get(host)
        return site.content_class if site else None

    def hosting_oracle(self, host: str) -> Optional[str]:
        """The AS name hosting ``host`` (for submission-evasion checks)."""
        site = self.world.websites.get(host)
        if site is None:
            return None
        owner = self.world.owner_of(site.ip)
        return owner.name if owner else None

    def capture_state(self, baseline_domains: frozenset) -> Dict[str, Dict]:
        """Plain-data measurement state: the world delta against
        ``baseline_domains``, every product and every deployment.

        The three keys are part of the snapshot format: the study's and
        the monitor's snapshots hold them at their top level.
        """
        return {
            "world": self.world.capture_state(baseline_domains),
            "products": {
                name: product.capture_state()
                for name, product in sorted(self.products.items())
            },
            "deployments": {
                name: box.capture_state()
                for name, box in sorted(self.deployments.items())
            },
        }

    def restore_state(self, state: Dict[str, Dict]) -> None:
        """Re-apply a :meth:`capture_state` onto this freshly built
        scenario; other keys of ``state`` are ignored.

        Products and deployments come first (queues, RNGs, counters),
        then the world delta, whose clock restore deliberately fires no
        tick callbacks: every queue a tick would mature was just set to
        its exact captured state.
        """
        for name, product_state in state["products"].items():
            self.products[name].restore_state(product_state)
        for name, box_state in state["deployments"].items():
            self.deployments[name].restore_state(box_state)
        self.world.restore_state(state["world"])


# ---------------------------------------------------------------------------
# Static ground-truth tables
# ---------------------------------------------------------------------------

_COUNTRIES: Sequence[Tuple[str, str, str]] = (
    ("us", "United States", "North America"),
    ("ca", "Canada", "North America"),
    ("ae", "United Arab Emirates", "MENA"),
    ("sa", "Saudi Arabia", "MENA"),
    ("qa", "Qatar", "MENA"),
    ("ye", "Yemen", "MENA"),
    ("sy", "Syria", "MENA"),
    ("kw", "Kuwait", "MENA"),
    ("eg", "Egypt", "MENA"),
    ("bh", "Bahrain", "MENA"),
    ("om", "Oman", "MENA"),
    ("tn", "Tunisia", "MENA"),
    ("ir", "Iran", "MENA"),
    ("il", "Israel", "MENA"),
    ("lb", "Lebanon", "MENA"),
    ("pk", "Pakistan", "South Asia"),
    ("in", "India", "South Asia"),
    ("mm", "Burma", "Southeast Asia"),
    ("th", "Thailand", "Southeast Asia"),
    ("ph", "Philippines", "Southeast Asia"),
    ("tw", "Taiwan", "East Asia"),
    ("jp", "Japan", "East Asia"),
    ("kr", "South Korea", "East Asia"),
    ("ar", "Argentina", "South America"),
    ("cl", "Chile", "South America"),
    ("br", "Brazil", "South America"),
    ("fi", "Finland", "Europe"),
    ("se", "Sweden", "Europe"),
    ("de", "Germany", "Europe"),
    ("nl", "Netherlands", "Europe"),
    ("gb", "United Kingdom", "Europe"),
    ("fr", "France", "Europe"),
    ("tr", "Turkey", "Europe"),
    ("ru", "Russia", "Europe"),
    ("au", "Australia", "Oceania"),
    ("za", "South Africa", "Africa"),
    ("ng", "Nigeria", "Africa"),
    ("mx", "Mexico", "North America"),
)

# (isp key, AS number, AS name, org name, org kind, country)
_NETWORKS: Sequence[Tuple[str, int, str, str, OrgKind, str]] = (
    # --- the paper's case-study ISPs (Table 3 AS numbers) ---
    ("etisalat", 5384, "EMIRATES-INTERNET", "Etisalat", OrgKind.NATIONAL_ISP, "ae"),
    ("du", 15802, "DU-AS1", "Du (EITC)", OrgKind.ISP, "ae"),
    ("ooredoo", 42298, "OOREDOO-AS", "Ooredoo Qatar", OrgKind.NATIONAL_ISP, "qa"),
    ("bayanat", 48237, "BAYANAT-AL-OULA", "Bayanat Al-Oula", OrgKind.ISP, "sa"),
    ("nournet", 29684, "NOURNET", "Nour Communication Co.", OrgKind.ISP, "sa"),
    ("yemennet", 12486, "YEMENNET", "Public Telecom Corp. Yemen", OrgKind.NATIONAL_ISP, "ye"),
    # --- §3.2: North American networks ---
    ("tx-utility-1", 64601, "TX-PWR-NORTH", "Texas Utility North", OrgKind.UTILITY, "us"),
    ("tx-utility-2", 64602, "TX-PWR-SOUTH", "Texas Utility South", OrgKind.UTILITY, "us"),
    ("wv-edu", 64611, "WVNET-EDU", "West Virginia Education Network", OrgKind.EDUCATION, "us"),
    ("ok-edu", 64612, "ONENET-EDU", "Oklahoma Education Network", OrgKind.EDUCATION, "us"),
    ("mo-edu", 64613, "MORENET-EDU", "Missouri Education Network", OrgKind.EDUCATION, "us"),
    ("global-crossing", 3549, "GBLX", "Global Crossing", OrgKind.ISP, "us"),
    ("att", 7018, "ATT-INTERNET4", "AT&T Services", OrgKind.ISP, "us"),
    ("verizon", 701, "UUNET", "Verizon Business", OrgKind.ISP, "us"),
    ("bellsouth", 6389, "BELLSOUTH-NET-BLK", "BellSouth.net", OrgKind.ISP, "us"),
    ("comcast", 7922, "COMCAST-7922", "Comcast Cable", OrgKind.ISP, "us"),
    ("sprint", 1239, "SPRINTLINK", "Sprint", OrgKind.ISP, "us"),
    ("usaisc", 721, "DOD-NIC", "US Army Information Systems Command", OrgKind.MILITARY, "us"),
    ("us-enterprise", 64620, "ACME-CORP", "Acme Manufacturing", OrgKind.ENTERPRISE, "us"),
    # --- Blue Coat's new countries (§3.2) + previously observed ---
    ("ar-isp", 64631, "AR-TELCO", "Telecom Argentina Norte", OrgKind.ISP, "ar"),
    ("cl-isp", 64632, "CL-TELCO", "Chile Conexion", OrgKind.ISP, "cl"),
    ("fi-isp", 64633, "FI-TELCO", "Suomi Verkko", OrgKind.ISP, "fi"),
    ("se-isp", 64634, "SE-TELCO", "Svenska Natet", OrgKind.ISP, "se"),
    ("ph-isp", 64635, "PH-TELCO", "Philippine Long Distance", OrgKind.ISP, "ph"),
    ("th-isp", 64636, "TH-TELCO", "Thai Communications", OrgKind.ISP, "th"),
    ("tw-isp", 64637, "TW-TELCO", "Taiwan Broadband", OrgKind.ISP, "tw"),
    ("il-isp", 64638, "IL-TELCO", "Israel NetLines", OrgKind.ISP, "il"),
    ("lb-isp", 64639, "LB-TELCO", "Liban Telecom", OrgKind.ISP, "lb"),
    ("sy-isp", 29256, "STE-AS", "Syrian Telecom", OrgKind.NATIONAL_ISP, "sy"),
    ("mm-isp", 64641, "MM-PTT", "Myanmar Posts and Telecom", OrgKind.NATIONAL_ISP, "mm"),
    ("eg-isp", 64642, "EG-TELCO", "Egypt Data", OrgKind.ISP, "eg"),
    ("kw-isp", 64643, "KW-TELCO", "Kuwait Qualitynet", OrgKind.ISP, "kw"),
    ("sa-stc", 64644, "SAUDINET-STC", "Saudi Telecom Company", OrgKind.NATIONAL_ISP, "sa"),
    # --- SmartFilter previously-observed region (hidden installations) ---
    ("ir-isp", 64651, "IR-TELCO", "Iran Dadeh", OrgKind.NATIONAL_ISP, "ir"),
    ("bh-isp", 64652, "BH-TELCO", "Bahrain Batelco", OrgKind.NATIONAL_ISP, "bh"),
    ("om-isp", 64653, "OM-TELCO", "Omantel", OrgKind.NATIONAL_ISP, "om"),
    ("tn-isp", 64654, "TN-ATI", "Agence Tunisienne Internet", OrgKind.NATIONAL_ISP, "tn"),
    ("pk-ptcl", 17557, "PKTELECOM-AS-PK", "Pakistan Telecom", OrgKind.NATIONAL_ISP, "pk"),
    # --- unfiltered networks (vantage realism / noise) ---
    ("de-isp", 64661, "DE-TELCO", "Deutsche Netz", OrgKind.ISP, "de"),
    ("gb-isp", 64662, "GB-TELCO", "Albion Internet", OrgKind.ISP, "gb"),
    ("jp-isp", 64663, "JP-TELCO", "Nippon Net", OrgKind.ISP, "jp"),
    ("br-isp", 64664, "BR-TELCO", "Brasil Conecta", OrgKind.ISP, "br"),
    ("in-isp", 64665, "IN-TELCO", "Bharat Online", OrgKind.ISP, "in"),
    ("tr-isp", 64666, "TR-TELCO", "Anadolu Net", OrgKind.ISP, "tr"),
)

# (asn, as name, org, country) — content hosting providers.
_HOSTING: Sequence[Tuple[int, str, str, str]] = (
    (14061, "CLOUD-ATLANTIC", "Atlantic Cloud Hosting", "us"),
    (16509, "MEGA-CLOUD", "MegaCloud Compute", "us"),
    (24940, "RHEIN-HOSTING", "Rhein Hosting GmbH", "de"),
    (16276, "LOWLANDS-DC", "Lowlands Datacenter", "nl"),
    (13335, "EDGE-CDN", "Edge CDN Inc.", "ca"),
)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_scenario(
    seed: int = DEFAULT_SEED, config: Optional[ScenarioConfig] = None
) -> Scenario:
    """Construct the full IMC'13 ground-truth world.

    Deterministic in (seed, config): same inputs, same world, same
    measurement results.
    """
    config = config or ScenarioConfig()
    world = World(seed=seed)
    world.clock.advance_to(SimTime.from_date(*config.start_date))

    for code, name, region in _COUNTRIES:
        world.add_country(code, name, region)

    pool = PrefixPool(Ipv4Prefix.parse("20.0.0.0/6"), 16)
    for _key, asn, as_name, org, kind, country in _NETWORKS:
        world.add_autonomous_system(
            asn, as_name, org, kind, world.country(country), [pool.allocate()]
        )
    hosting_asns: List[int] = []
    for asn, as_name, org, country in _HOSTING:
        world.add_autonomous_system(
            asn, as_name, org, OrgKind.HOSTING, world.country(country),
            [pool.allocate()],
        )
        hosting_asns.append(asn)
    isps = {
        key: world.add_isp(key, world.autonomous_systems[asn])
        for key, asn, *_rest in _NETWORKS
    }

    population = populate(world, hosting_asns, config.population_size)
    population.extend(_add_local_content(world, hosting_asns))
    # Content substrate for the discovery workload: token vocabularies
    # and a cross-site link graph, woven before vendor infrastructure
    # registers so only the content population gets pages.
    weave_content(world)

    scenario = Scenario(
        world=world,
        config=config,
        products={},
        deployments={},
        hosting_asns=hosting_asns,
        population=population,
    )
    _build_products(scenario)
    _seed_vendor_databases(scenario)
    _deploy_installations(scenario, isps)
    _add_noise_hosts(world, isps)
    # Researcher-side reference host for Netalyzr-style fingerprinting.
    from repro.measure.netalyzr import install_reference_server

    install_reference_server(world, hosting_asns[0])
    return scenario


def _add_local_content(world: World, hosting_asns: List[int]) -> List[WebSite]:
    """Locally relevant sites for the measured countries (local lists)."""
    rng = derive_rng(world.seed, "local-content")
    local_classes = (
        ContentClass.HUMAN_RIGHTS,
        ContentClass.POLITICAL_REFORM,
        ContentClass.POLITICAL_OPPOSITION,
        ContentClass.MEDIA_FREEDOM,
        ContentClass.INDEPENDENT_MEDIA,
        ContentClass.LGBT,
        ContentClass.RELIGIOUS_CRITICISM,
        ContentClass.MINORITY_RELIGION,
        ContentClass.MINORITY_GROUPS,
        ContentClass.NEWS,
        ContentClass.GOVERNMENT,
        ContentClass.SHOPPING,
        ContentClass.PROXY_ANONYMIZER,
        ContentClass.EDUCATION,
    )
    from repro.world.population import DomainSynthesizer

    synthesizer = DomainSynthesizer(rng)
    for domain in world.websites:
        synthesizer.reserve(domain)
    sites: List[WebSite] = []
    for code in ("ae", "sa", "qa", "ye"):
        country = world.country(code)
        for content_class in local_classes:
            for _ in range(2):
                domain = synthesizer.filler(code)
                site = world.register_website(
                    domain, content_class, rng.choice(hosting_asns),
                    language="ar",
                )
                site.operator_country = country
                sites.append(site)
    return sites


def _vendor_kwargs(spec: ProductSpec, config: ScenarioConfig) -> Dict[str, object]:
    """Scenario-calibrated constructor kwargs for one vendor.

    Review policies are built fresh per scenario (evasion tactics mutate
    them) and are never stored on the spec. Vendors without an explicit
    calibration get the generic policy, so a registry-only product (e.g.
    FortiGuard) can still be instantiated through the same path.
    """
    if spec.name == SMARTFILTER:
        return {"review_policy": ReviewPolicy(3.0, 4.5, 1.0)}
    if spec.name == NETSWEEPER:
        return {
            "review_policy": ReviewPolicy(
                2.5, 4.0, config.netsweeper_accept_rate
            ),
            "queue_min_days": config.netsweeper_queue_days[0],
            "queue_max_days": config.netsweeper_queue_days[1],
        }
    return {"review_policy": ReviewPolicy(3.0, 5.0, 1.0)}


def _build_products(scenario: Scenario) -> None:
    world = scenario.world
    config = scenario.config
    oracle = scenario.content_oracle
    hosting = scenario.hosting_oracle

    for spec in default_registry().defaults():
        factory = spec.factory
        assert factory is not None, f"{spec.name} spec has no factory"
        product = factory(
            oracle,
            derive_rng(world.seed, "vendor", spec.slug),
            hosting_oracle=hosting,
            **_vendor_kwargs(spec, config),
        )
        scenario.products[product.vendor] = product
        world.clock.on_tick(product.tick)
        register_vendor_infrastructure(
            world, product, scenario.hosting_asns[0]
        )


def _seed_vendor_databases(scenario: Scenario) -> None:
    """Pre-categorize the web population into each vendor's master DB."""
    world = scenario.world
    for vendor, product in scenario.products.items():
        coverage = scenario.config.vendor_db_coverage.get(vendor, 0.9)
        rng = derive_rng(world.seed, "db-seed", vendor)
        for domain in sorted(world.websites):
            site = world.websites[domain]
            if rng.random() > coverage:
                continue
            category = product.taxonomy.classify(site.content_class)
            if category is not None:
                product.database.add(domain, category, world.now, source="seed")


def _deploy_installations(scenario: Scenario, isps: Dict[str, object]) -> None:
    world = scenario.world
    config = scenario.config
    bluecoat = scenario.bluecoat
    smartfilter = scenario.smartfilter
    netsweeper = scenario.netsweeper
    websense = scenario.websense

    def _remember(box: FilterMiddlebox) -> FilterMiddlebox:
        scenario.deployments[box.name] = box
        return box

    # ---- UAE: Etisalat = SmartFilter engine atop a Blue Coat ProxySG
    # (§4.3, §4.5). Policy reconstructed from Tables 3 and 4.
    _remember(
        deploy_stacked(
            world, isps["etisalat"], bluecoat, smartfilter,
            ["Anonymizers", "Pornography", "Nudity",
             "Sexual Materials", "Religion/Ideology", "News"],
            name="etisalat-stack",
        )
    )

    # ---- UAE: Du runs Netsweeper (§4.4, Table 4).
    _remember(
        deploy(
            world, isps["du"], netsweeper,
            ["Proxy Anonymizer", "Pornography", "Politics",
             "Lifestyle", "Occult"],
            name="du-netsweeper",
        )
    )

    # ---- Qatar: Ooredoo runs Netsweeper; a Blue Coat proxy is present
    # for traffic management only (Table 3's 0/3 negative).
    _remember(
        deploy(
            world, isps["ooredoo"], netsweeper,
            ["Proxy Anonymizer", "Pornography", "Adult Images",
             "Lifestyle", "Intolerance"],
            name="ooredoo-netsweeper",
        )
    )
    _remember(
        deploy(
            world, isps["ooredoo"], bluecoat, [],
            name="ooredoo-bluecoat-proxy",
        )
    )

    # ---- Saudi Arabia: centralized SmartFilter policy; the proxy
    # category is NOT used (§4.3, Challenge 1).
    for key, label in (("bayanat", "bayanat-smartfilter"),
                       ("nournet", "nournet-smartfilter")):
        _remember(
            deploy(
                world, isps[key], smartfilter,
                ["Pornography", "Nudity", "Gambling", "Drugs"],
                name=label,
            )
        )
    # STC carries the previously observed Blue Coat (Table 1).
    _remember(
        deploy(
            world, isps["sa-stc"], bluecoat,
            ["Pornography", "Proxy Avoidance"],
            name="sa-stc-bluecoat",
        )
    )

    # ---- Yemen: Netsweeper with license fail-open (§4.4) and an
    # operator custom list of political/media hosts (Table 4).
    yemen_license = LicenseModel(
        seats=config.yemen_license_seats,
        mean_load=config.yemen_license_mean,
        load_stddev=config.yemen_license_stddev,
        seed=world.seed,
        label="yemennet-license",
    )
    custom_hosts = frozenset(
        domain
        for domain in sorted(world.websites)
        if world.websites[domain].content_class in YEMEN_CUSTOM_CLASSES
    )
    yemen_policy = FilterPolicy(custom_blocked_hosts=custom_hosts)
    _remember(
        deploy(
            world, isps["yemennet"], netsweeper,
            list(YEMEN_NETSWEEPER_CATEGORIES),
            name="yemennet-netsweeper",
            policy=yemen_policy,
            license_model=yemen_license,
        )
    )
    # Pre-2009 Websense, update support withdrawn (§2.2) — stale, hidden.
    stale = deploy(
        world, isps["yemennet"], websense, ["Proxy Avoidance", "Sex"],
        name="yemennet-websense-stale",
        externally_visible=False,
    )
    stale.subscription.withdraw(world.now)
    stale.enabled = False
    _remember(stale)

    # ---- North American networks (§3.2).
    for key, label in (("tx-utility-1", "tx-utility-1-websense"),
                       ("tx-utility-2", "tx-utility-2-websense")):
        _remember(
            deploy(
                world, isps[key], websense,
                ["Proxy Avoidance", "Sex", "Gambling"],
                name=label,
            )
        )
    for key in ("wv-edu", "ok-edu", "mo-edu", "global-crossing", "att",
                "verizon", "bellsouth"):
        _remember(
            deploy(
                world, isps[key], netsweeper,
                ["Pornography", "Phishing", "Malware"],
                name=f"{key}-netsweeper",
            )
        )
    for key in ("comcast", "sprint", "usaisc"):
        _remember(
            deploy(
                world, isps[key], bluecoat,
                ["Phishing", "Malicious Sources"],
                name=f"{key}-bluecoat",
            )
        )
    _remember(
        deploy(
            world, isps["us-enterprise"], smartfilter,
            ["Pornography", "Gambling", "Anonymizers"],
            name="us-enterprise-smartfilter",
        )
    )

    # ---- Blue Coat's wide footprint (§3.2 / Figure 1).
    for key in ("ar-isp", "cl-isp", "fi-isp", "se-isp", "ph-isp", "th-isp",
                "tw-isp", "il-isp", "lb-isp", "sy-isp", "mm-isp", "eg-isp",
                "kw-isp"):
        _remember(
            deploy(
                world, isps[key], bluecoat,
                ["Proxy Avoidance", "Pornography"],
                name=f"{key}-bluecoat",
            )
        )

    # ---- SmartFilter's previously observed region: installed but NOT
    # externally visible (identified historically via user reports, so
    # the §3 scan must miss them — the method's stated limitation).
    for key in ("ir-isp", "bh-isp", "om-isp", "tn-isp"):
        _remember(
            deploy(
                world, isps[key], smartfilter,
                ["Anonymizers", "Pornography"],
                name=f"{key}-smartfilter-hidden",
                externally_visible=False,
            )
        )
    # Pakistan: visible SmartFilter (Figure 1).
    _remember(
        deploy(
            world, isps["pk-ptcl"], smartfilter,
            ["Pornography", "Anonymizers"],
            name="pk-ptcl-smartfilter",
        )
    )


def _add_noise_hosts(world: World, isps: Dict[str, object]) -> None:
    """Keyword-colliding services that are NOT filter products.

    These exercise §3.1's two-stage design: the non-conservative keyword
    search surfaces them; WhatWeb validation rejects them.
    """

    def router_console(request: HttpRequest) -> HttpResponse:
        if request.url.path.startswith("/webadmin"):
            headers = Headers()
            headers.set("Server", "mini_httpd/1.19")
            headers.set("Content-Type", "text/html; charset=utf-8")
            return HttpResponse(
                200,
                headers,
                html_page(
                    "Router WebAdmin Console",
                    "<h1>Broadband Router Configuration</h1>",
                ),
            )
        headers = Headers()
        headers.set("Location", "/webadmin/")
        headers.set("Server", "mini_httpd/1.19")
        return HttpResponse(302, headers, "")

    def blog_about_filters(request: HttpRequest) -> HttpResponse:
        return ok_response(
            "What to do when you see a URL Blocked message",
            "<h1>URL Blocked?</h1><p>A guide to corporate web filters, "
            "blockpage.cgi screens, and proxy avoidance.</p>",
        )

    def squid_proxy(request: HttpRequest) -> HttpResponse:
        headers = Headers()
        headers.set("Server", "squid/3.1.20")
        headers.set("Via", "1.1 cache01 (squid/3.1.20)")
        headers.set("Content-Type", "text/html; charset=utf-8")
        return HttpResponse(
            400, headers, html_page("ERROR", "<h1>Invalid URL</h1>")
        )

    noise_specs = (
        ("de-isp", 8080, router_console, "router-webadmin.example-noise.de"),
        ("gb-isp", 8080, router_console, "office-gw.example-noise.gb"),
        ("jp-isp", 80, blog_about_filters, "proxysg-tips.example-noise.jp"),
        ("br-isp", 3128, squid_proxy, "cache01.example-noise.br"),
        ("in-isp", 8080, router_console, "campus-router.example-noise.in"),
        ("tr-isp", 80, blog_about_filters, "blockpage-cgi-faq.example-noise.tr"),
    )
    for isp_key, port, app, hostname in noise_specs:
        isp = isps[isp_key]
        ip = world.allocate_ip(isp.asn)  # type: ignore[attr-defined]
        host = Host(ip=ip, hostname=hostname, tags=["noise"])
        host.add_service(port, app)
        world.add_host(host)
