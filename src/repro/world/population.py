"""Synthetic website population.

Builds the background web the study operates against: thousands of sites
spread over hosting ASes, each with a ground-truth content class. Vendor
databases pre-categorize a (vendor-specific) fraction of the population,
mirroring how real products ship large pre-categorized URL databases
(§2.1).

Two population models live here:

- :func:`populate` — the original materialized model: every site is a
  full :class:`~repro.world.entities.WebSite` registered in world DNS.
  Right for the paper-scale scenario (~2k sites), too heavy for
  internet-scale scans.
- :class:`ShardedPopulation` — a lazy, sharded host population for the
  streaming scan engine (:mod:`repro.scan.stream`). Every host is a
  pure function of ``(seed, global host index)`` — *not* of the shard
  count — so shard *k* built in isolation is exactly the slice
  ``[shard_bounds(k))`` of a full build, a full build equals the
  concatenation of per-shard builds, and the committed scan epoch is
  identical at any shard count. Nothing is materialized until asked
  for, so peak memory is a function of batch size, not host count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.net.http import ok_response
from repro.world.content import ContentClass
from repro.world.rng import derive_rng
from repro.world.words import SYLLABLES, WORDS_A, WORDS_B
from repro.world.world import World
from repro.world.entities import WebSite

# Relative frequency of content classes in the synthetic web. Sensitive
# classes are rarer than everyday content, as on the real web.
DEFAULT_CLASS_MIX: Dict[ContentClass, float] = {
    ContentClass.NEWS: 8.0,
    ContentClass.SHOPPING: 8.0,
    ContentClass.TECHNOLOGY: 7.0,
    ContentClass.ENTERTAINMENT: 7.0,
    ContentClass.SPORTS: 5.0,
    ContentClass.EDUCATION: 5.0,
    ContentClass.HEALTH: 4.0,
    ContentClass.BENIGN: 10.0,
    ContentClass.SOCIAL_MEDIA: 3.0,
    ContentClass.GOVERNMENT: 2.0,
    ContentClass.RELIGION_MAINSTREAM: 2.0,
    ContentClass.SEARCH_ENGINE: 1.0,
    ContentClass.EMAIL_PROVIDER: 1.0,
    ContentClass.HOSTING_SERVICE: 1.5,
    ContentClass.TRANSLATION: 0.5,
    ContentClass.PROXY_ANONYMIZER: 2.0,
    ContentClass.VPN_TOOLS: 1.0,
    ContentClass.PORNOGRAPHY: 4.0,
    ContentClass.ADULT_IMAGES: 1.5,
    ContentClass.DATING: 1.5,
    ContentClass.LGBT: 1.0,
    ContentClass.GAMBLING: 2.0,
    ContentClass.ALCOHOL_DRUGS: 1.0,
    ContentClass.POLITICAL_OPPOSITION: 1.0,
    ContentClass.POLITICAL_REFORM: 1.0,
    ContentClass.HUMAN_RIGHTS: 1.0,
    ContentClass.MEDIA_FREEDOM: 0.7,
    ContentClass.INDEPENDENT_MEDIA: 1.2,
    ContentClass.RELIGIOUS_CRITICISM: 0.6,
    ContentClass.MINORITY_RELIGION: 0.7,
    ContentClass.MINORITY_GROUPS: 0.7,
    ContentClass.WOMENS_RIGHTS: 0.6,
    ContentClass.MILITANT: 0.4,
    ContentClass.PHISHING: 0.8,
    ContentClass.MALWARE: 0.6,
    ContentClass.WEAPONS: 0.4,
}

_TLD_CHOICES = ["com", "net", "org", "info"]

#: Share of the synthetic web registered under a ccTLD.
LOCAL_TLD_FRACTION = 0.15


class DomainSynthesizer:
    """Generates unique, plausible domain names."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set = set()

    def two_word(self, tld: str = "info") -> str:
        """A "two random non-profane words" domain as used in §4.3."""
        for _attempt in range(10_000):
            name = self._rng.choice(WORDS_A) + self._rng.choice(WORDS_B)
            domain = f"{name}.{tld}"
            if domain not in self._used:
                self._used.add(domain)
                return domain
        raise RuntimeError("two-word domain space exhausted")

    def filler(self, tld: str) -> str:
        """A syllable-soup domain for the background population."""
        for _attempt in range(10_000):
            syllables = self._rng.randint(2, 4)
            name = "".join(self._rng.choice(SYLLABLES) for _ in range(syllables))
            domain = f"{name}.{tld}"
            if domain not in self._used:
                self._used.add(domain)
                return domain
        raise RuntimeError("filler domain space exhausted")

    def reserve(self, domain: str) -> None:
        """Mark an externally chosen domain as used."""
        self._used.add(domain)


def _page_body(content_class: ContentClass, domain: str) -> str:
    descriptions = {
        ContentClass.PROXY_ANONYMIZER: (
            "Browse the web anonymously. Enter a URL below to surf through "
            "our free web proxy and bypass filters."
        ),
        ContentClass.PORNOGRAPHY: "Explicit adult content. 18+ only.",
        ContentClass.ADULT_IMAGES: "Adult image gallery. 18+ only.",
        ContentClass.HUMAN_RIGHTS: (
            "Documenting human rights violations and advocating for "
            "freedom of expression."
        ),
        ContentClass.INDEPENDENT_MEDIA: "Independent news and analysis.",
        ContentClass.LGBT: "Community resources and support.",
    }
    text = descriptions.get(
        content_class, f"Welcome to {domain} ({content_class.value})."
    )
    return f"<h1>{domain}</h1><p>{text}</p>"


def populate(
    world: World, hosting_asns: Sequence[int], site_count: int
) -> List[WebSite]:
    """Fill the world with ``site_count`` synthetic websites.

    Content classes are drawn from :data:`DEFAULT_CLASS_MIX`. Sites are
    spread round-robin-with-jitter across ``hosting_asns`` and
    registered in world DNS. Returns the created sites in creation order.
    """
    if not hosting_asns:
        raise ValueError("need at least one hosting AS")
    rng = derive_rng(world.seed, "population")
    synthesizer = DomainSynthesizer(rng)
    for domain in world.websites:
        synthesizer.reserve(domain)

    classes = list(DEFAULT_CLASS_MIX)
    weights = [DEFAULT_CLASS_MIX[c] for c in classes]
    cctlds = sorted(world.countries)
    sites: List[WebSite] = []
    for _index in range(site_count):
        content_class = rng.choices(classes, weights=weights, k=1)[0]
        if cctlds and rng.random() < LOCAL_TLD_FRACTION:
            tld = rng.choice(cctlds)
        else:
            tld = rng.choice(_TLD_CHOICES)
        domain = synthesizer.filler(tld)
        asn = rng.choice(list(hosting_asns))
        site = world.register_website(domain, content_class, asn)
        site.add_page(
            "/", ok_response(domain, _page_body(content_class, domain))
        )
        sites.append(site)
    return sites


# --------------------------------------------------------------------------
# Sharded lazy population (internet-scale scans)
# --------------------------------------------------------------------------

#: First address of the sharded host space (100.0.0.0/8): disjoint from
#: the scenario pool (20.0.0.0/6) and the builder pool (24.0.0.0/6), so
#: synthetic scan targets can never collide with world hosts.
SHARDED_ADDRESS_BASE = 100 << 24

#: One /8 of room — the hard ceiling on ``host_count``.
SHARDED_ADDRESS_CAPACITY = 1 << 24

#: Private-use AS number range the synthetic ASN universe draws from.
SHARDED_ASN_BASE = 64512

#: Marker every genuine product console banner carries; the validation
#: stage requires it, which is what rejects keyword-colliding decoys.
CONSOLE_MARKER = "deployment console ready"

#: Server strings for background (non-product) hosts. None may contain
#: a registry keyword, or the false-positive rate stops being the
#: decoys' job.
_BACKGROUND_SERVERS = (
    "nginx/1.4.1",
    "Apache/2.2.22 (Unix)",
    "Microsoft-IIS/6.0",
    "lighttpd/1.4.28",
    "squid/3.1.10",
)

#: ccTLD spread for scanner-side geolocation tags, weighted toward the
#: paper's study region by listing its codes first (selection is
#: uniform; the tuple just fixes the universe).
_DEFAULT_SCAN_COUNTRIES = (
    "ae", "ye", "qa", "kw", "sa", "bh", "om", "eg", "tn", "sy",
    "in", "pk", "id", "tr", "ma", "us", "gb", "de", "ca", "fr",
)

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a cheap, platform-stable 64-bit mixer.

    Host generation needs a few uniform draws per host at million-host
    scale; SHA-256 per host would dominate the scan's CPU budget, while
    this stays in small-int arithmetic. Determinism across Python
    versions holds because only integer ops are involved.
    """
    value &= _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def _draw(seed: int, index: int, salt: int) -> int:
    """One 64-bit draw addressed by (seed, host index, purpose salt)."""
    return _mix64(
        seed * 0x9E3779B97F4A7C15
        + index * 0xD1B54A32D192ED03
        + salt * 0x8CB92BA72F3D8DD7
        + 0x2545F4914F6CDD1D
    )


@dataclass(frozen=True)
class ShardedPopulationConfig:
    """Knobs for the lazy sharded host population.

    ``shard_count`` controls build partitioning only — it is excluded
    from :meth:`identity` because host content must be (and is)
    invariant to it. ``install_rate``/``decoy_rate`` are per-host
    probabilities: installs answer with a genuine product console
    banner, decoys carry a product keyword without the console marker
    (the false positives §3.2 validates away).
    """

    host_count: int = 100_000
    shard_count: int = 16
    install_rate: float = 0.012
    decoy_rate: float = 0.02
    country_codes: Tuple[str, ...] = _DEFAULT_SCAN_COUNTRIES
    asn_count: int = 512
    products: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.host_count < 0:
            raise ValueError("host_count must be >= 0")
        if self.host_count > SHARDED_ADDRESS_CAPACITY:
            raise ValueError(
                f"host_count exceeds the /8 host space "
                f"({SHARDED_ADDRESS_CAPACITY})"
            )
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        for name in ("install_rate", "decoy_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.install_rate + self.decoy_rate > 1.0:
            raise ValueError("install_rate + decoy_rate must be <= 1")
        if not self.country_codes:
            raise ValueError("country_codes must not be empty")
        if self.asn_count < 1:
            raise ValueError("asn_count must be >= 1")

    def identity(self) -> Dict[str, object]:
        """The content-determining knobs (deliberately not shard_count)."""
        return {
            "host_count": self.host_count,
            "install_rate": self.install_rate,
            "decoy_rate": self.decoy_rate,
            "country_codes": list(self.country_codes),
            "asn_count": self.asn_count,
            "products": (
                None if self.products is None else list(self.products)
            ),
        }

    @classmethod
    def from_identity(
        cls,
        identity: Mapping[str, object],
        *,
        shard_count: int = 16,
    ) -> "ShardedPopulationConfig":
        """Rebuild a config from a persisted :meth:`identity` document.

        Coordination layers durably record ``identity()`` (not the
        config object) because identity is exactly the set of knobs
        host content depends on; ``shard_count`` is execution policy
        and is supplied separately. Round-trips exactly::

            cls.from_identity(cfg.identity(), shard_count=cfg.shard_count)
            == cfg

        Raises ``ValueError`` on unknown or missing keys so a worker
        attaching to a coordinator written by an incompatible version
        fails loudly instead of scanning a subtly different world.
        """
        expected = {
            "host_count",
            "install_rate",
            "decoy_rate",
            "country_codes",
            "asn_count",
            "products",
        }
        unknown = sorted(set(identity) - expected)
        if unknown:
            raise ValueError(f"unknown identity keys: {unknown}")
        missing = sorted(expected - set(identity))
        if missing:
            raise ValueError(f"missing identity keys: {missing}")
        products = identity["products"]
        return cls(
            host_count=int(identity["host_count"]),  # type: ignore[call-overload]
            shard_count=shard_count,
            install_rate=float(identity["install_rate"]),  # type: ignore[arg-type]
            decoy_rate=float(identity["decoy_rate"]),  # type: ignore[arg-type]
            country_codes=tuple(identity["country_codes"]),  # type: ignore[arg-type]
            asn_count=int(identity["asn_count"]),  # type: ignore[call-overload]
            products=None if products is None else tuple(products),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class _ProductProfile:
    """Registry-derived banner ingredients for one product (picklable)."""

    name: str
    keyword: str  # primary Shodan keyword, quotes stripped
    port: int
    all_keywords: Tuple[str, ...]


def _product_profiles(
    products: Optional[Tuple[str, ...]],
) -> Tuple[_ProductProfile, ...]:
    """Build per-product banner profiles from the registry.

    Imported lazily: ``repro.world`` loads this module at package init,
    and a top-level registry import would close the world <-> products
    import cycle.
    """
    from repro.products.registry import default_registry

    profiles = []
    for spec in default_registry().resolve(
        None if products is None else list(products)
    ):
        keywords = tuple(kw.strip('"') for kw in spec.shodan_keywords)
        port = spec.probe_endpoints[0][0] if spec.probe_endpoints else 8080
        profiles.append(
            _ProductProfile(
                name=spec.name,
                keyword=keywords[0],
                port=port,
                all_keywords=keywords,
            )
        )
    return tuple(profiles)


class ShardedPopulation:
    """A lazy host population generated shard-by-shard from ``(seed, k)``.

    Every host attribute is a pure function of ``(seed, global index)``
    via counter-based hashing — no sequential RNG stream — so any index
    range can be generated independently, in any order, on any process.
    Shards are contiguous, balanced index ranges; ``raw_at`` over
    ``shard_bounds(k)`` in isolation equals the same slice of a full
    build by construction.
    """

    def __init__(
        self, seed: int, config: Optional[ShardedPopulationConfig] = None
    ) -> None:
        self.seed = seed
        self.config = config or ShardedPopulationConfig()
        self._profiles = _product_profiles(self.config.products)

    def __len__(self) -> int:
        return self.config.host_count

    @property
    def shard_count(self) -> int:
        return self.config.shard_count

    def identity(self) -> Dict[str, object]:
        """What scan output is a function of: seed + content knobs."""
        return {"seed": self.seed, "population": self.config.identity()}

    # ---------------------------------------------------------- sharding
    def shard_bounds(self, shard: int) -> Tuple[int, int]:
        """The contiguous ``[start, stop)`` index range of one shard."""
        return shard_bounds_for(
            self.config.host_count, self.config.shard_count, shard
        )

    # --------------------------------------------------------- generation
    def raw_at(
        self, index: int
    ) -> Tuple[int, int, int, str, int, str, Optional[str], Optional[str]]:
        """Host ``index`` as a plain tuple — the million-host hot path.

        Returns ``(index, ip, port, country, asn, banner, product,
        keyword)``: ``ip`` is the raw IPv4 value, and ``product`` and
        ``keyword`` are set only on a genuine installation.
        """
        config = self.config
        if not 0 <= index < config.host_count:
            raise IndexError(f"host index {index} out of range")
        seed = self.seed
        role_word = _draw(seed, index, 1)
        geo_word = _draw(seed, index, 2)
        pick_word = _draw(seed, index, 3)
        country = config.country_codes[geo_word % len(config.country_codes)]
        asn = SHARDED_ASN_BASE + (geo_word >> 16) % config.asn_count
        ip = SHARDED_ADDRESS_BASE + index
        fraction = role_word / 18446744073709551616.0  # / 2**64
        profiles = self._profiles
        if profiles and fraction < config.install_rate:
            profile = profiles[pick_word % len(profiles)]
            banner = (
                f"HTTP/1.1 200 OK\nServer: {profile.keyword}\n"
                f"Content-Type: text/html\n"
                f"{profile.keyword} {CONSOLE_MARKER}"
            )
            return (
                index, ip, profile.port, country, asn, banner,
                profile.name, profile.keyword,
            )
        if profiles and fraction < config.install_rate + config.decoy_rate:
            profile = profiles[pick_word % len(profiles)]
            keywords = profile.all_keywords
            keyword = keywords[(pick_word >> 32) % len(keywords)]
            server = _BACKGROUND_SERVERS[
                (pick_word >> 48) % len(_BACKGROUND_SERVERS)
            ]
            banner = (
                f"HTTP/1.1 200 OK\nServer: {server}\n"
                f"Content-Type: text/html\n"
                f"surplus {keyword} unit price list"
            )
            return (index, ip, 80, country, asn, banner, None, None)
        server = _BACKGROUND_SERVERS[pick_word % len(_BACKGROUND_SERVERS)]
        banner = (
            f"HTTP/1.1 200 OK\nServer: {server}\n"
            f"Content-Type: text/html\nwelcome index page"
        )
        return (index, ip, 80, country, asn, banner, None, None)


def shard_bounds_for(
    host_count: int, shard_count: int, shard: int
) -> Tuple[int, int]:
    """Balanced contiguous bounds, reusable without a population object."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard < shard_count:
        raise IndexError(f"shard {shard} out of range [0, {shard_count})")
    base, extra = divmod(host_count, shard_count)
    start = shard * base + min(shard, extra)
    stop = start + base + (1 if shard < extra else 0)
    return start, stop
