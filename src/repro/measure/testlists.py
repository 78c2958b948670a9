"""Global and local URL test lists (§5).

"Two lists of URLs were tested in each country; a 'global list' of
internationally relevant content which is constant for all countries,
and a 'local list' of locally relevant content which is designed for
each country by regional experts ... Each of the URLs on these lists was
assigned to one of 40 content categories (e.g. 'human rights' or
'gambling') under four general themes: political, social, Internet tools
and conflict/security content."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.net.url import GENERIC_TLDS, Url
from repro.world.content import ContentClass
from repro.world.rng import derive_rng
from repro.world.world import World


class Theme(enum.Enum):
    """The four general themes of the ONI test lists."""

    POLITICAL = "political"
    SOCIAL = "social"
    INTERNET_TOOLS = "internet_tools"
    CONFLICT_SECURITY = "conflict_security"


class Table4Column(enum.Enum):
    """The six content columns of Table 4."""

    MEDIA_FREEDOM = "Media Freedom"
    HUMAN_RIGHTS = "Human Rights"
    POLITICAL_REFORM = "Political Reform"
    LGBT = "LGBT"
    RELIGIOUS_CRITICISM = "Religious Criticism"
    MINORITY_GROUPS = "Minority Groups and Religions"


@dataclass(frozen=True)
class ListCategory:
    """One of the 40 test-list content categories."""

    name: str
    theme: Theme
    content_classes: FrozenSet[ContentClass]
    table4_column: Optional[Table4Column] = None


def _cat(
    name: str,
    theme: Theme,
    classes: Sequence[ContentClass],
    column: Optional[Table4Column] = None,
) -> ListCategory:
    return ListCategory(name, theme, frozenset(classes), column)


#: The 40 content categories under four themes.
LIST_CATEGORIES: Sequence[ListCategory] = (
    # Political (11)
    _cat("Human Rights", Theme.POLITICAL, [ContentClass.HUMAN_RIGHTS],
         Table4Column.HUMAN_RIGHTS),
    _cat("Political Reform", Theme.POLITICAL, [ContentClass.POLITICAL_REFORM],
         Table4Column.POLITICAL_REFORM),
    _cat("Opposition Parties", Theme.POLITICAL,
         [ContentClass.POLITICAL_OPPOSITION], Table4Column.POLITICAL_REFORM),
    _cat("Media Freedom", Theme.POLITICAL, [ContentClass.MEDIA_FREEDOM],
         Table4Column.MEDIA_FREEDOM),
    _cat("Independent Media", Theme.POLITICAL,
         [ContentClass.INDEPENDENT_MEDIA], Table4Column.MEDIA_FREEDOM),
    _cat("Women's Rights", Theme.POLITICAL, [ContentClass.WOMENS_RIGHTS],
         Table4Column.HUMAN_RIGHTS),
    _cat("Minority Groups", Theme.POLITICAL, [ContentClass.MINORITY_GROUPS],
         Table4Column.MINORITY_GROUPS),
    _cat("Religious Criticism", Theme.POLITICAL,
         [ContentClass.RELIGIOUS_CRITICISM], Table4Column.RELIGIOUS_CRITICISM),
    _cat("Minority Faiths", Theme.POLITICAL, [ContentClass.MINORITY_RELIGION],
         Table4Column.MINORITY_GROUPS),
    _cat("Foreign Relations", Theme.POLITICAL, [ContentClass.GOVERNMENT]),
    _cat("Political Satire", Theme.POLITICAL,
         [ContentClass.POLITICAL_OPPOSITION], Table4Column.POLITICAL_REFORM),
    # Social (14)
    _cat("Pornography", Theme.SOCIAL, [ContentClass.PORNOGRAPHY]),
    _cat("Nudity", Theme.SOCIAL, [ContentClass.ADULT_IMAGES]),
    _cat("LGBT", Theme.SOCIAL, [ContentClass.LGBT], Table4Column.LGBT),
    _cat("Dating", Theme.SOCIAL, [ContentClass.DATING]),
    _cat("Gambling", Theme.SOCIAL, [ContentClass.GAMBLING]),
    _cat("Alcohol and Drugs", Theme.SOCIAL, [ContentClass.ALCOHOL_DRUGS]),
    _cat("Health", Theme.SOCIAL, [ContentClass.HEALTH]),
    _cat("Entertainment", Theme.SOCIAL, [ContentClass.ENTERTAINMENT]),
    _cat("Music and Culture", Theme.SOCIAL, [ContentClass.ENTERTAINMENT]),
    _cat("Sports", Theme.SOCIAL, [ContentClass.SPORTS]),
    _cat("Shopping", Theme.SOCIAL, [ContentClass.SHOPPING]),
    _cat("Social Networking", Theme.SOCIAL, [ContentClass.SOCIAL_MEDIA]),
    _cat("Mainstream Religion", Theme.SOCIAL,
         [ContentClass.RELIGION_MAINSTREAM]),
    _cat("Education", Theme.SOCIAL, [ContentClass.EDUCATION]),
    # Internet tools (8)
    _cat("Anonymizers and Proxies", Theme.INTERNET_TOOLS,
         [ContentClass.PROXY_ANONYMIZER]),
    _cat("VPN and Circumvention", Theme.INTERNET_TOOLS,
         [ContentClass.VPN_TOOLS]),
    _cat("Translation", Theme.INTERNET_TOOLS, [ContentClass.TRANSLATION]),
    _cat("Search Engines", Theme.INTERNET_TOOLS, [ContentClass.SEARCH_ENGINE]),
    _cat("Web Mail", Theme.INTERNET_TOOLS, [ContentClass.EMAIL_PROVIDER]),
    _cat("Hosting and Blogging", Theme.INTERNET_TOOLS,
         [ContentClass.HOSTING_SERVICE]),
    _cat("File Sharing", Theme.INTERNET_TOOLS, [ContentClass.TECHNOLOGY]),
    _cat("Internet Telephony", Theme.INTERNET_TOOLS,
         [ContentClass.TECHNOLOGY]),
    # Conflict / security (7)
    _cat("Militant Groups", Theme.CONFLICT_SECURITY, [ContentClass.MILITANT]),
    _cat("Weapons", Theme.CONFLICT_SECURITY, [ContentClass.WEAPONS]),
    _cat("Hacking and Malware", Theme.CONFLICT_SECURITY,
         [ContentClass.MALWARE]),
    _cat("Phishing and Fraud", Theme.CONFLICT_SECURITY,
         [ContentClass.PHISHING]),
    _cat("Armed Conflict News", Theme.CONFLICT_SECURITY, [ContentClass.NEWS]),
    _cat("Security Services", Theme.CONFLICT_SECURITY,
         [ContentClass.GOVERNMENT]),
    _cat("Extremism", Theme.CONFLICT_SECURITY, [ContentClass.MILITANT]),
)

assert len(LIST_CATEGORIES) == 40, len(LIST_CATEGORIES)

CATEGORY_BY_NAME: Dict[str, ListCategory] = {
    category.name: category for category in LIST_CATEGORIES
}


@dataclass(frozen=True)
class TestListEntry:
    __test__ = False  # not a pytest collectable despite the name

    url: Url
    category: ListCategory

    @property
    def theme(self) -> Theme:
        return self.category.theme


@dataclass
class TestList:
    """A named URL list (the global list or one country's local list)."""

    __test__ = False  # not a pytest collectable despite the name

    name: str
    entries: List[TestListEntry] = field(default_factory=list)

    def urls(self) -> List[Url]:
        return [entry.url for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def build_global_list(world: World, *, per_category: int = 3) -> TestList:
    """Sample internationally relevant sites (generic TLDs) per category."""
    return _build_list(
        world,
        name="global",
        per_category=per_category,
        rng_label="global-list",
        predicate=lambda site: site.domain.rsplit(".", 1)[-1] in GENERIC_TLDS,
    )


def build_local_list(world: World, country_code: str) -> TestList:
    """Sample locally relevant sites, two per category: ccTLD or
    operated in-country."""
    code = country_code.lower()

    def is_local(site) -> bool:
        if site.domain.endswith(f".{code}"):
            return True
        return (
            site.operator_country is not None
            and site.operator_country.code == code
        )

    return _build_list(
        world,
        name=f"local-{code}",
        per_category=2,
        rng_label=f"local-list-{code}",
        predicate=is_local,
    )


def _build_list(world, name, per_category, rng_label, predicate) -> TestList:
    rng = derive_rng(world.seed, rng_label)
    sites_by_class: Dict[ContentClass, List] = {}
    for domain in sorted(world.websites):
        site = world.websites[domain]
        if predicate(site):
            sites_by_class.setdefault(site.content_class, []).append(site)
    test_list = TestList(name)
    for category in LIST_CATEGORIES:
        pool = []
        for content_class in sorted(category.content_classes, key=lambda c: c.value):
            pool.extend(sites_by_class.get(content_class, []))
        if not pool:
            continue
        count = min(per_category, len(pool))
        for site in rng.sample(pool, count):
            test_list.entries.append(
                TestListEntry(Url.for_host(site.domain), category)
            )
    return test_list
