"""Content vocabulary: what a site *actually* hosts.

This is the ground-truth language shared by origin servers, vendor
categorization reviewers, and test lists. Each :class:`ContentClass` is
what a human (or a vendor's categorization analyst) would conclude after
looking at the site — vendor products then map content classes into their
own proprietary category taxonomies (:mod:`repro.products.categories`).

The classes cover the paper's needs: proxy/anonymizer sites built on the
Glype script (§4.3, §4.4), pornography and standalone adult images
(Saudi case study, §4.3), and the §5 characterization themes (human
rights, political reform, LGBT, religious criticism, minority religions,
independent media).
"""

from __future__ import annotations

import enum


class ContentClass(enum.Enum):
    """Ground-truth content hosted by a website."""

    # Internet tools
    PROXY_ANONYMIZER = "proxy_anonymizer"
    VPN_TOOLS = "vpn_tools"
    TRANSLATION = "translation"
    SEARCH_ENGINE = "search_engine"
    EMAIL_PROVIDER = "email_provider"
    HOSTING_SERVICE = "hosting_service"

    # Social / adult
    PORNOGRAPHY = "pornography"
    ADULT_IMAGES = "adult_images"
    DATING = "dating"
    LGBT = "lgbt"
    GAMBLING = "gambling"
    ALCOHOL_DRUGS = "alcohol_drugs"
    SOCIAL_MEDIA = "social_media"

    # Political
    POLITICAL_OPPOSITION = "political_opposition"
    POLITICAL_REFORM = "political_reform"
    HUMAN_RIGHTS = "human_rights"
    MEDIA_FREEDOM = "media_freedom"
    INDEPENDENT_MEDIA = "independent_media"
    RELIGIOUS_CRITICISM = "religious_criticism"
    MINORITY_RELIGION = "minority_religion"
    MINORITY_GROUPS = "minority_groups"
    WOMENS_RIGHTS = "womens_rights"

    # Conflict / security
    MILITANT = "militant"
    PHISHING = "phishing"
    MALWARE = "malware"
    WEAPONS = "weapons"

    # Everyday
    NEWS = "news"
    EDUCATION = "education"
    GOVERNMENT = "government"
    RELIGION_MAINSTREAM = "religion_mainstream"
    SHOPPING = "shopping"
    SPORTS = "sports"
    TECHNOLOGY = "technology"
    ENTERTAINMENT = "entertainment"
    HEALTH = "health"
    BENIGN = "benign"
