"""Deterministic content weaving: token vocabularies + a link graph.

The base population gives every website a single one-paragraph front
page, which is enough for block-page verdicts but useless for the
discovery workload: a crawler that fetches a blocked site's origin
content needs *keywords* to query a search index with and *links* to
follow outward. This module is the content substrate — a post-pass that
rewrites each site's front page and adds a handful of article pages,
all derived purely from ``(world.seed, domain)`` plus the (sorted,
deterministic) site universe, so woven content is replayable the same
way :class:`repro.world.population.ShardedPopulation` hosts are.

Structure per site:

* a **topic vocabulary** shared by every site of the same content class
  (compound words drawn from :mod:`repro.world.words`), repeated in a
  tags line so frequency ranking surfaces them as the page's keywords;
* a few **site-local tokens** unique to the domain;
* an **intra-site nav** (front page <-> article pages) using relative
  links, including one deliberately messy self-link (``//`` + trailing
  query) that the canonical-path rule must absorb;
* a **cross-site related-links list**: the successor in the sorted
  same-class domain list (a ring, so each class cluster is connected)
  plus sampled same-class and random neighbors.

Titles are left untouched and classifier confidences are constants, so
weaving never flips a verdict — it only gives discovery something to
chew on.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.net.http import ok_response
from repro.world.content import ContentClass
from repro.world.entities import WebSite
from repro.world.rng import derive_rng
from repro.world.words import WORDS_A, WORDS_B

__all__ = ["class_vocabulary", "weave_content", "weave_site"]

#: Distinct topic tokens per content class.
VOCABULARY_SIZE = 10
#: Same-class related links per page (beyond the ring successor).
SAME_CLASS_LINKS = 3
#: Unconditioned related links per page (cross-class noise).
CROSS_LINKS = 2


def class_vocabulary(
    seed: int, content_class: ContentClass, *, size: int = VOCABULARY_SIZE
) -> List[str]:
    """The topic tokens every site of ``content_class`` writes about.

    Compound words ("maplerunner") so they tokenize as single terms and
    never collide with page boilerplate. Pure in (seed, class).
    """
    rng = derive_rng(seed, "weave", "vocab", content_class.name)
    tokens: List[str] = []
    seen = set()
    while len(tokens) < size:
        word = rng.choice(WORDS_A) + rng.choice(WORDS_B)
        if word not in seen:
            seen.add(word)
            tokens.append(word)
    return tokens


def _site_tokens(rng, count: int = 3) -> List[str]:
    return [rng.choice(WORDS_A) + rng.choice(WORDS_B) for _ in range(count)]


def _related_links(
    rng,
    domain: str,
    class_domains: Sequence[str],
    class_index: Dict[str, int],
    all_domains: Sequence[str],
) -> List[str]:
    """Cross-site neighbors: ring successor + same-class + random picks."""
    neighbors: List[str] = []
    position = class_index[domain]
    if len(class_domains) > 1:
        neighbors.append(class_domains[(position + 1) % len(class_domains)])
    peers = [d for d in class_domains if d != domain and d not in neighbors]
    if peers:
        neighbors.extend(rng.sample(peers, min(SAME_CLASS_LINKS, len(peers))))
    others = [d for d in all_domains if d != domain]
    if others:
        neighbors.extend(rng.sample(others, min(CROSS_LINKS, len(others))))
    # Dedupe, preserving draw order so the rng stream stays aligned.
    unique: List[str] = []
    for neighbor in neighbors:
        if neighbor not in unique:
            unique.append(neighbor)
    return unique


def _page_html(
    heading: str,
    lead: str,
    topics: Sequence[str],
    site_words: Sequence[str],
    nav_links: Sequence[str],
    related: Sequence[str],
) -> str:
    tags = " ".join(topics)
    nav = " ".join(f'<a href="{href}">{href}</a>' for href in nav_links)
    links = "".join(
        f'<li><a href="http://{d}/">{d}</a></li>' for d in related
    )
    return (
        f"<h1>{heading}</h1>"
        f"<p>{lead}</p>"
        f"<p>tags: {tags} {tags}</p>"
        f"<p>notes: {' '.join(site_words)}</p>"
        f"<nav>{nav}</nav>"
        f"<ul>{links}</ul>"
    )


def weave_site(
    seed: int,
    site: WebSite,
    vocabulary: Sequence[str],
    class_domains: Sequence[str],
    class_index: Dict[str, int],
    all_domains: Sequence[str],
) -> None:
    """Rewrite one site's pages; pure in (seed, domain, universe)."""
    rng = derive_rng(seed, "weave", site.domain)
    article_count = rng.randint(2, 4)
    site_words = _site_tokens(rng)
    front_topics = rng.sample(list(vocabulary), min(6, len(vocabulary)))
    article_paths = [f"/article-{i}" for i in range(1, article_count + 1)]
    # One intentionally messy self-link per site: the canonical-path
    # rule must make it resolve rather than 404.
    nav = ["/", article_paths[0] + "?ref=weave"] + [
        "/" + p for p in article_paths[1:]
    ]
    related = _related_links(
        rng, site.domain, class_domains, class_index, all_domains
    )
    lead = (
        f"{site.title} — {site.content_class.value} coverage "
        f"and a directory of related sites."
    )
    site.add_page(
        "/",
        ok_response(
            site.title,
            _page_html(site.title, lead, front_topics, site_words, nav, related),
        ),
    )
    for offset, path in enumerate(article_paths):
        topics = rng.sample(list(vocabulary), min(5, len(vocabulary)))
        article_related = related[offset % len(related):] if related else []
        site.add_page(
            path,
            ok_response(
                site.title,
                _page_html(
                    f"{site.title} {path.strip('/')}",
                    f"Article {offset + 1} on {site.content_class.value}.",
                    topics,
                    site_words,
                    ["/"] + article_paths,
                    article_related,
                ),
            ),
        )


def weave_content(world) -> int:
    """Weave every registered website; returns the page count written.

    Deterministic and idempotent: the same (seed, site universe) always
    produces byte-identical pages, and re-weaving overwrites in place.
    Call it *before* vendor infrastructure or noise hosts register, so
    only the content population is woven.
    """
    all_domains = sorted(world.websites)
    by_class: Dict[ContentClass, List[str]] = {}
    for domain in all_domains:
        by_class.setdefault(world.websites[domain].content_class, []).append(
            domain
        )
    class_index = {
        domain: position
        for domains in by_class.values()
        for position, domain in enumerate(domains)
    }
    vocabularies = {
        content_class: class_vocabulary(world.seed, content_class)
        for content_class in by_class
    }
    pages = 0
    for domain in all_domains:
        site = world.websites[domain]
        weave_site(
            world.seed,
            site,
            vocabularies[site.content_class],
            by_class[site.content_class],
            class_index,
            all_domains,
        )
        pages += len(site.pages)
    return pages
