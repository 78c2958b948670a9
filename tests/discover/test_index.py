"""The simulated search index: ranking, pagination, budgets."""

from __future__ import annotations

import pytest

from repro.discover.index import (
    QueryBudgetExhausted,
    SearchIndex,
    tokenize,
)
from repro.world.scenario import ScenarioConfig, build_scenario
from repro.world.weave import class_vocabulary


@pytest.fixture(scope="module")
def world():
    return build_scenario(config=ScenarioConfig(population_size=160)).world


@pytest.fixture(scope="module")
def index(world):
    return SearchIndex.build(world)


class DescribeTokenize:
    def test_strips_markup_and_stopwords(self):
        terms = tokenize('<a href="http://x.com/">riverkeeper</a> tags html')
        assert "riverkeeper" in terms
        assert "href" not in terms
        assert "tags" not in terms

    def test_lowercases_and_drops_short_terms(self):
        assert tokenize("Maple AND owl") == ["maple"]


class DescribeSearchIndex:
    def test_indexes_every_page(self, world, index):
        pages = sum(len(s.pages) for s in world.websites.values())
        assert index.page_count == pages
        assert index.postings

    def test_class_token_finds_same_class_sites(self, world, index):
        site = world.websites[sorted(world.websites)[0]]
        token = class_vocabulary(world.seed, site.content_class)[0]
        page = index.query(token, per_page=500)
        hosts = {result.split("/")[2] for result in page.results}
        assert site.domain in hosts
        classes = {
            world.websites[h].content_class
            for h in hosts
            if h in world.websites
        }
        assert site.content_class in classes

    def test_ranking_is_deterministic(self, world):
        first = SearchIndex.build(world)
        second = SearchIndex.build(world)
        assert first.postings == second.postings

    def test_pagination_walks_the_ranking(self, index):
        term = max(index.postings, key=lambda t: len(index.postings[t]))
        page1 = index.query(term, page=1, per_page=3)
        page2 = index.query(term, page=2, per_page=3)
        assert page1.total == page2.total == len(index.postings[term])
        assert list(page1.results) == index.postings[term][:3]
        assert list(page2.results) == index.postings[term][3:6]

    def test_unknown_term_is_empty(self, index):
        page = index.query("zzzznotaword")
        assert page.total == 0 and page.results == ()

    def test_bad_pagination_rejected(self, index):
        with pytest.raises(ValueError):
            index.query("maple", page=0)
        with pytest.raises(ValueError):
            index.query("maple", per_page=0)

    def test_query_budget_exhausts(self, world):
        metered = SearchIndex.build(world, query_budget=2)
        metered.query("a1234")
        metered.query("b1234")
        with pytest.raises(QueryBudgetExhausted):
            metered.query("c1234")
        assert metered.queries_issued == 2