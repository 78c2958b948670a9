"""Unit tests for the §5 test-list apparatus."""

from __future__ import annotations

import pytest

from repro.measure.testlists import (
    CATEGORY_BY_NAME,
    LIST_CATEGORIES,
    Table4Column,
    Theme,
    build_global_list,
    build_local_list,
)
from repro.net.url import GENERIC_TLDS


class DescribeTaxonomyOfLists:
    def test_exactly_forty_categories(self):
        assert len(LIST_CATEGORIES) == 40

    def test_four_themes_all_used(self):
        assert {c.theme for c in LIST_CATEGORIES} == set(Theme)

    def test_names_unique(self):
        names = [c.name for c in LIST_CATEGORIES]
        assert len(set(names)) == len(names)
        assert CATEGORY_BY_NAME["Human Rights"].theme is Theme.POLITICAL

    def test_every_table4_column_reachable(self):
        covered = {
            c.table4_column for c in LIST_CATEGORIES if c.table4_column
        }
        assert covered == set(Table4Column)

    def test_paper_examples_exist(self):
        # §5 names "human rights" and "gambling" as example categories.
        assert "Human Rights" in CATEGORY_BY_NAME
        assert "Gambling" in CATEGORY_BY_NAME


class DescribeListBuilding:
    def test_global_list_sticks_to_generic_tlds(self, scenario):
        test_list = build_global_list(scenario.world, per_category=2)
        assert len(test_list) > 30
        for entry in test_list.entries:
            assert entry.url.host.rsplit(".", 1)[-1] in GENERIC_TLDS

    def test_global_list_deterministic(self, scenario):
        a = build_global_list(scenario.world, per_category=2)
        b = build_global_list(scenario.world, per_category=2)
        assert [str(e.url) for e in a.entries] == [str(e.url) for e in b.entries]

    def test_local_list_is_country_specific(self, scenario):
        test_list = build_local_list(scenario.world, "ye")
        assert len(test_list) > 0
        world = scenario.world
        for entry in test_list.entries:
            host = entry.url.host
            site = world.websites[host]
            local = host.endswith(".ye") or (
                site.operator_country is not None
                and site.operator_country.code == "ye"
            )
            assert local, host

    def test_local_lists_differ_between_countries(self, scenario):
        ye = {str(e.url) for e in build_local_list(scenario.world, "ye").entries}
        qa = {str(e.url) for e in build_local_list(scenario.world, "qa").entries}
        assert ye != qa

    def test_entries_reference_live_sites(self, scenario):
        test_list = build_global_list(scenario.world, per_category=1)
        for entry in test_list.entries[:10]:
            assert entry.url.host in scenario.world.websites
