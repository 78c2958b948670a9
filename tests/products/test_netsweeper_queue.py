"""Unit tests for Netsweeper's access queue and category test pages."""

from __future__ import annotations

import pytest

from repro.net.url import Url
from repro.products.database import DatabaseSubscription
from repro.products.netsweeper import CATEGORY_TEST_HOST, make_netsweeper
from repro.world.clock import SimTime
from repro.world.content import ContentClass
from repro.world.rng import derive_rng


def make_product(oracle=None, queue_days=(2.0, 6.0)):
    return make_netsweeper(
        oracle or (lambda host: ContentClass.PROXY_ANONYMIZER),
        derive_rng(1, "ns-queue"),
        queue_min_days=queue_days[0],
        queue_max_days=queue_days[1],
    )


class DescribeAccessQueue:
    def test_uncategorized_access_queues_host(self):
        product = make_product()
        product.on_passthrough(Url.parse("http://fresh.info/"), SimTime(0))
        assert product.queued_hosts == ["fresh.info"]

    def test_categorized_host_not_requeued(self):
        product = make_product()
        category = product.taxonomy.by_name("Pornography")
        product.database.add("known.com", category, SimTime(0))
        product.on_passthrough(Url.parse("http://known.com/"), SimTime.from_days(1))
        assert product.queued_hosts == []

    def test_duplicate_access_queues_once(self):
        product = make_product()
        url = Url.parse("http://fresh.info/")
        product.on_passthrough(url, SimTime(0))
        product.on_passthrough(url, SimTime.from_days(1))
        assert product.queued_hosts == ["fresh.info"]

    def test_test_host_never_queued(self):
        product = make_product()
        product.on_passthrough(
            Url.parse(f"http://{CATEGORY_TEST_HOST}/category/catno/23"), SimTime(0)
        )
        assert product.queued_hosts == []

    def test_queue_matures_into_database(self):
        product = make_product()
        product.on_passthrough(Url.parse("http://fresh.info/"), SimTime(0))
        product.tick(SimTime.from_days(1))  # too early
        assert product.queued_hosts == ["fresh.info"]
        product.tick(SimTime.from_days(7))  # past the max delay
        assert product.queued_hosts == []
        category = product.database.lookup("fresh.info", SimTime.from_days(7))
        assert category is not None and category.name == "Proxy Anonymizer"
        entry = product.database.lookup_entry("fresh.info", SimTime.from_days(7))
        assert entry.source == "auto_queue"

    def test_unreachable_site_silently_dropped(self):
        product = make_product(oracle=lambda host: None)
        product.on_passthrough(Url.parse("http://gone.info/"), SimTime(0))
        product.tick(SimTime.from_days(7))
        assert product.queued_hosts == []
        assert len(product.database) == 0

    def test_uncategorizable_content_dropped(self):
        product = make_product(oracle=lambda host: ContentClass.BENIGN)
        product.on_passthrough(Url.parse("http://plain.info/"), SimTime(0))
        product.tick(SimTime.from_days(7))
        assert len(product.database) == 0


class DescribeCategoryTestPages:
    def test_decide_maps_catno_path(self):
        product = make_product()
        subscription = DatabaseSubscription(product.database)
        url = Url.parse(f"http://{CATEGORY_TEST_HOST}/category/catno/23")
        category = product.decide(url, subscription, SimTime(0))
        assert category is not None and category.name == "Pornography"

    @pytest.mark.parametrize(
        "path", ["/", "/category/", "/category/catno/", "/category/catno/abc",
                 "/category/catno/999", "/other/catno/23",
                 # int() rejects "²" and reads "٣" as 3.
                 "/category/catno/\u00b2", "/category/catno/\u0663"]
    )
    def test_decide_ignores_malformed_probe_paths(self, path):
        product = make_product()
        subscription = DatabaseSubscription(product.database)
        url = Url(f"http", CATEGORY_TEST_HOST, 80, path)
        assert product.decide(url, subscription, SimTime(0)) is None

    def test_decide_falls_back_to_database(self):
        product = make_product()
        subscription = DatabaseSubscription(product.database)
        category = product.taxonomy.by_name("Gambling")
        product.database.add("bets.com", category, SimTime(0))
        assert (
            product.decide(Url.parse("http://bets.com/"), subscription, SimTime(0))
            == category
        )

    def test_infrastructure_index_lists_categories(self):
        product = make_product()
        from repro.net.http import HttpRequest

        app = product.infrastructure_apps()[CATEGORY_TEST_HOST]
        index = app(HttpRequest.get(Url.parse(f"http://{CATEGORY_TEST_HOST}/")))
        assert "catno/23" in index.body
        page = app(
            HttpRequest.get(
                Url.parse(f"http://{CATEGORY_TEST_HOST}/category/catno/46")
            )
        )
        assert "Proxy Anonymizer" in page.body

    @pytest.mark.parametrize("catno", ["\u00b2", "\u0663"])
    def test_infrastructure_page_ignores_non_ascii_digits(self, catno):
        product = make_product()
        from repro.net.http import HttpRequest

        app = product.infrastructure_apps()[CATEGORY_TEST_HOST]
        page = app(
            HttpRequest.get(
                Url("http", CATEGORY_TEST_HOST, 80, f"/category/catno/{catno}")
            )
        )
        assert page.html_title() == "Netsweeper Deny Page Tests"
