"""Edge cases and cross-cutting behaviours not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.core.confirm import DEFAULT_SUBMITTER
from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.middlebox.deploy import deploy
from repro.middlebox.policy import BlockMode, FilterPolicy
from repro.net.url import Url
from repro.products.netsweeper import make_netsweeper
from repro.products.smartfilter import make_smartfilter
from repro.world.content import ContentClass
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


class DescribeVendorDatabaseGrowth:
    """§6.2: vendors 'advertise the number of URLs they have classified
    and the rate at which they add to their databases' — submissions and
    the access queue both grow the master DB over time."""

    def test_netsweeper_by_the_numbers(self):
        world = make_mini_world()
        product = make_netsweeper(
            make_content_oracle(world), derive_rng(1, "growth"),
            queue_min_days=1.0, queue_max_days=2.0,
        )
        world.clock.on_tick(product.tick)
        deploy(world, world.isps["testnet"], product, ["Proxy Anonymizer"])
        start_size = product.database.size_at(world.now)

        # A submission...
        world.register_website(
            "submitted.example.net", ContentClass.PROXY_ANONYMIZER, 65002
        )
        product.portal.submit(
            Url.for_host("submitted.example.net"), DEFAULT_SUBMITTER, world.now
        )
        # ...and organic traffic the queue picks up.
        world.vantage("testnet").fetch(
            Url.for_host("daily-news.example.com")
        )
        world.advance_days(6)

        end_size = product.database.size_at(world.now)
        assert end_size >= start_size + 2
        sources = {
            entry.source
            for host in ("submitted.example.net", "daily-news.example.com")
            for entry in product.database.entries_for(host)
        }
        assert sources == {"submission", "auto_queue"}


class DescribeCustomCategoryDenyPage:
    def test_custom_block_serves_deny_without_category_line(self):
        world = make_mini_world()
        product = make_netsweeper(
            make_content_oracle(world), derive_rng(1, "custom")
        )
        policy = FilterPolicy(
            custom_blocked_hosts=frozenset({"daily-news.example.com"})
        )
        deploy(
            world, world.isps["testnet"], product, [],
            policy=policy,
        )
        result = world.vantage("testnet").fetch(
            Url.for_host("daily-news.example.com")
        )
        # Redirect carries cat=0 (the operator pseudo-category)...
        assert "cat=0" in result.hops[0].response.location
        # ...and the deny page renders without naming a vendor category.
        assert "Web Page Blocked" in result.response.body
        assert "Category:" not in result.response.body


class DescribeOtherCensorshipStyles:
    """§4.1: the studied products serve explicit pages, unlike censors
    that reset or drop — the comparator must classify those too."""

    @pytest.mark.parametrize(
        "mode,verdict",
        [
            (BlockMode.RESET, Verdict.BLOCKED_RESET),
            (BlockMode.DROP, Verdict.BLOCKED_TIMEOUT),
        ],
    )
    def test_reset_and_drop_censors_classified(self, mode, verdict):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, f"mode-{mode.value}")
        )
        deploy(
            world, world.isps["testnet"], product, ["Anonymizers"],
            policy=FilterPolicy(block_mode=mode),
        )
        product.database.add(
            "free-proxy.example.com",
            product.taxonomy.by_name("Anonymizers"),
            world.now,
        )
        client = MeasurementClient(
            world.vantage("testnet"), world.lab_vantage()
        )
        test = client.test_url(Url.for_host("free-proxy.example.com"))
        assert test.comparison.verdict is verdict
        assert test.blocked
        # No block page to attribute: the vendor stays unknown —
        # exactly the ambiguity §4.1 says block pages avoid.
        assert test.vendor is None


class DescribeProductHousekeeping:
    def test_repr_shows_vendor_and_db_size(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "repr")
        )
        assert "McAfee SmartFilter" in repr(product)

    def test_each_subscription_is_independent(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "subs")
        )
        a = product.subscription()
        b = product.subscription()
        a.withdraw(world.now)
        assert not a.active
        assert b.active

    def test_scenario_product_accessors(self, scenario):
        assert scenario.bluecoat.vendor == "Blue Coat"
        assert scenario.smartfilter.vendor == "McAfee SmartFilter"
        assert scenario.netsweeper.vendor == "Netsweeper"
        assert scenario.websense.vendor == "Websense"


class DescribeRedirectLimits:
    def test_max_redirects_boundary(self, mini_world):
        from repro.net.http import redirect_response
        from repro.world.entities import Host
        from repro.world.world import MAX_REDIRECTS

        # Build a chain of exactly MAX_REDIRECTS hops ending at a page.
        previous_target = "daily-news.example.com"
        for index in range(MAX_REDIRECTS):
            ip = mini_world.allocate_ip(65002)
            hostname = f"hop{index}.example.com"
            target = previous_target
            host = Host(ip=ip, hostname=hostname)
            host.add_service(
                80,
                (lambda t: lambda _r: redirect_response(f"http://{t}/"))(target),
            )
            mini_world.add_host(host)
            previous_target = hostname
        result = mini_world.lab_vantage().fetch(
            Url.for_host(previous_target)
        )
        assert result.ok
        assert len(result.hops) == MAX_REDIRECTS + 1
