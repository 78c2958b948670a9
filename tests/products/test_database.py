"""Unit tests for the versioned categorization database."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.url import Url
from repro.products.categories import SMARTFILTER_TAXONOMY
from repro.products.database import DatabaseSubscription, UrlDatabase
from repro.world.clock import SimTime

PORN = SMARTFILTER_TAXONOMY.by_name("Pornography")
PROXY = SMARTFILTER_TAXONOMY.by_name("Anonymizers")


@pytest.fixture()
def database():
    return UrlDatabase("test-vendor")


class DescribeLookups:
    def test_unknown_host_is_none(self, database):
        assert database.lookup("x.com", SimTime.from_days(10)) is None
        assert not database.knows("x.com", SimTime.from_days(10))

    def test_entry_visible_from_effective_time(self, database):
        database.add("x.com", PORN, SimTime.from_days(5))
        assert database.lookup("x.com", SimTime.from_days(4.9)) is None
        assert database.lookup("x.com", SimTime.from_days(5)) == PORN
        assert database.lookup("x.com", SimTime.from_days(50)) == PORN

    def test_latest_entry_wins(self, database):
        database.add("x.com", PORN, SimTime.from_days(5))
        database.add("x.com", PROXY, SimTime.from_days(10))
        assert database.lookup("x.com", SimTime.from_days(7)) == PORN
        assert database.lookup("x.com", SimTime.from_days(10)) == PROXY

    def test_out_of_order_insertion(self, database):
        database.add("x.com", PROXY, SimTime.from_days(10))
        database.add("x.com", PORN, SimTime.from_days(5))
        assert database.lookup("x.com", SimTime.from_days(7)) == PORN

    def test_url_keys_collapse_to_host(self, database):
        database.add(Url.parse("http://X.com/deep/path?q=1"), PORN, SimTime(0))
        assert database.lookup("x.com", SimTime(0)) == PORN
        assert database.lookup(Url.parse("https://x.com/other"), SimTime(0)) == PORN

    def test_entries_for(self, database):
        database.add("x.com", PORN, SimTime(0), source="seed")
        database.add("x.com", PROXY, SimTime(10), source="submission")
        entries = database.entries_for("x.com")
        assert [e.source for e in entries] == ["seed", "submission"]

    def test_len_counts_entries(self, database):
        database.add("x.com", PORN, SimTime(0))
        database.add("x.com", PROXY, SimTime(10))
        database.add("y.com", PORN, SimTime(0))
        assert len(database) == 3

    def test_size_at_counts_hosts(self, database):
        database.add("x.com", PORN, SimTime.from_days(1))
        database.add("y.com", PORN, SimTime.from_days(5))
        assert database.size_at(SimTime.from_days(2)) == 1
        assert database.size_at(SimTime.from_days(5)) == 2

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_latest_wins_property(self, offsets):
        database = UrlDatabase("prop")
        categories = [PORN, PROXY]
        for index, offset in enumerate(offsets):
            database.add(
                "h.com", categories[index % 2], SimTime.from_days(offset)
            )
        query = SimTime.from_days(max(offsets))
        expected_index = max(
            range(len(offsets)), key=lambda i: (offsets[i], i)
        )
        assert database.lookup("h.com", query) == categories[expected_index % 2]


HOSTS = ("a.com", "b.com", "c.com", "d.com", "e.com")
#: (host, category, day); few hosts and days, so ties and shared hosts
#: are common.
ADDS = st.tuples(
    st.sampled_from(HOSTS), st.sampled_from([PORN, PROXY]), st.integers(0, 3)
)
CAMPAIGN_SOURCES = st.sampled_from(["submission", "auto_queue", "analyst"])


def seeded(seed_adds):
    database = UrlDatabase("delta")
    for host, category, day in seed_adds:
        database.add(host, category, SimTime.from_days(day))
    return database


def bucket_order_capture(database):
    """The older capture: every non-seed entry, in bucket order."""
    return [
        entry
        for host in database.hosts()
        for entry in database.entries_for(host)
        if entry.source != "seed"
    ]


def layout(database):
    """Every bucket, entry for entry, in host order."""
    return [(host, database.entries_for(host)) for host in database.hosts()]


class DescribeDelta:
    @given(
        st.lists(ADDS, max_size=8),
        st.lists(st.tuples(ADDS, CAMPAIGN_SOURCES), max_size=12),
    )
    def test_restored_delta_rebuilds_the_live_database(
        self, seed_adds, campaign_adds
    ):
        live = seeded(seed_adds)
        added = [
            live.add(host, category, SimTime.from_days(day), source)
            for (host, category, day), source in campaign_adds
        ]
        delta = live.capture_delta()
        assert delta == added
        restored = seeded(seed_adds)
        restored.restore_delta(delta)
        assert layout(restored) == layout(live)
        assert restored.capture_delta() == delta
        reference = seeded(seed_adds)
        reference.restore_delta(bucket_order_capture(live))
        assert layout(reference) == layout(restored)

    def test_delta_only_grows(self, database):
        database.add("x.com", PORN, SimTime(0))
        first = database.add("x.com", PROXY, SimTime(20), source="submission")
        head = database.capture_delta()
        second = database.add("x.com", PORN, SimTime(10), source="analyst")
        assert head == [first]
        assert database.capture_delta() == [first, second]
        assert [e.effective_at for e in database.entries_for("x.com")] == [
            SimTime(0), SimTime(10), SimTime(20)
        ]


class DescribeSubscriptions:
    def test_active_subscription_tracks_master(self, database):
        subscription = DatabaseSubscription(database)
        database.add("x.com", PORN, SimTime.from_days(3))
        assert subscription.lookup("x.com", SimTime.from_days(3)) == PORN

    def test_withdrawn_subscription_frozen(self, database):
        subscription = DatabaseSubscription(database)
        database.add("old.com", PORN, SimTime.from_days(1))
        subscription.withdraw(SimTime.from_days(2))
        database.add("new.com", PORN, SimTime.from_days(5))
        later = SimTime.from_days(10)
        assert subscription.lookup("old.com", later) == PORN
        assert subscription.lookup("new.com", later) is None
        assert not subscription.knows("new.com", later)

    def test_withdrawn_also_freezes_recategorization(self, database):
        subscription = DatabaseSubscription(database)
        database.add("x.com", PORN, SimTime.from_days(1))
        subscription.withdraw(SimTime.from_days(2))
        database.add("x.com", PROXY, SimTime.from_days(5))
        assert subscription.lookup("x.com", SimTime.from_days(9)) == PORN

    def test_effective_time(self, database):
        subscription = DatabaseSubscription(database)
        now = SimTime.from_days(7)
        assert subscription.effective_time(now) == now
        subscription.withdraw(SimTime.from_days(2))
        assert subscription.effective_time(now) == SimTime.from_days(2)
