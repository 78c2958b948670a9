"""FaultPlan semantics: determinism, typing, parsing, corruption."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.errors import (
    AddressError,
    ConnectionReset,
    ConnectionTimeout,
    DnsTimeout,
    NetError,
    NxDomain,
    UrlError,
)
from repro.net.url import Url
from repro.world.clock import SimTime
from repro.world.faults import (
    NO_FAULTS,
    FaultPlan,
    InjectedConnectionReset,
    InjectedConnectionTimeout,
    InjectedDnsTimeout,
    InjectedFault,
    InjectedNxDomain,
    VantageOutage,
    corrupt_text,
    current_attempt,
    fault_attempt,
)

from tests.conftest import make_mini_world


class DescribeTransientClassification:
    def test_noise_errors_are_transient(self):
        for exc_type in (DnsTimeout, ConnectionReset, ConnectionTimeout):
            assert exc_type.transient, exc_type

    def test_answer_errors_are_permanent(self):
        for exc_type in (NxDomain, UrlError, AddressError, NetError):
            assert not exc_type.transient, exc_type

    def test_injected_subtypes_inherit_the_classification(self):
        # The retry layer must treat an injected flap exactly like the
        # real error it mimics: timeouts retry, NXDOMAIN quarantines.
        assert InjectedDnsTimeout.transient
        assert InjectedConnectionReset.transient
        assert InjectedConnectionTimeout.transient
        assert not InjectedNxDomain.transient

    def test_injected_types_are_both_marker_and_net_error(self):
        fault = InjectedNxDomain("example.test")
        assert isinstance(fault, InjectedFault)
        assert isinstance(fault, NxDomain)


class DescribeDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), host=st.text("abcxyz.", min_size=1))
    def test_decisions_are_stateless(self, seed, host):
        # Same (seed, vantage, host) → same decision, independent of
        # how many rolls happened in between.
        plan = FaultPlan(seed=seed, dns_timeout_rate=0.5, reset_rate=0.5)
        first = type(plan.dns_fault("isp-a", host))
        for _ in range(3):
            plan.connection_fault("isp-b", "other.test")
        assert type(plan.dns_fault("isp-a", host)) is first

    def test_distinct_seeds_give_distinct_schedules(self):
        hosts = [f"site{i}.test" for i in range(200)]
        plan_a = FaultPlan(seed=1, reset_rate=0.3)
        plan_b = FaultPlan(seed=2, reset_rate=0.3)
        fires_a = [plan_a.connection_fault("isp", h) is not None for h in hosts]
        fires_b = [plan_b.connection_fault("isp", h) is not None for h in hosts]
        assert fires_a != fires_b

    def test_attempt_number_rerolls_the_dice(self):
        # A host that faults on attempt 0 must be able to succeed on a
        # retry: the thread-local attempt number enters the hash.
        plan = FaultPlan(seed=3, reset_rate=0.4)
        faulted = [
            h
            for h in (f"s{i}.test" for i in range(120))
            if plan.connection_fault("isp", h) is not None
        ]
        assert faulted  # 0.4 over 120 hosts: statistically certain
        recovered = 0
        for host in faulted:
            with fault_attempt(1):
                if plan.connection_fault("isp", host) is None:
                    recovered += 1
        assert recovered > 0

    def test_fault_attempt_restores_previous_value(self):
        assert current_attempt() == 0
        with fault_attempt(2):
            assert current_attempt() == 2
            with fault_attempt(5):
                assert current_attempt() == 5
            assert current_attempt() == 2
        assert current_attempt() == 0

    def test_rate_one_always_fires_rate_zero_never(self):
        always = FaultPlan(seed=9, dns_timeout_rate=1.0)
        never = FaultPlan(seed=9)
        for host in ("a.test", "b.test", "c.test"):
            assert isinstance(always.dns_fault("v", host), InjectedDnsTimeout)
            assert never.dns_fault("v", host) is None


class DescribePlanValidation:
    def test_rates_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(reset_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(nxdomain_rate=-0.1)

    def test_inert_plan_is_not_active(self):
        assert not NO_FAULTS.active
        assert FaultPlan(seed=42).active is False
        assert FaultPlan(slow_rate=0.01).active
        assert FaultPlan(
            outages=(
                VantageOutage("isp", SimTime.from_days(1), SimTime.from_days(3)),
            )
        ).active

    def test_outage_window_must_be_positive(self):
        with pytest.raises(ValueError):
            VantageOutage("isp", SimTime.from_days(5), SimTime.from_days(5))


class DescribeOutages:
    def test_outage_covers_exactly_its_window(self):
        outage = VantageOutage(
            "yemennet", SimTime.from_days(10), SimTime.from_days(12)
        )
        plan = FaultPlan(outages=(outage,))
        before = SimTime.from_days(9.5)
        during = SimTime.from_days(11)
        after = SimTime.from_days(12.5)
        assert plan.outage_fault("yemennet", before) is None
        fault = plan.outage_fault("yemennet", during)
        assert isinstance(fault, InjectedConnectionTimeout)
        assert plan.outage_fault("yemennet", after) is None

    def test_outage_is_vantage_specific(self):
        outage = VantageOutage(
            "yemennet", SimTime.from_days(0), SimTime.from_days(5)
        )
        plan = FaultPlan(outages=(outage,))
        assert plan.outage_fault("etisalat", SimTime.from_days(1)) is None


class DescribeParsing:
    def test_round_trips_through_describe(self):
        spec = "seed=7,dns_timeout=0.05,reset=0.02,outage=yemennet:300:305"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert plan.dns_timeout_rate == 0.05
        assert plan.outages[0].isp_name == "yemennet"
        assert FaultPlan.parse(plan.describe()) == plan

    def test_unknown_keys_and_malformed_entries_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("reset")
        with pytest.raises(ValueError):
            FaultPlan.parse("outage=isp:1")


class DescribeCorruption:
    def test_truncate_halves_garble_blanks_keywords(self):
        text = "HTTP/1.1 200 OK Server: filter-console"
        assert corrupt_text("truncate", text) == text[: len(text) // 2]
        garbled = corrupt_text("garble", text)
        assert len(garbled) == len(text)
        assert "filter" not in garbled
        with pytest.raises(ValueError):
            corrupt_text("squash", text)

    def test_empty_text_passes_through(self):
        assert corrupt_text("truncate", "") == ""


class DescribeWorldWiring:
    def test_injected_faults_escape_fetch_as_exceptions(self):
        world = make_mini_world()
        world.install_faults(FaultPlan(seed=1, reset_rate=1.0))
        isp = world.isps["testnet"]
        with pytest.raises(InjectedConnectionReset):
            world.fetch(isp, Url.parse("http://daily-news.example.com/"))

    def test_injected_nxdomain_never_becomes_dns_failure_outcome(self):
        # The typed-escape invariant: a genuine NXDOMAIN becomes a
        # DNS_FAILURE outcome (possible tampering signal), an injected
        # flap must raise instead — otherwise chaos could manufacture
        # DNS_TAMPERED verdicts.
        world = make_mini_world()
        world.install_faults(FaultPlan(seed=1, nxdomain_rate=1.0))
        isp = world.isps["testnet"]
        with pytest.raises(InjectedNxDomain):
            world.fetch(isp, Url.parse("http://daily-news.example.com/"))

    def test_injected_dns_timeout_clears_with_the_plan(self):
        world = make_mini_world()
        url = Url.parse("http://daily-news.example.com/")
        isp = world.isps["testnet"]
        world.install_faults(FaultPlan(seed=1, dns_timeout_rate=1.0))
        with pytest.raises(InjectedDnsTimeout):
            world.fetch(isp, url)
        # The fault left nothing behind: once the plan is cleared, the
        # same fetch resolves and succeeds.
        world.install_faults(None)
        assert world.fetch(isp, url).ok

    def test_inert_plan_changes_nothing(self):
        world = make_mini_world()
        url = Url.parse("http://daily-news.example.com/")
        baseline = world.fetch(world.isps["testnet"], url)
        chaos_world = make_mini_world()
        chaos_world.install_faults(FaultPlan(seed=99))  # zero rates
        replay = chaos_world.fetch(chaos_world.isps["testnet"], url)
        assert replay.outcome is baseline.outcome
        assert replay.response.body == baseline.response.body
