"""Unit tests for the §4 confirmation methodology."""

from __future__ import annotations

import pytest

from repro.core.confirm import (
    ConfirmationConfig,
    ConfirmationResult,
    ConfirmationStudy,
    DomainOutcome,
)
from repro.middlebox.deploy import deploy
from repro.products.smartfilter import make_smartfilter
from repro.world.content import ContentClass
from repro.world.rng import derive_rng

from tests.conftest import make_content_oracle, make_mini_world


def build_filtered_world(blocked=("Anonymizers",)):
    world = make_mini_world()
    product = make_smartfilter(
        make_content_oracle(world), derive_rng(1, "cf-sf")
    )
    world.clock.on_tick(product.tick)
    deploy(world, world.isps["testnet"], product, list(blocked))
    return world, product


def proxy_config(**overrides):
    defaults = dict(
        product_name="McAfee SmartFilter",
        isp_name="testnet",
        content_class=ContentClass.PROXY_ANONYMIZER,
        category_label="Anonymizers",
        requested_category="Anonymizers",
        total_domains=6,
        submit_count=3,
    )
    defaults.update(overrides)
    return ConfirmationConfig(**defaults)


class DescribeConfigValidation:
    def test_submit_count_bounds(self):
        with pytest.raises(ValueError):
            proxy_config(submit_count=0)
        with pytest.raises(ValueError):
            proxy_config(submit_count=7)

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            proxy_config(retest_rounds=0)

    def test_product_mismatch_rejected(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        with pytest.raises(ValueError):
            study.run(proxy_config(product_name="Netsweeper"))


class DescribeStudyRuns:
    def test_positive_confirmation(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config())
        assert result.pre_check_accessible == 6
        assert result.blocked_submitted == 3
        assert result.blocked_control == 0
        assert result.confirmed
        assert result.detected_vendors.get("McAfee SmartFilter", 0) >= 3

    def test_negative_when_category_not_blocked(self):
        """Product installed but the tested category is not in policy —
        submissions accepted, nothing blocked, no confirmation."""
        world, product = build_filtered_world(blocked=("Gambling",))
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config())
        assert result.blocked_submitted == 0
        assert not result.confirmed

    def test_negative_when_product_absent(self):
        world = make_mini_world()
        product = make_smartfilter(
            make_content_oracle(world), derive_rng(1, "cf-sf2")
        )
        world.clock.on_tick(product.tick)
        # No deployment at all.
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config())
        assert result.blocked_submitted == 0
        assert not result.confirmed

    def test_retest_too_early_misses(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config(wait_days=1.0))
        assert result.blocked_submitted == 0

    def test_no_prevalidation_flow(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config(pre_validate=False))
        assert result.pre_check_accessible is None
        assert any("no pre-validation" in note for note in result.notes)
        assert result.confirmed

    def test_adult_content_cleanup_note(self):
        world, product = build_filtered_world(blocked=("Pornography",))
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(
            proxy_config(
                content_class=ContentClass.ADULT_IMAGES,
                category_label="Pornography",
                requested_category="Pornography",
            )
        )
        assert result.confirmed
        assert any("§4.6" in note for note in result.notes)
        # All test sites' adult content was taken down.
        for outcome in result.outcomes:
            site = world.websites[outcome.domain]
            assert site.content_class is ContentClass.BENIGN

    def test_multiple_rounds_counted(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config(retest_rounds=3))
        for outcome in result.outcomes:
            assert outcome.total_rounds == 3
        assert result.confirmed

    def test_timestamps_ordered(self):
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        result = study.run(proxy_config())
        assert result.submitted_at < result.retested_at

    def test_each_run_registers_fresh_domains(self):
        """Successive runs on one world never reuse a test domain (the
        §4.4 caveat: a site already submitted may be queued or
        categorized), so each monitoring round is a new measurement."""
        world, product = build_filtered_world()
        study = ConfirmationStudy(world, product, 65002)
        first = {outcome.domain for outcome in study.run(proxy_config()).outcomes}
        world.advance_days(10)
        second = {outcome.domain for outcome in study.run(proxy_config()).outcomes}
        assert len(first) == len(second) == 6
        assert first.isdisjoint(second)


class DescribeVerdictRule:
    def _result(self, submitted_blocked, submitted_total, control_blocked,
                control_total):
        outcomes = []
        for index in range(submitted_total):
            outcomes.append(
                DomainOutcome(
                    f"s{index}.info", True,
                    blocked_rounds=1 if index < submitted_blocked else 0,
                    total_rounds=1,
                )
            )
        for index in range(control_total):
            outcomes.append(
                DomainOutcome(
                    f"c{index}.info", False,
                    blocked_rounds=1 if index < control_blocked else 0,
                    total_rounds=1,
                )
            )
        from repro.world.clock import SimTime

        return ConfirmationResult(
            config=proxy_config(
                total_domains=submitted_total + control_total,
                submit_count=submitted_total,
            ),
            submitted_at=SimTime(0),
            retested_at=SimTime(100),
            pre_check_accessible=None,
            outcomes=outcomes,
            submissions=[],
        )

    def test_all_blocked_confirms(self):
        assert self._result(5, 5, 0, 5).confirmed

    def test_one_miss_still_confirms(self):
        """Table 3 Du row: 5/6 counts as confirmed."""
        assert self._result(5, 6, 0, 6).confirmed

    def test_two_misses_do_not_confirm(self):
        assert not self._result(4, 6, 0, 6).confirmed

    def test_blocked_controls_break_confirmation(self):
        """If controls are blocked too, the causal story collapses."""
        assert not self._result(6, 6, 4, 6).confirmed

    def test_small_control_noise_tolerated(self):
        assert self._result(6, 6, 2, 6).confirmed

    def test_zero_blocked_never_confirms(self):
        assert not self._result(0, 5, 0, 5).confirmed
