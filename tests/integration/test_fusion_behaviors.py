"""Integration tests: middlebox behaviors only fusion classifies.

Each new :class:`BlockMode` — HTTP-200 plain censorship pages,
SNI-based filtering, injected RSTs, throttling — is provably
misclassified by the preserved legacy if-chain and correctly classified
by the :class:`VerdictEngine`. The legacy assertions are load-bearing:
if a behavior stops fooling the legacy path, the scenario no longer
demonstrates what fusion adds, and the test should be rethought.

Also covers the persistence contract: fused confidences reach stored
epochs only under ``record_confidence``, identically at any worker
count, and the paper-default epoch id never moves.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import FullStudy, run_full_study
from repro.measure.classifiers import VerdictEngine
from repro.measure.verdict import Verdict
from repro.middlebox.deploy import deploy
from repro.middlebox.policy import BlockMode
from repro.net.fetch import FetchOutcome
from repro.net.url import Url
from repro.products.smartfilter import make_smartfilter
from repro.store import ResultsStore
from repro.world.rng import derive_rng
from repro.world.scenario import build_scenario

from tests.conftest import make_content_oracle, make_mini_world
from tests.integration.legacy_compare import legacy_compare

PROXY_HTTP = "http://free-proxy.example.com/"
PROXY_HTTPS = "https://free-proxy.example.com/"


def behavior_world(block_mode: BlockMode):
    """A mini world whose testnet blocks Anonymizers via ``block_mode``."""
    world = make_mini_world()
    product = make_smartfilter(
        make_content_oracle(world), derive_rng(1, "fb-sf")
    )
    box = deploy(world, world.isps["testnet"], product, ["Anonymizers"])
    box.policy.block_mode = block_mode
    product.database.add(
        "free-proxy.example.com",
        product.taxonomy.by_name("Anonymizers"),
        world.now,
    )
    return world, box


def field_and_lab(world, url: str):
    parsed = Url.parse(url)
    return (
        world.vantage("testnet").fetch(parsed),
        world.lab_vantage().fetch(parsed),
    )


class DescribeHttp200PlainCensorship:
    """A plain 200 page that even spoofs the origin's title."""

    def test_legacy_chain_is_fooled(self):
        world, _box = behavior_world(BlockMode.HTTP200_PLAIN)
        field, lab = field_and_lab(world, PROXY_HTTP)
        assert field.ok  # HTTP 200, spoofed title: nothing for the chain
        assert legacy_compare(field, lab).verdict is Verdict.ACCESSIBLE

    def test_fusion_sees_the_alien_body(self):
        world, _box = behavior_world(BlockMode.HTTP200_PLAIN)
        field, lab = field_and_lab(world, PROXY_HTTP)
        comparison = VerdictEngine().compare(field, lab)
        assert comparison.verdict is Verdict.BLOCKED_UNATTRIBUTED
        assert "page-delta" in comparison.signal_names()
        assert comparison.confidence >= 0.7


class DescribeSniFiltering:
    """TLS handshakes torn down on the server name; HTTP untouched."""

    def test_legacy_chain_shrugs_at_the_tls_reset(self):
        world, _box = behavior_world(BlockMode.SNI_RESET)
        field, lab = field_and_lab(world, PROXY_HTTPS)
        assert field.outcome is FetchOutcome.TLS_RESET
        verdict = legacy_compare(field, lab).verdict
        assert verdict is Verdict.ANOMALY
        assert not verdict.is_blocked

    def test_fusion_attributes_the_sni_reset(self):
        world, _box = behavior_world(BlockMode.SNI_RESET)
        field, lab = field_and_lab(world, PROXY_HTTPS)
        comparison = VerdictEngine().compare(field, lab)
        assert comparison.verdict is Verdict.BLOCKED_SNI
        assert "sni-filter" in comparison.signal_names()

    def test_plain_http_sails_past_an_sni_filter(self):
        """No server name to match on: both paths agree on ACCESSIBLE,
        and the passthrough never inflates the block counter."""
        world, box = behavior_world(BlockMode.SNI_RESET)
        field, lab = field_and_lab(world, PROXY_HTTP)
        assert legacy_compare(field, lab).verdict is Verdict.ACCESSIBLE
        assert VerdictEngine().compare(field, lab).verdict is (
            Verdict.ACCESSIBLE
        )
        assert box.block_count == 0


class DescribeRstInjection:
    """An injected RST that lost the race with the origin's content."""

    def test_legacy_chain_sees_only_the_intact_page(self):
        world, _box = behavior_world(BlockMode.RST_INJECT)
        field, lab = field_and_lab(world, PROXY_HTTP)
        assert field.ok and field.rst_injected
        assert legacy_compare(field, lab).verdict is Verdict.ACCESSIBLE

    def test_fusion_reads_the_wire_evidence(self):
        world, _box = behavior_world(BlockMode.RST_INJECT)
        field, lab = field_and_lab(world, PROXY_HTTP)
        comparison = VerdictEngine().compare(field, lab)
        assert comparison.verdict is Verdict.BLOCKED_RESET
        assert "rst-injection" in comparison.signal_names()


class DescribeThrottling:
    """The page arrives intact but pathologically slowly."""

    def test_legacy_chain_cannot_see_time(self):
        world, _box = behavior_world(BlockMode.THROTTLE)
        field, lab = field_and_lab(world, PROXY_HTTP)
        assert field.ok
        assert field.elapsed_ms > lab.elapsed_ms
        assert legacy_compare(field, lab).verdict is Verdict.ACCESSIBLE

    def test_fusion_reads_the_timing_delta(self):
        world, _box = behavior_world(BlockMode.THROTTLE)
        field, lab = field_and_lab(world, PROXY_HTTP)
        comparison = VerdictEngine().compare(field, lab)
        assert comparison.verdict is Verdict.THROTTLED
        assert "throttle" in comparison.signal_names()

    def test_throttling_counts_as_interference(self):
        world, box = behavior_world(BlockMode.THROTTLE)
        field_and_lab(world, PROXY_HTTP)
        assert box.block_count == 1

    def test_unthrottled_site_keeps_identical_timings(self):
        world, _box = behavior_world(BlockMode.THROTTLE)
        field, lab = field_and_lab(world, "http://daily-news.example.com/")
        assert field.elapsed_ms == lab.elapsed_ms
        assert VerdictEngine().compare(field, lab).verdict is (
            Verdict.ACCESSIBLE
        )


class DescribeDefaultModeEquivalence:
    """On the paper's default behaviors the two paths agree."""

    @pytest.mark.parametrize(
        "mode", [BlockMode.BLOCKPAGE, BlockMode.RESET, BlockMode.DROP]
    )
    def test_fusion_matches_legacy_on_paper_modes(self, mode):
        world, _box = behavior_world(mode)
        for url in (PROXY_HTTP, "http://daily-news.example.com/"):
            field, lab = field_and_lab(world, url)
            assert (
                VerdictEngine().compare(field, lab).verdict
                is legacy_compare(field, lab).verdict
            )


class DescribeConfidencePersistence:
    """record_confidence: worker-invariant, opt-in, id-stable otherwise."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fusion-stores")
        products = ["McAfee SmartFilter"]
        run_full_study(
            products=products,
            store_dir=root / "default",
        )
        for name, workers in (("confident-w1", 1), ("confident-w8", 8)):
            study = FullStudy(
                build_scenario(),
                products=products,
                workers=workers,
                record_confidence=True,
            )
            study.commit_epoch(root / name, study.run())
        return {
            name: ResultsStore(root / name)
            for name in ("default", "confident-w1", "confident-w8")
        }

    def test_confidence_epochs_are_worker_invariant(self, stores):
        """Workers 1 and 8 land on the same epoch id — the fusion
        tie-breaks are deterministic, not arrival-order luck."""
        assert (
            stores["confident-w1"].epoch_ids()
            == stores["confident-w8"].epoch_ids()
        )

    def test_recording_confidence_changes_the_epoch_id(self, stores):
        assert (
            stores["default"].epoch_ids()
            != stores["confident-w1"].epoch_ids()
        )

    def test_default_rows_carry_no_confidence_keys(self, stores):
        store = stores["default"]
        rows = store.records(store.epoch_ids()[0], "confirmations")
        assert rows
        for row in rows:
            assert "confidence" not in row
            assert "signals" not in row

    def test_confident_rows_carry_the_breakdown(self, stores):
        store = stores["confident-w1"]
        epoch = store.epoch_ids()[0]
        for kind in ("confirmations", "characterizations"):
            rows = store.records(epoch, kind)
            assert rows
            for row in rows:
                assert 0.0 <= row["confidence"] <= 1.0
                assert isinstance(row["signals"], dict)
        # Confirmed blocks come from the block-page classifier.
        confirmed = [
            row
            for row in store.records(epoch, "confirmations")
            if row["confirmed"]
        ]
        assert confirmed
        assert any("blockpage" in row["signals"] for row in confirmed)
