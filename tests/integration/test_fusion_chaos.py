"""Chaos acceptance for the fusion path: faults never manufacture blocks.

The PR-3 invariant, restated for the classifier stack: an injected
infrastructure fault may cost a data point (``Verdict.INSUFFICIENT``)
but must never reach a classifier as wire evidence — no chaos seed may
turn a transient reset into BLOCKED_RESET, an NXDOMAIN hiccup into
DNS_TAMPERED, or a retry delay into THROTTLED. The property is checked
explicitly through :class:`VerdictEngine` across every middlebox
behavior, including the four that only fusion classifies.
"""

from __future__ import annotations

import pytest

from repro.exec.metrics import Metrics
from repro.exec.resilience import ResilienceConfig, ResilientRunner
from repro.measure.classifiers import VerdictEngine
from repro.measure.client import MeasurementClient
from repro.measure.verdict import Verdict
from repro.middlebox.policy import BlockMode
from repro.net.url import Url
from repro.world.faults import FaultPlan

from tests.integration.test_fusion_behaviors import behavior_world

MINI_URLS = (
    "http://free-proxy.example.com/",
    "https://free-proxy.example.com/",
    "http://daily-news.example.com/",
)

#: Rates high enough that 24 seeds certainly inject faults into the
#: three-URL campaign (non-vacuity is asserted below, not assumed).
CHAOS_RATES = dict(
    dns_timeout_rate=0.08,
    nxdomain_rate=0.05,
    reset_rate=0.06,
    timeout_rate=0.05,
)

#: Every behavior the fusion engine must classify, with the verdict the
#: blocked URL is expected to earn when no fault interferes.
BEHAVIOR_TRUTH = {
    BlockMode.BLOCKPAGE: Verdict.BLOCKED_BLOCKPAGE,
    BlockMode.HTTP200_PLAIN: Verdict.BLOCKED_UNATTRIBUTED,
    BlockMode.RST_INJECT: Verdict.BLOCKED_RESET,
    BlockMode.THROTTLE: Verdict.THROTTLED,
}


def fusion_verdicts(block_mode: BlockMode, plan=None):
    """Measure the mini URLs through an explicit fusion engine."""
    world, _box = behavior_world(block_mode)
    runner = None
    if plan is not None:
        world.install_faults(plan)
        runner = ResilientRunner(
            ResilienceConfig(max_retries=1),
            clock=lambda: world.now,
            metrics=Metrics(),
        )
    client = MeasurementClient(
        world.vantage("testnet"),
        world.lab_vantage(),
        engine=VerdictEngine(),
        resilience=runner,
        stage="measure",
        endpoint="testnet/fusion-chaos",
    )
    return {
        url: client.test_url(Url.parse(url)).comparison
        for url in MINI_URLS
    }


class DescribeFusionNeverWrong:
    @pytest.mark.parametrize("mode", sorted(BEHAVIOR_TRUTH, key=str))
    def test_no_seed_fools_the_fusion_engine(self, mode):
        """Property over 24 seeds x every behavior: chaos comparison is
        either the fault-free truth or an explicit INSUFFICIENT."""
        truth = {
            url: c.verdict for url, c in fusion_verdicts(mode).items()
        }
        assert truth["http://free-proxy.example.com/"] is (
            BEHAVIOR_TRUTH[mode]
        )
        assert truth["http://daily-news.example.com/"] is (
            Verdict.ACCESSIBLE
        )

        degraded_seeds = 0
        for seed in range(24):
            plan = FaultPlan(seed=seed, **CHAOS_RATES)
            chaos = fusion_verdicts(mode, plan)
            for url, comparison in chaos.items():
                assert comparison.verdict in (
                    truth[url],
                    Verdict.INSUFFICIENT,
                ), (
                    f"seed {seed} / {mode}: {url} gave"
                    f" {comparison.verdict}, truth {truth[url]}"
                )
                if comparison.verdict is Verdict.INSUFFICIENT:
                    # Quarantined probes carry no classifier evidence:
                    # the fault stopped short of the fusion stage.
                    assert comparison.signals == ()
            if any(
                c.verdict is Verdict.INSUFFICIENT for c in chaos.values()
            ):
                degraded_seeds += 1
        assert degraded_seeds > 0

    def test_saturated_faults_never_read_as_tampering(self):
        """Even a 100% NXDOMAIN plan must not wake the DNS classifier."""
        plan = FaultPlan(seed=3, nxdomain_rate=1.0)
        chaos = fusion_verdicts(BlockMode.BLOCKPAGE, plan)
        for comparison in chaos.values():
            assert comparison.verdict is Verdict.INSUFFICIENT
            assert comparison.verdict is not Verdict.DNS_TAMPERED
            assert not comparison.verdict.is_blocked
            assert "dns-tampering" not in comparison.signal_names()

    def test_sni_behavior_survives_chaos_on_https(self):
        """SNI filtering keeps its attribution under a live fault plan
        wherever the probe is not quarantined outright."""
        world_truth = fusion_verdicts(BlockMode.SNI_RESET)
        https = "https://free-proxy.example.com/"
        assert world_truth[https].verdict is Verdict.BLOCKED_SNI
        for seed in range(24):
            plan = FaultPlan(seed=seed, **CHAOS_RATES)
            comparison = fusion_verdicts(BlockMode.SNI_RESET, plan)[https]
            assert comparison.verdict in (
                Verdict.BLOCKED_SNI,
                Verdict.INSUFFICIENT,
            )
