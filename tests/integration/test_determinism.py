"""Integration: the whole campaign is a pure function of (seed, config)."""

from __future__ import annotations

from repro import FullStudy, Metrics, build_scenario
from repro.analysis.export import to_json
from repro.analysis.report import write_markdown_report


def _fingerprint(seed: int):
    scenario = build_scenario(seed=seed)
    confirmations = []
    probe = None
    for unit in FullStudy(scenario).plan():
        if unit.stage == "confirm":
            confirmations.append(unit.runner())
        elif unit.stage == "probe":
            probe = unit.runner()
    return (
        tuple(
            (
                r.config.product_name,
                r.config.isp_name,
                r.blocked_submitted,
                r.blocked_control,
                r.confirmed,
                tuple(o.domain for o in r.outcomes),
            )
            for r in confirmations
        ),
        tuple(probe.blocked_names),
    )


class DescribeDeterminism:
    # Same-seed repeatability is pinned by tests/golden/test_study_pins.py.
    def test_different_seed_different_domains(self):
        a, _pa = _fingerprint(77)
        b, _pb = _fingerprint(78)
        domains_a = [row[5] for row in a]
        domains_b = [row[5] for row in b]
        assert domains_a != domains_b

    def test_shape_holds_across_seeds(self):
        """Any seed reproduces the qualitative findings, even when the
        exact Table 3 cells wobble by one submission."""
        for seed in (101, 202):
            rows, probe = _fingerprint(seed)
            by_key = {(r[0], r[1]): r for r in rows}
            # SmartFilter confirms in Saudi + Etisalat; Blue Coat never.
            assert by_key[("McAfee SmartFilter", "bayanat")][4]
            assert by_key[("McAfee SmartFilter", "nournet")][4]
            assert not by_key[("Blue Coat", "etisalat")][4]
            assert not by_key[("Blue Coat", "ooredoo")][4]
            assert not by_key[("McAfee SmartFilter", "ooredoo")][4]
            # The probe always finds exactly the five policy categories.
            assert set(probe) == {
                "Adult Images", "Phishing", "Pornography",
                "Proxy Anonymizer", "Search Keywords",
            }


class DescribeWorkerCountInvariance:
    """The executor contract: workers change wall clock, never results."""

    def test_full_study_byte_identical_at_any_worker_count(self):
        metrics = Metrics()
        one = FullStudy(build_scenario(), workers=1)
        eight = FullStudy(build_scenario(), workers=8, metrics=metrics)
        sequential, parallel = one.run(), eight.run()
        assert write_markdown_report(
            sequential, seed=2013
        ) == write_markdown_report(parallel, seed=2013)
        assert to_json(one.epoch(sequential)) == to_json(eight.epoch(parallel))
        # The parallel run really did fan out (not silently inline).
        assert metrics.count("measure.tasks") > 0
        assert metrics.count("scan.tasks") > 0
        assert metrics.count("locate.tasks") > 0
        assert metrics.count("validate.tasks") > 0

    def test_identification_invariant_under_workers(self):
        def country_map(workers):
            study = FullStudy(build_scenario(seed=91), workers=workers)
            report = study.run_identification()
            return (
                report.country_map(),
                report.queries_issued,
                [
                    (str(i.ip), i.product, i.country_code, i.asn)
                    for i in report.installations
                ],
            )

        assert country_map(1) == country_map(5)
