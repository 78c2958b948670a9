"""Crash matrix: kill the study at every journal position, resume, compare.

The durability contract under test (docs/methodology.md, "Durability &
resume"): a journaled campaign killed at *any* point — simulated by a
hook that raises right after the Nth durable journal record, which is
exactly as destructive as SIGKILL because the whole simulated world
lives in process memory — must resume from its newest valid snapshot
and produce output byte-identical to an uninterrupted run, at any
worker count, with or without an active chaos plan. Damaged durability
state (torn journal tail, corrupt snapshot, identity mismatch) degrades
to the newest valid snapshot with an explicit recovery report, and
never manufactures a censorship verdict that the clean run would not
have produced.

The matrix is quadratic-ish in study size, so it runs against a reduced
scenario (small population, one vendor, nine units). Seed coverage is
environment-tunable: ``REPRO_CRASH_SEEDS=11,12,13,...`` widens the
default two-seed sweep to the acceptance set.
"""

import os

import pytest

from repro.analysis.export import to_json
from repro.analysis.report import write_markdown_report
from repro.core.pipeline import FullStudy, PartialStudyResult
from repro.exec.checkpoint import (
    CheckpointError,
    load_latest_snapshot,
    write_snapshot,
)
from repro.exec.journal import JOURNAL_FILENAME, JournalError, read_journal
from repro.geo.cymru import WhoisService
from repro.geo.maxmind import GeoDatabase
from repro.products.registry import NETSWEEPER
from repro.scan.banner import BannerRecord
from repro.world.clock import SimTime
from repro.world.faults import FaultPlan
from repro.world.scenario import ScenarioConfig, build_scenario

_CONFIG = ScenarioConfig(population_size=300)
_PRODUCTS = [NETSWEEPER]
_CHAOS = "seed=1913,dns_timeout=0.05,reset=0.03,timeout=0.02"


def _seeds():
    spec = os.environ.get("REPRO_CRASH_SEEDS", "11,12")
    return [int(part) for part in spec.split(",") if part.strip()]


def make_study(seed, *, workers=1, fault_plan=None):
    scenario = build_scenario(seed=seed, config=_CONFIG)
    return FullStudy(
        scenario, products=_PRODUCTS, workers=workers, fault_plan=fault_plan
    )


class SimulatedKill(BaseException):
    """Raised by the after_write hook; escapes normal error handling."""


def kill_after(n):
    count = [0]

    def hook(_record):
        count[0] += 1
        if count[0] > n:
            raise SimulatedKill(f"killed after journal record {n}")

    return hook


def fingerprint_output(study, outcome, seed):
    """Everything a run publishes, as comparable bytes."""
    if isinstance(outcome, PartialStudyResult):
        report = outcome.report
        extra = "\n".join(outcome.summary_lines() + outcome.annotations())
    else:
        report = outcome
        extra = ""
    return (
        write_markdown_report(report, seed=seed)
        + to_json(study.epoch(outcome))
        + extra
    )


def run_killed(tmp_path, seed, kill_at, *, fault_plan=None):
    """Run until the simulated kill; returns True if the kill fired."""
    study = make_study(
        seed,
        fault_plan=None if fault_plan is None else FaultPlan.parse(fault_plan),
    )
    try:
        study.run(tmp_path, after_write=kill_after(kill_at))
    except SimulatedKill:
        return True
    return False


def run_resumed(tmp_path, seed, *, workers=1, fault_plan=None):
    """Resume the journal in ``tmp_path``; returns (study, outcome)."""
    study = make_study(
        seed,
        workers=workers,
        fault_plan=None if fault_plan is None else FaultPlan.parse(fault_plan),
    )
    return study, study.run(tmp_path, resume=True)


@pytest.fixture(scope="module")
def goldens():
    """Uninterrupted reference outputs, one study per seed."""
    results = {}
    for seed in _seeds():
        study = make_study(seed)
        results[seed] = fingerprint_output(study, study.run(), seed)
    return results


def journal_length(tmp_path, seed):
    """How many records an uninterrupted journaled run writes."""
    directory = tmp_path / "length-probe"
    make_study(seed).run(directory)
    records, _report = read_journal(directory / JOURNAL_FILENAME)
    return len(records)


class DescribeCrashMatrix:
    @pytest.mark.parametrize("seed", _seeds())
    def test_kill_at_every_journal_record_resumes_identically(
        self, tmp_path, goldens, seed
    ):
        total = journal_length(tmp_path, seed)
        assert total >= 9, "reduced scenario should still journal every unit"
        for kill_at in range(total):
            directory = tmp_path / f"kill-{kill_at}"
            assert run_killed(directory, seed, kill_at)
            study, outcome = run_resumed(directory, seed)
            assert fingerprint_output(study, outcome, seed) == goldens[seed], (
                f"seed {seed}: resume after kill at record {kill_at} "
                "diverged from the uninterrupted run"
            )
            assert study.last_recovery is not None
            # The journal must land complete after the resumed run.
            records, report = read_journal(directory / JOURNAL_FILENAME)
            assert records[-1].kind == "final"
            assert report.clean

    @pytest.mark.parametrize("kill_at", [3, 9, 15])
    def test_resume_with_eight_workers_matches_single_worker_golden(
        self, tmp_path, goldens, kill_at
    ):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, kill_at)
        study, outcome = run_resumed(tmp_path, seed, workers=8)
        assert fingerprint_output(study, outcome, seed) == goldens[seed]

    def test_double_crash_then_resume(self, tmp_path, goldens):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 4)
        # Second attempt dies too, further along.
        study = make_study(seed)
        with pytest.raises(SimulatedKill):
            study.run(
                tmp_path, resume=True, after_write=kill_after(6)
            )
        study, outcome = run_resumed(tmp_path, seed)
        assert fingerprint_output(study, outcome, seed) == goldens[seed]

    def test_resume_of_a_finished_run_is_a_noop_replay(
        self, tmp_path, goldens
    ):
        seed = _seeds()[0]
        study = make_study(seed)
        first = study.run(tmp_path)
        resumed, again = run_resumed(tmp_path, seed)
        assert fingerprint_output(study, first, seed) == goldens[seed]
        assert fingerprint_output(resumed, again, seed) == goldens[seed]
        assert resumed.last_recovery.units_replayed == []


class DescribeDamagedDurabilityState:
    def test_torn_journal_tail_recovers_with_report(self, tmp_path, goldens):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 7)
        journal = tmp_path / JOURNAL_FILENAME
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-9])  # shear the final record mid-line
        study, outcome = run_resumed(tmp_path, seed)
        assert fingerprint_output(study, outcome, seed) == goldens[seed]
        assert any("torn tail" in note for note in study.last_recovery.notes)

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path, goldens):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 12)
        snapshots = sorted(tmp_path.glob("snapshot-*.ckpt"))
        assert len(snapshots) >= 2
        snapshots[-1].write_text("not a snapshot")
        study, outcome = run_resumed(tmp_path, seed)
        assert fingerprint_output(study, outcome, seed) == goldens[seed]
        assert study.last_recovery.snapshots_rejected
        assert study.last_recovery.snapshot_used == snapshots[-2].name

    def test_all_snapshots_corrupt_replays_from_scratch(
        self, tmp_path, goldens
    ):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 12)
        for path in tmp_path.glob("snapshot-*.ckpt"):
            path.write_text("garbage")
        study, outcome = run_resumed(tmp_path, seed)
        assert fingerprint_output(study, outcome, seed) == goldens[seed]
        assert study.last_recovery.snapshot_used is None

    def test_identity_mismatch_is_refused(self, tmp_path):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 5)
        other = make_study(seed + 1000)
        with pytest.raises(CheckpointError, match="different"):
            other.run(tmp_path, resume=True)

    def test_existing_journal_without_resume_is_refused(self, tmp_path):
        seed = _seeds()[0]
        assert run_killed(tmp_path, seed, 2)
        with pytest.raises(JournalError, match="resume"):
            make_study(seed).run(tmp_path)


def older_lookup_caches(seed):
    """Lookup-cache contents as older versions captured them under a
    study snapshot's ``"caches"`` key: country codes and whois records
    by address, DNS answers by name, banner-query result lists."""
    world = build_scenario(seed=seed, config=_CONFIG).world
    geo = GeoDatabase.build_from_world(world)
    whois = WhoisService.build_from_world(world)
    sites = sorted(world.websites.values(), key=lambda site: site.domain)[:5]
    banner = BannerRecord(
        ip=sites[0].ip,
        port=80,
        status_line="HTTP/1.1 200 OK",
        headers_text="Server: WebAdmin",
        html_title="Netsweeper WebAdmin",
        hostname=sites[0].domain,
        observed_at=SimTime(0),
        country_code=geo.country_code(sites[0].ip) or "",
    )
    return {
        "geo": {site.ip: geo.country_code(site.ip) for site in sites},
        "asn": {site.ip: whois.lookup(site.ip) for site in sites},
        "dns": {site.domain: site.ip for site in sites},
        "banner": {"webadmin": [banner], "webadmin country:zz": []},
    }


class DescribeOlderSnapshots:
    def test_snapshot_with_lookup_caches_resumes_identically(
        self, tmp_path, goldens
    ):
        # Snapshots written before the §3 lookups lost their memo
        # tables carry those tables; a resume ignores them.
        seed = _seeds()[0]
        journal = tmp_path / "journal"
        assert run_killed(journal, seed, 7)
        identity = make_study(seed).config_fingerprint()
        snapshot = load_latest_snapshot(journal, identity_fingerprint=identity)
        state = dict(snapshot.state, caches=older_lookup_caches(seed))
        write_snapshot(
            journal, seq=snapshot.seq, identity_fingerprint=identity,
            state=state,
        )
        resumed = make_study(seed)
        outcome = resumed.run(journal, resume=True)
        assert resumed.last_recovery.snapshot_used == snapshot.path.name
        assert fingerprint_output(resumed, outcome, seed) == goldens[seed]
        uninterrupted = make_study(seed)
        expected = uninterrupted.commit_epoch(
            tmp_path / "uninterrupted", uninterrupted.run()
        )
        assert (
            resumed.commit_epoch(tmp_path / "resumed", outcome).epoch_id
            == expected.epoch_id
        )


class DescribeChaosCrashResume:
    """PR 3's fault injection composed with crash + resume."""

    @pytest.fixture(scope="class")
    def chaos_golden(self):
        seed = _seeds()[0]
        study = make_study(seed, fault_plan=FaultPlan.parse(_CHAOS))
        outcome = study.run()
        return seed, fingerprint_output(study, outcome, seed), outcome

    @pytest.mark.parametrize("kill_at", [2, 8, 14])
    def test_chaos_plus_crash_plus_resume_matches_chaos_golden(
        self, tmp_path, chaos_golden, kill_at
    ):
        seed, golden_bytes, golden = chaos_golden
        assert run_killed(tmp_path, seed, kill_at, fault_plan=_CHAOS)
        study, outcome = run_resumed(tmp_path, seed, fault_plan=_CHAOS)
        assert isinstance(outcome, PartialStudyResult)
        assert fingerprint_output(study, outcome, seed) == golden_bytes
        # Belt and braces on the headline safety property: the resumed
        # chaotic run confirms exactly what the uninterrupted chaotic
        # run confirms — recovery never manufactures a verdict.
        assert (
            outcome.report.confirmed_pairs()
            == golden.report.confirmed_pairs()
        )

    def test_chaos_golden_never_exceeds_clean_verdicts(self, chaos_golden):
        seed, _bytes, chaotic = chaos_golden
        clean = make_study(seed).run()
        assert set(chaotic.report.confirmed_pairs()) <= set(
            clean.confirmed_pairs()
        )
