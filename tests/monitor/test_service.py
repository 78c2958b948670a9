"""MonitorService tests: the supervised loop end-to-end on the mini
scenario — journaled rounds, flap damping, the never-manufacture gap
invariant, degraded-mode buffering, and the in-process kill matrix
(byte-identical resume at every journal position)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.exec.checkpoint import (
    CheckpointError,
    decode_state,
    list_snapshots,
    load_latest_snapshot,
)
from repro.exec.journal import JOURNAL_FILENAME, JournalError, read_journal
from repro.monitor import (
    ALERTS_FILENAME,
    AlertConfig,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
    ScheduleConfig,
    SupervisorConfig,
    read_alerts,
    read_status,
)
from repro.query import QueryEngine, RecordFilter
from repro.store import ResultsStore, StoreError
from repro.world.faults import FaultPlan

from tests.monitor.conftest import (
    ISP,
    PRODUCT,
    TARGET_KEY,
    mini_config,
    mini_scenario,
)

SCHEDULE = ScheduleConfig(
    base_interval_days=10.0,
    min_interval_days=2.0,
    max_interval_days=40.0,
    retry_interval_days=1.0,
    quarantine_after=2,
)
ALERTS = AlertConfig(hysteresis_rounds=2, flap_window=6, flap_threshold=3)


def make_service(
    tmp_path,
    *,
    subdir="mon",
    fault_plan=None,
    before_round=None,
    after_write=None,
    max_retries=1,
    seed=7,
):
    return MonitorService(
        tmp_path / subdir,
        tmp_path / "store",
        scenario_factory=lambda: mini_scenario(seed),
        targets=[MonitorTarget(mini_config())],
        config=MonitorConfig(
            schedule=SCHEDULE,
            supervisor=SupervisorConfig(max_retries=max_retries),
            alerts=ALERTS,
        ),
        fault_plan=fault_plan,
        before_round=before_round,
        after_write=after_write,
    )


def toggle_censorship(service, round_index, key):
    """Flip the deployment on/off per round (drives transitions)."""
    service.scenario.deployments[f"{ISP}-sf"].enabled = round_index % 2 == 0


class DescribeBasicOperation:
    def test_rounds_commit_epochs_and_journal(self, tmp_path):
        service = make_service(tmp_path)
        summary = service.run(rounds=3)
        assert summary.committed == 3 and summary.gaps == 0
        assert not summary.degraded
        assert len(ResultsStore(tmp_path / "store").epoch_ids()) == 3
        records, report = read_journal(tmp_path / "mon" / JOURNAL_FILENAME)
        assert report.clean
        kinds = [record.kind for record in records]
        assert kinds[0] == "begin" and kinds[-1] == "final"
        assert kinds.count("round-commit") == 3
        assert kinds.count("snapshot") == 3

    def test_status_fold_matches_run(self, tmp_path):
        service = make_service(tmp_path)
        service.run(rounds=3)
        status = read_status(tmp_path / "mon")
        assert status["state"] == "FINISHED"
        assert status["rounds"] == 3 and status["gaps"] == 0
        assert [e["state"] for e in status["timeline"]] == ["confirmed"] * 3
        target = status["targets"][TARGET_KEY]
        assert target["rounds_run"] == 3
        # Stability decayed the 10-day base: 10 * 1.5^3 days.
        assert target["interval_days"] == 33.75

    def test_round_epochs_carry_longitudinal_identity(self, tmp_path):
        service = make_service(tmp_path)
        service.run(rounds=2)
        store = ResultsStore(tmp_path / "store")
        selected = QueryEngine(store).epoch_ids(RecordFilter(isp=ISP))
        assert selected == store.epoch_ids()

    def test_table3_round_epoch_is_pinned(self, tmp_path):
        """Round 0 of a Table 3 pair on the seed-2013 world commits one
        fixed epoch id: the round's measurement and the bytes
        ``confirmation_epoch`` builds from it must not drift."""
        from repro.analysis.paper_data import PAPER_TABLE3
        from repro.core.pipeline import config_for_row
        from repro.world.scenario import build_scenario

        row = next(
            row
            for row in PAPER_TABLE3
            if (row.product, row.isp_key) == ("Blue Coat", "etisalat")
        )
        MonitorService(
            tmp_path / "mon",
            tmp_path / "store",
            scenario_factory=lambda: build_scenario(seed=2013),
            targets=[MonitorTarget(config_for_row(row))],
        ).run(rounds=1)
        assert ResultsStore(tmp_path / "store").epoch_ids() == [
            "e8aa93b23f2bf175c0dbca3511cacc11a0385148065556c15d61ed8f7fd6097c"
        ]

    def test_transitions_shorten_the_interval(self, tmp_path):
        service = make_service(tmp_path, before_round=toggle_censorship)
        service.run(rounds=3)
        target = read_status(tmp_path / "mon")["targets"][TARGET_KEY]
        # Round 1 is a stable baseline (10 -> 15 days); rounds 2 and 3
        # each flip the state and halve the interval: 7.5 -> 3.75 days.
        assert target["interval_days"] == 3.75
        assert target["transitions"] == 2

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        make_service(tmp_path).run(rounds=1)
        with pytest.raises(JournalError):
            make_service(tmp_path).run(rounds=2)

    def test_resume_refuses_identity_mismatch(self, tmp_path):
        make_service(tmp_path).run(rounds=1)
        with pytest.raises(CheckpointError):
            make_service(tmp_path, seed=8).run(rounds=2, resume=True)

    def test_needs_targets_and_rounds(self, tmp_path):
        with pytest.raises(ValueError):
            MonitorService(
                tmp_path / "m",
                tmp_path / "s",
                scenario_factory=mini_scenario,
                targets=[],
            )
        with pytest.raises(ValueError):
            make_service(tmp_path).run(rounds=0)


class DescribeFlapDamping:
    def test_flapping_pair_emits_exactly_one_alert(self, tmp_path):
        service = make_service(tmp_path, before_round=toggle_censorship)
        summary = service.run(rounds=6)
        assert summary.committed == 6
        alerts = read_alerts(tmp_path / "mon" / ALERTS_FILENAME)
        assert [a["kind"] for a in alerts] == ["flapping"]
        assert read_status(tmp_path / "mon")["alerts"]["by_kind"] == {
            "flapping": 1
        }


class DescribeNeverManufacture:
    def test_total_faults_yield_gaps_only(self, tmp_path):
        service = make_service(
            tmp_path,
            fault_plan=FaultPlan.parse("seed=3,dns_timeout=1.0"),
        )
        summary = service.run(rounds=6)
        # quarantine_after=2 stops the single target after two gaps.
        assert summary.committed == 0 and summary.gaps == 2
        assert summary.quarantined == [TARGET_KEY]
        assert ResultsStore(tmp_path / "store").epoch_ids() == []
        assert read_alerts(tmp_path / "mon" / ALERTS_FILENAME) == []
        status = read_status(tmp_path / "mon")
        assert all(e["state"] == "gap" for e in status["timeline"])
        assert status["quarantined"] == [TARGET_KEY]
        records, _ = read_journal(tmp_path / "mon" / JOURNAL_FILENAME)
        assert [r.kind for r in records].count("quarantine") == 1
        # The gap records carry the failure classification, not a verdict.
        gap = next(r for r in records if r.kind == "round-gap")
        assert gap.payload["transient"] is True
        assert "state" not in gap.payload

    def test_transient_chaos_retries_match_clean_run(self, tmp_path):
        """A plan whose faults the retry budget absorbs changes nothing:
        same epochs, same timeline as the fault-free run."""
        clean = make_service(tmp_path, subdir="clean")
        clean.run(rounds=3)
        chaotic = make_service(
            tmp_path,
            subdir="chaotic",
            fault_plan=FaultPlan.parse("seed=3,dns_timeout=0.01"),
            max_retries=3,
        )
        chaotic.run(rounds=3)
        # Both committed into the same store: identical results dedup to
        # identical epoch ids (content-addressed), so a fabricated or
        # perturbed result would show up as extra epochs.
        clean_status = read_status(tmp_path / "clean")
        chaos_status = read_status(tmp_path / "chaotic")
        committed = [
            e["state"] for e in chaos_status["timeline"] if e["state"] != "gap"
        ]
        assert set(committed) <= {"confirmed", "not_confirmed"}
        assert [e["state"] for e in clean_status["timeline"]] == [
            "confirmed"
        ] * 3


class FlakyStore:
    """Store wrapper whose commits fail until told otherwise."""

    def __init__(self, inner):
        self.inner = inner
        self.failing = True
        self.attempts = 0

    def commit(self, epoch):
        self.attempts += 1
        if self.failing:
            raise StoreError("simulated unwritable store")
        return self.inner.commit(epoch)


class DescribeDegradedMode:
    def test_rounds_buffer_while_store_down_then_flush(self, tmp_path):
        service = make_service(tmp_path)
        flaky = FlakyStore(service.store)
        service.store = flaky
        summary = service.run(rounds=3)
        assert summary.committed == 3  # rounds ran; epochs buffered
        assert summary.buffered == 3 and summary.degraded
        assert ResultsStore(tmp_path / "store").epoch_ids() == []
        status = read_status(tmp_path / "mon")
        assert status["state"] == "DEGRADED"
        assert status["buffered"] == 3
        assert all(e["epoch"] is None for e in status["timeline"])

        # The store recovers; a resumed service flushes the backlog.
        resumed = make_service(tmp_path)
        resumed_summary = resumed.run(rounds=3, resume=True)
        assert resumed_summary.buffered == 0
        assert len(ResultsStore(tmp_path / "store").epoch_ids()) == 3
        recovered = read_status(tmp_path / "mon")
        assert recovered["state"] == "FINISHED"
        assert recovered["buffered"] == 0
        assert len(recovered["flushed_epochs"]) == 3

    def test_flush_preserves_commit_order(self, tmp_path):
        direct = make_service(tmp_path, subdir="direct")
        direct.run(rounds=3)
        direct_epochs = ResultsStore(tmp_path / "store").epoch_ids()

        buffered = make_service(tmp_path, subdir="buffered")
        buffered.store = FlakyStore(
            ResultsStore(tmp_path / "store2")
        )
        buffered.run(rounds=2)
        resumed = MonitorService(
            tmp_path / "buffered",
            tmp_path / "store2",
            scenario_factory=lambda: mini_scenario(7),
            targets=[MonitorTarget(mini_config())],
            config=MonitorConfig(
                schedule=SCHEDULE,
                supervisor=SupervisorConfig(max_retries=1),
                alerts=ALERTS,
            ),
        )
        resumed.run(rounds=3, resume=True)
        assert (
            ResultsStore(tmp_path / "store2").epoch_ids() == direct_epochs
        )


def campaign_domains(service):
    return [
        domain
        for domain in service.scenario.world.websites
        if domain not in service._baseline_domains
    ]


def drop_first_campaign_site(service, round_index, key):
    """Before round 3, unregister a site earlier snapshots hold."""
    if round_index == 3:
        service.scenario.world.unregister_website(campaign_domains(service)[0])


class DescribeSiteFrames:
    def test_each_snapshot_frames_only_the_new_sites(self, tmp_path):
        service = make_service(tmp_path)
        service.run(rounds=3)
        assert service._site_frames.frame_count == 3

    def test_dropped_site_reframes_and_resumes_identically(self, tmp_path):
        direct = make_service(
            tmp_path, subdir="direct", before_round=drop_first_campaign_site
        )
        direct.store = ResultsStore(tmp_path / "store-direct")
        direct.run(rounds=6)

        stopped = make_service(
            tmp_path, subdir="stopped", before_round=drop_first_campaign_site
        )
        stopped.store = ResultsStore(tmp_path / "store-stopped")
        stopped.run(rounds=4)
        # Rounds 0-2 each added a frame; round 3 dropped a framed site,
        # so its snapshot pickled every site again as one frame.
        assert stopped._site_frames.frame_count == 1
        snapshot = load_latest_snapshot(
            tmp_path / "stopped",
            identity_fingerprint=stopped.config_fingerprint(),
        )
        assert snapshot.seq == 4
        assert [
            site.domain for site in snapshot.state["world"]["added_sites"]
        ] == campaign_domains(stopped)

        resumed = make_service(
            tmp_path, subdir="stopped", before_round=drop_first_campaign_site
        )
        resumed.store = ResultsStore(tmp_path / "store-stopped")
        resumed.run(rounds=6, resume=True)
        assert resumed.last_recovery.snapshot_used == snapshot.path.name
        assert (
            ResultsStore(tmp_path / "store-stopped").epoch_ids()
            == ResultsStore(tmp_path / "store-direct").epoch_ids()
        )
        assert (
            read_status(tmp_path / "stopped")["timeline"]
            == read_status(tmp_path / "direct")["timeline"]
        )
        assert (tmp_path / "stopped" / ALERTS_FILENAME).read_bytes() == (
            tmp_path / "direct" / ALERTS_FILENAME
        ).read_bytes()
        assert campaign_domains(resumed) == campaign_domains(direct)


def framed_lists(state):
    """Each list a monitor snapshot frames, by name, from a state."""
    product = state["products"][PRODUCT]
    return {
        "sites": state["world"]["added_sites"],
        "database": product["database"],
        "decided": product["portal"]["decided"],
        "timeline": state["timeline"],
    }


def live_lists(service):
    return framed_lists(service.capture_state())


def frame_counts(service):
    return {
        "sites": service._site_frames.frame_count,
        "database": service._database_frames[PRODUCT].frame_count,
        "decided": service._decided_frames[PRODUCT].frame_count,
        "timeline": service._timeline_frames.frame_count,
    }


def pickled_items(items):
    return [pickle.dumps(item) for item in items]


class DescribeListFrames:
    """Every list a snapshot only appends to is framed, not just sites.

    The services run with no fault plan: a retried round rebuilds the
    vendor database, and the next snapshot frames its delta anew.
    """

    def test_each_list_frames_once_per_snapshot_it_grew_in(self, tmp_path):
        service = make_service(tmp_path)
        service.run(rounds=3)
        states = [
            framed_lists(decode_state(json.loads(path.read_text())))
            for path in list_snapshots(tmp_path / "mon")
        ]
        assert len(states) == 3
        for name, frames in frame_counts(service).items():
            # Each round here adds sites, accepted submissions and a
            # timeline entry, so every list grew in every snapshot.
            sizes = [len(state[name]) for state in states]
            assert 0 < sizes[0] < sizes[1] < sizes[2], name
            assert frames == 3, name

    def test_newest_snapshot_decodes_to_the_live_lists(self, tmp_path):
        service = make_service(tmp_path)
        service.run(rounds=3)
        snapshot = load_latest_snapshot(
            tmp_path / "mon", identity_fingerprint=service.config_fingerprint()
        )
        assert snapshot.seq == 3
        saved = framed_lists(snapshot.state)
        for name, items in live_lists(service).items():
            assert len(items) > 0, name
            assert pickled_items(saved[name]) == pickled_items(items), name

    def test_resume_from_round_two_equals_the_uninterrupted_run(
        self, tmp_path
    ):
        direct = make_service(tmp_path, subdir="direct")
        direct.store = ResultsStore(tmp_path / "store-direct")
        direct.run(rounds=4)

        make_service(tmp_path, subdir="stopped").run(rounds=2)
        resumed = make_service(tmp_path, subdir="stopped")
        resumed.run(rounds=4, resume=True)
        assert resumed.last_recovery.snapshot_used == list_snapshots(
            tmp_path / "stopped"
        )[1].name
        assert (
            ResultsStore(tmp_path / "store").epoch_ids()
            == ResultsStore(tmp_path / "store-direct").epoch_ids()
        )
        assert (
            read_status(tmp_path / "stopped")["timeline"]
            == read_status(tmp_path / "direct")["timeline"]
        )
        assert (tmp_path / "stopped" / ALERTS_FILENAME).read_bytes() == (
            tmp_path / "direct" / ALERTS_FILENAME
        ).read_bytes()
        resumed_lists = live_lists(resumed)
        for name, items in live_lists(direct).items():
            assert pickled_items(resumed_lists[name]) == pickled_items(
                items
            ), name


class SimulatedKill(BaseException):
    """Escapes normal handling, as destructive as SIGKILL in-process."""


def kill_after(n):
    count = [0]

    def hook(_record):
        count[0] += 1
        if count[0] > n:
            raise SimulatedKill(f"killed after record {n}")

    return hook


class DescribeKillMatrix:
    def test_resume_is_byte_identical_at_every_journal_position(
        self, tmp_path
    ):
        plan = "seed=3,dns_timeout=0.05,reset=0.03"
        reference = make_service(
            tmp_path,
            subdir="reference",
            fault_plan=FaultPlan.parse(plan),
            before_round=toggle_censorship,
            max_retries=2,
        )
        reference.run(rounds=5)
        ref_epochs = ResultsStore(tmp_path / "store").epoch_ids()
        ref_status = read_status(tmp_path / "reference")
        ref_alerts = (tmp_path / "reference" / ALERTS_FILENAME).read_bytes()
        total_records = read_journal(
            tmp_path / "reference" / JOURNAL_FILENAME
        )[0]

        for kill_at in range(1, len(total_records), 3):
            subdir = f"killed-{kill_at}"
            victim = make_service(
                tmp_path,
                subdir=subdir,
                fault_plan=FaultPlan.parse(plan),
                before_round=toggle_censorship,
                max_retries=2,
                after_write=kill_after(kill_at),
            )
            victim.store = ResultsStore(tmp_path / f"store-{kill_at}")
            killed = False
            try:
                victim.run(rounds=5)
            except SimulatedKill:
                killed = True
            if not killed:
                continue  # hook position past the run's record count
            survivor = make_service(
                tmp_path,
                subdir=subdir,
                fault_plan=FaultPlan.parse(plan),
                before_round=toggle_censorship,
                max_retries=2,
            )
            survivor.store = ResultsStore(tmp_path / f"store-{kill_at}")
            survivor.run(rounds=5, resume=True)
            assert (
                ResultsStore(tmp_path / f"store-{kill_at}").epoch_ids()
                == ref_epochs
            ), f"store diverged after kill at record {kill_at}"
            status = read_status(tmp_path / subdir)
            assert status["timeline"] == ref_status["timeline"]
            assert status["targets"] == ref_status["targets"]
            assert (
                tmp_path / subdir / ALERTS_FILENAME
            ).read_bytes() == ref_alerts
