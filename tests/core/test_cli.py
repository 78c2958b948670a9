"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class DescribeParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_default(self):
        # Parsed as None so commands can tell "user typed --seed" from
        # "default applied"; _seed() resolves it to the paper seed.
        from repro.cli import _seed
        from repro.world.scenario import DEFAULT_SEED

        args = build_parser().parse_args(["identify"])
        assert args.seed is None
        assert _seed(args) == DEFAULT_SEED
        explicit = build_parser().parse_args(["--seed", "7", "identify"])
        assert _seed(explicit) == 7

    def test_netalyzr_collects_isps(self):
        args = build_parser().parse_args(
            ["netalyzr", "--isp", "a", "--isp", "b"]
        )
        assert args.isp == ["a", "b"]


class DescribeCommands:
    def test_probe_command(self, capsys):
        assert main(["probe", "--isp", "yemennet"]) == 0
        out = capsys.readouterr().out
        assert "Proxy Anonymizer" in out
        assert "match" in out

    def test_probe_unknown_isp(self, capsys):
        assert main(["probe", "--isp", "nowhere"]) == 2
        assert "unknown ISP" in capsys.readouterr().err

    def test_confirm_command(self, capsys):
        code = main(
            ["confirm", "--product", "McAfee SmartFilter", "--isp", "bayanat"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CONFIRMED" in out
        assert "5/5" in out

    def test_confirm_unknown_pair(self, capsys):
        code = main(["confirm", "--product", "Websense", "--isp", "bayanat"])
        assert code == 2
        assert "known (product, isp) pairs" in capsys.readouterr().err

    def test_netalyzr_command(self, capsys):
        assert main(["netalyzr", "--isp", "etisalat", "--isp", "du"]) == 0
        out = capsys.readouterr().out
        assert "PROXY (Blue Coat)" in out
        assert "clean" in out

    def test_netalyzr_unknown_isp(self, capsys):
        assert main(["netalyzr", "--isp", "nowhere"]) == 2

    def test_identify_command(self, capsys):
        assert main(["identify"]) == 0
        out = capsys.readouterr().out
        assert "Netsweeper" in out
        assert "installations validated" in out

    def test_identify_with_partial_coverage(self, capsys):
        assert main(["identify", "--coverage", "0.4"]) == 0
        out = capsys.readouterr().out
        # A partial index cannot match the paper's full map.
        assert "DIFFERS" in out

    def test_seed_override_changes_nothing_qualitative(self, capsys):
        assert main(["--seed", "424242", "probe", "--isp", "yemennet"]) == 0
        out = capsys.readouterr().out
        assert "Proxy Anonymizer" in out

    def test_study_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["study", "--output", str(output)]) == 0
        document = output.read_text()
        assert "# URL-Filter Censorship Study" in document
        assert "## Table 3" in document
        assert "Headline finding" in document
        assert "**McAfee SmartFilter** in `bayanat`" in document


_ONE_PRODUCT = ["--products", "McAfee SmartFilter"]


class DescribeStudyExitCodes:
    """``repro study`` distinguishes success / hard / usage / partial."""

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_fail_fast_abort_is_a_hard_failure(self, workers, capsys):
        code = main(
            [
                "study", "--fault-plan", "seed=3,nxdomain=1.0", "--fail-fast",
                "--workers", workers,
            ]
            + _ONE_PRODUCT
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("aborted (fail-fast): ")

    def test_degraded_partial_run_exits_partial(self, capsys):
        code = main(
            [
                "study",
                "--fault-plan",
                "seed=11,nxdomain=0.25,reset=0.2",
                "--max-retries",
                "1",
            ]
            + _ONE_PRODUCT
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "partial data" in out

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        assert main(["study", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_zero_checkpoint_interval_is_a_usage_error(self, capsys):
        assert main(["study", "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_journal_run_then_resume_round_trip(self, tmp_path, capsys):
        journal_dir = tmp_path / "journal"
        first = tmp_path / "first.md"
        args = ["study", "--journal", str(journal_dir)] + _ONE_PRODUCT
        assert main(args + ["--output", str(first)]) == 0
        assert (journal_dir / "journal.jsonl").exists()
        assert list(journal_dir.glob("snapshot-*.ckpt"))
        capsys.readouterr()

        # Re-running against the same journal without --resume refuses.
        assert main(args) == 2
        assert "journal error" in capsys.readouterr().err

        # Resuming a finished run replays nothing and matches exactly.
        again = tmp_path / "again.md"
        assert main(args + ["--resume", "--output", str(again)]) == 0
        assert again.read_text() == first.read_text()

    def test_resume_under_a_different_seed_is_refused(self, tmp_path, capsys):
        journal_dir = tmp_path / "journal"
        args = ["study", "--journal", str(journal_dir)] + _ONE_PRODUCT
        assert main(args) == 0
        capsys.readouterr()
        code = main(["--seed", "999"] + args + ["--resume"])
        assert code == 1
        err = capsys.readouterr().err
        assert "resume refused" in err
        # Nothing will run, and no snapshot was looked at: the journal
        # account is all there is to report.
        assert "recovery: journal: " in err
        assert "resume point" not in err

    def test_unwritable_snapshot_is_a_checkpoint_failure(
        self, tmp_path, capsys
    ):
        journal_dir = tmp_path / "journal"
        (journal_dir / "snapshot-00000001.ckpt").mkdir(parents=True)
        args = ["study", "--journal", str(journal_dir)] + _ONE_PRODUCT
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint failed: cannot write snapshot ")
        assert "resume refused" not in err

    def test_monitor_resume_under_a_different_seed_reports_recovery(
        self, tmp_path, capsys
    ):
        args = [
            "monitor", "run",
            "--dir", str(tmp_path / "mon"),
            "--store", str(tmp_path / "store"),
            "--rounds", "1",
            "--target", "McAfee SmartFilter:etisalat",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["--seed", "999"] + args + ["--resume"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("resume refused:")
        assert len(err) > 1
        assert all(line.startswith("recovery: ") for line in err[1:])


class DescribeStoreCommands:
    """``repro study --store`` plus the ``query`` read side."""

    def test_study_commits_and_recommit_is_idempotent(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        args = ["study", "--store", str(store_dir)] + _ONE_PRODUCT
        assert main(args) == 0
        assert "committed to" in capsys.readouterr().out
        assert main(args) == 0
        assert "already committed" in capsys.readouterr().out

    def test_query_epochs_lists_commits(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        assert main(["study", "--store", str(store_dir)] + _ONE_PRODUCT) == 0
        capsys.readouterr()
        assert main(["query", "--store", str(store_dir), "epochs"]) == 0
        out = capsys.readouterr().out
        assert "seed=2013" in out
        assert "confirmations=" in out

    def test_query_records_emits_json(self, tmp_path, capsys):
        import json

        store_dir = tmp_path / "results"
        assert main(["study", "--store", str(store_dir)] + _ONE_PRODUCT) == 0
        capsys.readouterr()
        code = main(
            [
                "query", "--store", str(store_dir),
                "records", "--kind", "confirmations", "--isp", "etisalat",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["isp"] == "etisalat" for row in rows)

    def test_query_diff_needs_two_epochs(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        assert main(["study", "--store", str(store_dir)] + _ONE_PRODUCT) == 0
        capsys.readouterr()
        assert main(["query", "--store", str(store_dir), "diff"]) == 2
        assert "query failed" in capsys.readouterr().err

    def test_query_on_missing_store_is_usage_error(self, tmp_path, capsys):
        code = main(["query", "--store", str(tmp_path / "absent"), "epochs"])
        assert code == 2
        assert "no results store" in capsys.readouterr().err

    def test_query_on_empty_store_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["query", "--store", str(tmp_path / "empty"), "epochs"])
        assert code == 2
        assert "no committed epochs" in capsys.readouterr().err

    def test_serve_rejects_negative_cache(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        assert main(["study", "--store", str(store_dir)] + _ONE_PRODUCT) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--store", str(store_dir), "--cache-size", "-1"]
        )
        assert code == 2
        assert "--cache-size" in capsys.readouterr().err


class DescribeCoordinatedScanCommands:
    """Exit-code taxonomy for scan --coordinator / scan-worker / coord:
    0 ok, 1 hard failure, 2 usage, 3 explicit partial."""

    _SCAN = [
        "scan", "--hosts", "2000", "--shards", "4", "--batch-size", "250",
    ]

    def test_coordinated_scan_matches_sequential_epoch(
        self, tmp_path, capsys
    ):
        seq = self._SCAN + ["--store", str(tmp_path / "seq")]
        assert main(seq) == 0
        seq_out = capsys.readouterr().out
        dist = self._SCAN + [
            "--store", str(tmp_path / "dist"),
            "--coordinator", str(tmp_path / "coord"),
            "--local-workers", "2",
            "--lease-ttl", "10",
        ]
        assert main(dist) == 0
        dist_out = capsys.readouterr().out
        seq_epoch = next(
            line.split()[1] for line in seq_out.splitlines()
            if line.startswith("epoch ")
        )
        dist_epoch = next(
            line.split()[1] for line in dist_out.splitlines()
            if line.startswith("epoch ")
        )
        assert seq_epoch == dist_epoch
        assert "worker(s)" in dist_out

    def test_scan_usage_errors(self, tmp_path, capsys):
        base = self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
        ]
        assert main(base + ["--local-workers", "-1"]) == 2
        assert "--local-workers" in capsys.readouterr().err
        assert main(base + ["--lease-ttl", "0"]) == 2
        assert "--lease-ttl" in capsys.readouterr().err
        assert main(base + ["--max-attempts", "0"]) == 2
        assert "--max-attempts" in capsys.readouterr().err
        assert main(base + ["--straggler-after", "-5"]) == 2
        assert "--straggler-after" in capsys.readouterr().err

    def test_scan_timeout_is_a_hard_failure_with_queue_kept(
        self, tmp_path, capsys
    ):
        code = main(self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
            "--local-workers", "0",  # nobody will do the work
            "--wait-timeout", "0.2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "did not finish" in err
        assert "resume" in err
        # The queue survives for a retry with workers.
        assert (tmp_path / "c" / "coordinator.json").exists()

    def test_scan_identity_mismatch_is_a_hard_failure(
        self, tmp_path, capsys
    ):
        ok = self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
            "--local-workers", "2",
            "--lease-ttl", "10",
        ]
        assert main(ok) == 0
        capsys.readouterr()
        different = [
            "scan", "--hosts", "3000", "--shards", "4",
            "--batch-size", "250",
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
        ]
        assert main(different) == 1
        assert "coordinator refused" in capsys.readouterr().err

    def test_worker_usage_and_refusals(self, tmp_path, capsys):
        assert main(["scan-worker", str(tmp_path / "absent")]) == 2
        assert "cannot join" in capsys.readouterr().err
        ok = self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
            "--local-workers", "2",
            "--lease-ttl", "10",
        ]
        assert main(ok) == 0
        capsys.readouterr()
        code = main(["--seed", "999", "scan-worker", str(tmp_path / "c")])
        assert code == 1
        assert "cross-seed" in capsys.readouterr().err
        assert main(
            ["scan-worker", str(tmp_path / "c"), "--poll", "0"]
        ) == 2
        assert "--poll" in capsys.readouterr().err
        # A late worker on a drained queue exits cleanly with no work.
        code = main(
            ["scan-worker", str(tmp_path / "c"), "--worker-id", "late"]
        )
        assert code == 0
        assert "0 shard(s) won" in capsys.readouterr().out

    def test_coord_status_reports_the_queue(self, tmp_path, capsys):
        assert main(["coord", "status", str(tmp_path / "absent")]) == 2
        assert "coord status failed" in capsys.readouterr().err
        ok = self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
            "--local-workers", "2",
            "--lease-ttl", "10",
        ]
        assert main(ok) == 0
        capsys.readouterr()
        assert main(["coord", "status", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "4 done" in out
        assert "state: complete" in out

    def test_dead_lettered_queue_exits_partial_with_no_epoch(
        self, tmp_path, capsys
    ):
        # Exhaust a shard's retry budget out-of-band, then let the
        # coordinator command find the terminal-but-dead queue.
        from repro.coord import Coordinator, ScanWorker
        from repro.scan.stream import StreamingScan
        from repro.world.population import ShardedPopulationConfig
        from repro.world.scenario import DEFAULT_SEED

        scan = StreamingScan(
            DEFAULT_SEED,
            ShardedPopulationConfig(host_count=2000, shard_count=4),
            batch_size=250,
        )
        Coordinator(tmp_path / "c", scan, lease_ttl=10.0, max_attempts=1)

        def explode(shard, batch):
            if shard == 3:
                raise RuntimeError("cursed shard")

        ScanWorker(
            tmp_path / "c", worker_id="w", after_batch=explode
        ).run()
        code = main(self._SCAN + [
            "--store", str(tmp_path / "s"),
            "--coordinator", str(tmp_path / "c"),
            "--local-workers", "0",
            "--lease-ttl", "10",
            "--max-attempts", "1",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "PARTIAL scan" in out
        assert "no epoch committed" in out
        assert not (tmp_path / "s" / "epochs.jsonl").exists() or (
            (tmp_path / "s" / "epochs.jsonl").read_text() == ""
        )
        # scan-worker on the dead queue also reports partiality.
        code = main(["scan-worker", str(tmp_path / "c")])
        assert code == 3


class DescribeMainContract:
    """``main()`` returns an exit code for every outcome and leaves no
    process state behind."""

    def test_parse_failures_and_help_return_their_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: repro" in capsys.readouterr().out
        assert main(["study", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro study: error: argument --workers: must be >= 1" in err

    def test_coordinator_flags_are_checked_without_a_coordinator(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "s"
        code = main(
            ["scan", "--store", str(store_dir), "--hosts", "100",
             "--lease-ttl", "0"]
        )
        assert code == 2
        assert "--lease-ttl" in capsys.readouterr().err
        assert not store_dir.exists()

    def test_round_delay_pauses_without_touching_the_environment(
        self, tmp_path, capsys
    ):
        import os
        import time

        before = dict(os.environ)
        started = time.monotonic()
        code = main(
            [
                "monitor", "run",
                "--dir", str(tmp_path / "mon"),
                "--store", str(tmp_path / "store"),
                "--rounds", "1",
                "--target", "McAfee SmartFilter:etisalat",
                "--round-delay", "0.3",
            ]
        )
        assert code == 0
        assert time.monotonic() - started >= 0.3
        assert dict(os.environ) == before
