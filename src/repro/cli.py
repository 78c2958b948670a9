"""Command-line interface.

Subcommands mirror the methodology's stages::

    python -m repro study              # the full campaign + report
    python -m repro identify           # §3 only
    python -m repro confirm --product "McAfee SmartFilter" --isp bayanat
    python -m repro probe --isp yemennet
    python -m repro netalyzr --isp etisalat --isp du
    python -m repro study --store results/     # commit a durable epoch
    python -m repro query --store results/ epochs
    python -m repro query --store results/ diff
    python -m repro serve --store results/ --port 8000

All measurement commands accept ``--seed``; the default seed reproduces
the paper's published cells exactly. ``query`` and ``serve`` are pure
readers over a results store written by ``study --store``.

Every option value is checked once, when the command line is parsed;
argparse reports a bad one and exits 2. A command that fails later
raises :class:`CommandError`, and :func:`main` turns it into a message
on stderr and an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.export import (
    confirmation_record,
    installations_rows,
    probe_record,
)
from repro.analysis.report import write_execution_summary, write_markdown_report
from repro.analysis.tables import (
    render_category_probe,
    render_figure1,
    render_table3,
)
from repro.analysis.paper_data import PAPER_TABLE3, Table3Row
from repro.core.confirm import ConfirmationStudy, run_category_probe
from repro.core.pipeline import FullStudy, PartialStudyResult, config_for_row
from repro.measure.netalyzr import survey_isps
from repro.products.registry import NETSWEEPER, default_registry
from repro.world.faults import FaultPlan
from repro.world.scenario import DEFAULT_SEED, build_scenario


def _bounded(kind, bound, *, strict=False):
    """An argparse ``type``: ``kind(text)``, refused below ``bound`` (and
    at it when ``strict``)."""
    relation = ">" if strict else ">="

    def parse(text: str):
        value = kind(text)
        if value < bound or (strict and value == bound):
            raise argparse.ArgumentTypeError(f"must be {relation} {bound}")
        return value

    # argparse names the type in its "invalid int value: 'x'" message.
    parse.__name__ = kind.__name__
    return parse


_NON_NEGATIVE_INT = _bounded(int, 0)
_POSITIVE_INT = _bounded(int, 1)
_NON_NEGATIVE_FLOAT = _bounded(float, 0)
_POSITIVE_FLOAT = _bounded(float, 0, strict=True)


def _fault_plan(spec: str) -> Optional[FaultPlan]:
    """``--fault-plan`` type. An empty spec means no plan: runs hash the
    plan into their identity, so ``''`` must not become an empty plan."""
    if not spec:
        return None
    try:
        return FaultPlan.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --fault-plan: {exc}") from exc


def _product(name: str) -> str:
    """``--products`` type: a name the product registry knows."""
    registry = default_registry()
    if name not in registry:
        raise argparse.ArgumentTypeError(
            f"unknown product {name!r}; registered: "
            f"{', '.join(registry.names())}"
        )
    return name


def _table3_pair(spec: str) -> Tuple[str, str]:
    """``--target`` type: PRODUCT:ISP as a (product, isp) pair."""
    product, sep, isp = spec.rpartition(":")
    if not sep or not product or not isp:
        raise argparse.ArgumentTypeError(f"expected PRODUCT:ISP, got {spec!r}")
    return product, isp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMC'13 URL-filter censorship study (reproduction)",
    )
    # Default None (resolved via _seed) so commands that must refuse an
    # *explicitly* mismatched seed — scan-worker joining a coordinator —
    # can tell "user typed --seed" from "default applied".
    parser.add_argument(
        "--seed", type=int, default=None,
        help=f"scenario seed (default {DEFAULT_SEED}, paper-calibrated)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser("study", help="run the full campaign")
    study.add_argument(
        "--output", help="write the markdown report to this file"
    )
    study.add_argument(
        "--json", dest="json_output",
        help="also export the raw results as JSON to this file",
    )
    study.add_argument(
        "--workers", type=_POSITIVE_INT, default=1,
        help="parallel campaign workers (default 1; results are "
        "byte-identical at any worker count)",
    )
    study.add_argument(
        "--latency", type=_NON_NEGATIVE_FLOAT, default=0.0, metavar="SECONDS",
        help="simulated field-link RTT per request (default 0; this is "
        "the cost --workers amortizes)",
    )
    study.add_argument(
        "--metrics", action="store_true",
        help="print the execution summary (timings, fan-out)",
    )
    study.add_argument(
        "--products", action="append", type=_product, metavar="NAME",
        help="repeatable: restrict the study to these registered "
        "products (default: the paper's four vendors)",
    )
    study.add_argument(
        "--fault-plan", type=_fault_plan, metavar="SPEC",
        help="run under a seeded chaos plan, e.g. "
        "'seed=7,dns_timeout=0.05,reset=0.02,outage=yemennet:300:305'; "
        "the study degrades to a partial result instead of failing",
    )
    study.add_argument(
        "--max-retries", type=_NON_NEGATIVE_INT, default=2,
        help="retry budget per probe for transient faults (default 2)",
    )
    study.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first injected fault instead of degrading",
    )
    study.add_argument(
        "--journal", metavar="DIR",
        help="write a crash-safe journal + snapshots into DIR; a killed "
        "run can be continued with --resume",
    )
    study.add_argument(
        "--resume", action="store_true",
        help="resume a previous --journal run from its newest valid "
        "snapshot (requires --journal)",
    )
    study.add_argument(
        "--checkpoint-every", type=_POSITIVE_INT, default=1, metavar="N",
        help="snapshot after every N completed study units (default 1)",
    )
    study.add_argument(
        "--store", metavar="DIR",
        help="commit the completed run to the longitudinal results "
        "store at DIR as one immutable epoch (query it back with "
        "'repro query', serve it with 'repro serve')",
    )
    study.add_argument(
        "--shards", type=_POSITIVE_INT, metavar="N",
        help="drive the §3 banner scan as N bounded-in-flight target "
        "chunks instead of one future per host (same records, flat "
        "memory; epoch ids are invariant to this)",
    )
    study.add_argument(
        "--record-confidence", action="store_true",
        help="persist fused verdict confidences and per-classifier "
        "signal breakdowns in committed epochs (changes row bytes, so "
        "the epoch id differs from a default run)",
    )

    scan = commands.add_parser(
        "scan", help="streaming identify pass over a synthetic host space"
    )
    scan.add_argument(
        "--store", required=True, metavar="DIR",
        help="results store directory; matched installations stream "
        "into one immutable epoch",
    )
    scan.add_argument(
        "--hosts", type=_NON_NEGATIVE_INT, default=100_000, metavar="N",
        help="synthetic host population size (default 100000)",
    )
    scan.add_argument(
        "--shards", type=_POSITIVE_INT, default=16, metavar="N",
        help="population shards; shard k regenerates from (seed, k) "
        "alone, and the epoch id is invariant to N (default 16)",
    )
    scan.add_argument(
        "--batch-size", type=_POSITIVE_INT, default=1000, metavar="N",
        help="hosts per scan batch (default 1000)",
    )
    scan.add_argument(
        "--workers", type=_POSITIVE_INT, default=1,
        help="parallel batch workers (default 1; results are "
        "byte-identical at any worker count)",
    )
    scan.add_argument(
        "--scan-backend", choices=("thread", "process"), default="thread",
        help="batch execution backend (default thread)",
    )
    scan.add_argument(
        "--window", type=_POSITIVE_INT, metavar="N",
        help="max in-flight batches (default 2x workers); the "
        "backpressure bound that keeps memory flat",
    )
    scan.add_argument(
        "--latency", type=_NON_NEGATIVE_FLOAT, default=0.0, metavar="SECONDS",
        help="simulated network round-trip per batch (default 0)",
    )
    scan.add_argument(
        "--fault-plan", type=_fault_plan, metavar="SPEC",
        help="scan under a seeded chaos plan (connection faults drop "
        "hosts, corruption degrades banners), e.g. "
        "'seed=7,reset=0.02,truncate=0.05'",
    )
    scan.add_argument(
        "--products", action="append", type=_product, metavar="NAME",
        help="repeatable: restrict the signature set to these "
        "registered products (default: the paper's four vendors)",
    )
    scan.add_argument(
        "--coordinator", metavar="DIR",
        help="distribute the scan: initialize (or re-attach to) a "
        "crash-tolerant shard work-queue at DIR, wait for scan-worker "
        "processes to drain it, and reconcile their results into the "
        "byte-identical epoch a single-machine scan commits; exits 3 "
        "with nothing committed if retry budgets ran out",
    )
    scan.add_argument(
        "--local-workers", type=_NON_NEGATIVE_INT, default=3, metavar="N",
        help="with --coordinator: also spawn N worker processes locally "
        "(default 3; 0 waits for externally started scan-workers)",
    )
    scan.add_argument(
        "--lease-ttl", type=_POSITIVE_FLOAT, default=30.0, metavar="SECONDS",
        help="with --coordinator: heartbeat deadline per shard lease; a "
        "worker silent this long is presumed dead and its shard is "
        "re-leased (default 30)",
    )
    scan.add_argument(
        "--straggler-after", type=_POSITIVE_FLOAT, default=None,
        metavar="SECONDS",
        help="with --coordinator: a lease held this long makes its "
        "shard eligible for speculative re-execution by an idle worker "
        "(default 4x the lease TTL)",
    )
    scan.add_argument(
        "--max-attempts", type=_POSITIVE_INT, default=3, metavar="N",
        help="with --coordinator: lease attempts per shard before it is "
        "dead-lettered and the scan degrades to explicit partiality "
        "(default 3)",
    )
    scan.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="with --coordinator: give up (exit 1, queue kept on disk) "
        "if the fleet has not finished by then (default: wait forever)",
    )

    worker = commands.add_parser(
        "scan-worker",
        help="join a distributed scan as one leased worker process",
    )
    worker.add_argument(
        "coordinator", metavar="DIR",
        help="coordinator directory created by 'repro scan --coordinator'",
    )
    worker.add_argument(
        "--worker-id", metavar="NAME",
        help="stable worker name for leases and result files "
        "(default: worker-<pid>)",
    )
    worker.add_argument(
        "--poll", type=_POSITIVE_FLOAT, default=0.2, metavar="SECONDS",
        help="idle re-check interval when no shard is claimable "
        "(default 0.2)",
    )

    coord = commands.add_parser(
        "coord", help="inspect a distributed-scan coordinator"
    )
    coord_commands = coord.add_subparsers(dest="coord_command", required=True)
    c_status = coord_commands.add_parser(
        "status",
        help="show shard states: leases, heartbeats, stragglers, "
        "dead-letters, duplicate completions",
    )
    c_status.add_argument(
        "coordinator", metavar="DIR", help="coordinator directory"
    )

    query = commands.add_parser(
        "query", help="query a longitudinal results store"
    )
    query.add_argument(
        "--store", required=True, metavar="DIR",
        help="results store directory (written by 'repro study --store')",
    )
    query_commands = query.add_subparsers(dest="query_command", required=True)
    q_epochs = query_commands.add_parser(
        "epochs", help="list committed epochs (optionally filtered)"
    )
    q_records = query_commands.add_parser(
        "records", help="dump record rows of one kind from one epoch"
    )
    q_records.add_argument(
        "--kind", required=True,
        help="record kind: installations, confirmations, "
        "characterizations, category_probe, discovery_rounds, or "
        "discovery_candidates",
    )
    q_records.add_argument(
        "--epoch", help="epoch id or unique prefix (default: newest)"
    )
    q_records.add_argument(
        "--min-confidence", type=float, metavar="X",
        help="filter: keep rows whose fused verdict confidence is >= X "
        "(rows from epochs committed without --record-confidence carry "
        "no confidence and always pass)",
    )
    q_tables = query_commands.add_parser(
        "tables", help="render a stored epoch's table views"
    )
    q_tables.add_argument(
        "--name", required=True,
        help="table1, table2, figure1, table3, table4, or probe",
    )
    q_tables.add_argument(
        "--epoch", help="epoch id or unique prefix (default: newest)"
    )
    q_diff = query_commands.add_parser(
        "diff", help="longitudinal diff between two epochs"
    )
    q_diff.add_argument(
        "--old", help="older epoch id/prefix (default: second-newest)"
    )
    q_diff.add_argument(
        "--new", help="newer epoch id/prefix (default: newest)"
    )
    q_diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the diff as JSON instead of the text summary",
    )
    for sub in (q_epochs, q_records):
        sub.add_argument("--country", help="filter: ISO country code")
        sub.add_argument("--asn", type=int, help="filter: AS number")
        sub.add_argument("--product", help="filter: product name")
        sub.add_argument("--isp", help="filter: ISP key")
        sub.add_argument("--category", help="filter: category label")

    serve = commands.add_parser(
        "serve", help="serve a results store over read-only HTTP"
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="results store directory to serve",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listen port (default 8000; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--cache-size", type=_NON_NEGATIVE_INT, default=128, metavar="N",
        help="response-cache entries (default 128; 0 disables caching)",
    )
    serve.add_argument(
        "--monitor", metavar="DIR",
        help="also expose /monitor/* status endpoints over this monitor "
        "state directory",
    )

    monitor = commands.add_parser(
        "monitor", help="always-on monitoring control plane"
    )
    monitor_commands = monitor.add_subparsers(
        dest="monitor_command", required=True
    )
    m_run = monitor_commands.add_parser(
        "run", help="run the supervised monitoring service"
    )
    m_run.add_argument(
        "--dir", required=True, metavar="DIR",
        help="monitor state directory (schedule journal, snapshots, "
        "alert ledger)",
    )
    m_run.add_argument(
        "--store", required=True, metavar="DIR",
        help="results store directory receiving round epochs",
    )
    m_run.add_argument(
        "--rounds", type=_POSITIVE_INT, default=12, metavar="N",
        help="total round budget, counting rounds already journaled — "
        "resuming with the same budget completes the original plan "
        "(default 12)",
    )
    m_run.add_argument(
        "--resume", action="store_true",
        help="continue an existing monitor directory exactly where it "
        "died (refused across identity changes)",
    )
    m_run.add_argument(
        "--target", action="append", type=_table3_pair,
        metavar="PRODUCT:ISP",
        help="repeatable: a Table 3 (product, isp) pair to monitor "
        "(default: every distinct pair)",
    )
    m_run.add_argument(
        "--fault-plan", type=_fault_plan, metavar="SPEC",
        help="monitor under a seeded chaos plan (failed rounds degrade "
        "to timeline gaps, never to fabricated states)",
    )
    m_run.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="per-round retry budget for transient faults (default 2)",
    )
    m_run.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per round attempt (default: none)",
    )
    m_run.add_argument(
        "--round-delay", type=_NON_NEGATIVE_FLOAT, default=None,
        metavar="SECONDS",
        help="wall-clock pause after each round-start journal record "
        "(kill-test and soak seam; results-invisible)",
    )
    m_run.add_argument(
        "--base-interval", type=float, default=30.0, metavar="DAYS",
        help="initial re-probe interval (default 30)",
    )
    m_run.add_argument(
        "--min-interval", type=float, default=7.0, metavar="DAYS",
        help="floor for recently-transitioned pairs (default 7)",
    )
    m_run.add_argument(
        "--max-interval", type=float, default=90.0, metavar="DAYS",
        help="ceiling that stable pairs decay toward (default 90)",
    )
    m_run.add_argument(
        "--retry-interval", type=float, default=2.0, metavar="DAYS",
        help="re-probe delay after a failed (gap) round (default 2)",
    )
    m_run.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="consecutive failed rounds before a target is "
        "dead-lettered (default 3)",
    )
    m_run.add_argument(
        "--hysteresis", type=int, default=2, metavar="K",
        help="rounds a new state must hold before an alert fires "
        "(default 2)",
    )
    m_run.add_argument(
        "--flap-window", type=int, default=6, metavar="N",
        help="observation window for flap detection (default 6)",
    )
    m_run.add_argument(
        "--flap-threshold", type=int, default=3, metavar="N",
        help="state changes within the window that latch a single "
        "FLAPPING alert (default 3)",
    )
    m_run.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot after every N completed rounds (default 1)",
    )
    for name in ("status", "targets"):
        sub = monitor_commands.add_parser(
            name,
            help=(
                "fold a monitor directory's durable records"
                if name == "status"
                else "list the schedule table from durable records"
            ),
        )
        sub.add_argument(
            "--dir", required=True, metavar="DIR",
            help="monitor state directory",
        )
        sub.add_argument(
            "--json", action="store_true", dest="as_json",
            help="emit the full status document as JSON",
        )

    identify = commands.add_parser("identify", help="run §3 identification")
    identify.add_argument(
        "--coverage", type=float, default=1.0,
        help="scanner coverage fraction (default 1.0)",
    )
    identify.add_argument(
        "--products", action="append", type=_product, metavar="NAME",
        help="repeatable: restrict identification to these registered "
        "products (default: the paper's four vendors)",
    )

    confirm = commands.add_parser("confirm", help="run one §4 case study")
    confirm.add_argument("--product", required=True)
    confirm.add_argument("--isp", required=True)
    confirm.add_argument(
        "--category",
        help="Table 3 category label (default: the first matching row)",
    )

    probe = commands.add_parser(
        "probe", help=f"run the {NETSWEEPER} category probe (§4.4)"
    )
    probe.add_argument("--isp", required=True)

    netalyzr = commands.add_parser(
        "netalyzr", help="transparent-proxy fingerprinting from ISPs"
    )
    netalyzr.add_argument(
        "--isp", action="append", required=True,
        help="repeatable: ISPs to survey",
    )

    discover = commands.add_parser(
        "discover",
        help="search-based blocked-URL discovery from a censored vantage",
    )
    discover.add_argument(
        "--isp", default="etisalat",
        help="censored vantage to crawl from (default etisalat)",
    )
    discover.add_argument(
        "--rounds", type=_POSITIVE_INT, default=20,
        help="crawl-round budget; a zero-new-blocked round stops earlier",
    )
    discover.add_argument(
        "--workers", type=_POSITIVE_INT, default=1,
        help="probe fan-out (results are byte-identical at any count)",
    )
    discover.add_argument(
        "--latency", type=_NON_NEGATIVE_FLOAT, default=0.0,
        help="simulated per-probe link latency in seconds",
    )
    discover.add_argument(
        "--seed-url", action="append", metavar="URL", dest="seed_urls",
        help="repeatable: seed URLs (default: the first 5 blocked URLs "
        "from the static global+local lists)",
    )
    discover.add_argument(
        "--population", type=_POSITIVE_INT, default=None,
        help="override the scenario's website population size "
        "(small worlds for smoke runs)",
    )
    discover.add_argument(
        "--store", help="commit the run to this store as a discovery epoch"
    )
    discover.add_argument(
        "--fault-plan", type=_fault_plan, metavar="SPEC",
        help="inject seeded faults (see `repro study --fault-plan`)",
    )
    discover.add_argument(
        "--max-retries", type=_NON_NEGATIVE_INT, default=2,
        help="transient-failure retries per probe under a fault plan",
    )
    return parser


def _seed(args) -> int:
    """The effective seed: what the user typed, or the paper default."""
    return DEFAULT_SEED if args.seed is None else args.seed


#: Exit codes for ``repro study``: EXIT_OK on a clean, complete run;
#: EXIT_HARD on hard failures (``--fail-fast`` abort, refusing to resume
#: a journal written by a different study); EXIT_USAGE on bad
#: invocations; EXIT_PARTIAL when the study completed but degraded to
#: partial data under an active fault plan.
EXIT_OK = 0
EXIT_HARD = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class CommandError(Exception):
    """Ends a command: :func:`main` prints the message to stderr and
    returns ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _table3_row(
    product: str, isp: str, category: Optional[str] = None
) -> Table3Row:
    """The first Table 3 row for (product, isp), optionally one category."""
    for row in PAPER_TABLE3:
        if (row.product, row.isp_key) == (product, isp) and (
            category is None or row.category == category
        ):
            return row
    known = sorted({(row.product, row.isp_key) for row in PAPER_TABLE3})
    raise CommandError(
        EXIT_USAGE,
        f"no such case study ({product!r}, {isp!r}); "
        f"known (product, isp) pairs: {known}",
    )


@contextlib.contextmanager
def _journal_errors():
    """Exit codes for a journaled run (a study or a monitor): an
    unusable journal is a usage error; a refused resume or an unwritable
    snapshot is a hard failure."""
    from repro.exec.checkpoint import CheckpointError
    from repro.exec.journal import JournalError

    try:
        yield
    except JournalError as exc:
        raise CommandError(EXIT_USAGE, f"journal error: {exc}") from exc
    except CheckpointError as exc:
        if exc.report is None:
            raise CommandError(EXIT_HARD, f"checkpoint failed: {exc}") from exc
        lines = [f"resume refused: {exc}"] + [
            f"recovery: {line}" for line in exc.report.describe_journal()
        ]
        raise CommandError(EXIT_HARD, "\n".join(lines)) from exc


def _cmd_study(args) -> int:
    from repro.analysis.export import to_json
    from repro.analysis.validation import validate_report
    from repro.net.errors import NetError

    if args.resume and not args.journal:
        raise CommandError(EXIT_USAGE, "--resume requires --journal DIR")
    study = FullStudy(
        build_scenario(seed=_seed(args)),
        products=args.products,
        workers=args.workers,
        link_latency=args.latency,
        fault_plan=args.fault_plan,
        max_retries=args.max_retries,
        fail_fast=args.fail_fast,
        scan_shards=args.shards,
        record_confidence=args.record_confidence,
    )
    with _journal_errors():
        try:
            if args.journal:
                journal_dir = Path(args.journal)
                journal_dir.mkdir(parents=True, exist_ok=True)
                outcome = study.run_journaled(
                    journal_dir,
                    resume=args.resume,
                    checkpoint_every=args.checkpoint_every,
                )
            else:
                outcome = study.run()
        except NetError as exc:
            # Only --fail-fast lets a fault propagate out of the study.
            raise CommandError(
                EXIT_HARD, f"aborted (fail-fast): {exc!r}"
            ) from exc
    partial = outcome if isinstance(outcome, PartialStudyResult) else None
    report = outcome if partial is None else partial.report
    if study.last_recovery is not None and not study.last_recovery.clean:
        for line in study.last_recovery.describe():
            print(f"recovery: {line}")
    if args.store:
        commit = study.commit_epoch(Path(args.store), outcome)
        verb = "committed" if commit.created else "already committed"
        print(f"epoch {commit.epoch_id[:12]} {verb} to {args.store}")
    document = write_markdown_report(report, seed=_seed(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"report written to {args.output}")
    else:
        print(document)
    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            handle.write(to_json(report))
        print(f"raw results written to {args.json_output}")
    if partial is not None:
        for line in partial.summary_lines():
            print(line)
    if args.metrics:
        print(write_execution_summary(study.metrics))
    print(validate_report(report).summary())
    if partial is not None and not partial.complete:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_scan(args) -> int:
    from repro.exec.executor import Executor, StreamStats
    from repro.scan.stream import StreamingScan
    from repro.store import ResultsStore
    from repro.world.population import ShardedPopulationConfig

    try:
        config = ShardedPopulationConfig(
            host_count=args.hosts,
            shard_count=args.shards,
            products=None if args.products is None else tuple(args.products),
        )
    except ValueError as exc:
        raise CommandError(EXIT_USAGE, f"bad population: {exc}") from exc
    store = ResultsStore(Path(args.store))
    scan = StreamingScan(
        _seed(args),
        config,
        batch_size=args.batch_size,
        latency=args.latency,
        fault_plan=args.fault_plan,
    )
    if args.coordinator:
        return _run_coordinated_scan(args, scan, store)
    stats = StreamStats()
    summary = scan.run(
        store,
        Executor(workers=args.workers, backend=args.scan_backend),
        window=args.window,
        stats=stats,
    )
    verb = "committed" if summary.created else "already committed"
    print(f"epoch {summary.epoch_id[:12]} {verb} to {args.store}")
    print(
        f"scanned {summary.scanned} hosts in {summary.batches} batches: "
        f"{summary.hits} installations, {summary.decoys} decoys "
        f"dismissed, {summary.missed} unreachable"
    )
    print(
        f"{summary.hosts_per_second:,.0f} hosts/sec, "
        f"peak {summary.peak_inflight} batches in flight"
    )
    return EXIT_OK


def _run_coordinated_scan(args, scan, store) -> int:
    """The --coordinator arm of ``repro scan``: fleet, wait, reconcile."""
    from repro.coord import (
        CoordinationError,
        Coordinator,
        IdentityMismatch,
        PartialScanResult,
        spawn_workers,
    )
    from repro.store import StoreError

    try:
        coordinator = Coordinator(
            Path(args.coordinator),
            scan,
            lease_ttl=args.lease_ttl,
            straggler_after=args.straggler_after,
            max_attempts=args.max_attempts,
        )
    except IdentityMismatch as exc:
        raise CommandError(EXIT_HARD, f"coordinator refused: {exc}") from exc
    fleet = spawn_workers(args.coordinator, args.local_workers)
    try:
        try:
            coordinator.wait(timeout=args.wait_timeout)
        except CoordinationError as exc:
            raise CommandError(
                EXIT_HARD,
                f"scan did not finish: {exc}\n"
                f"queue kept at {args.coordinator}; start more "
                "scan-workers and re-run this command to resume",
            ) from exc
        try:
            outcome = coordinator.reconcile(store)
        except StoreError as exc:
            # Conflicting duplicates or damaged shard files: a typed
            # reconciliation error, nothing committed.
            raise CommandError(
                EXIT_HARD, f"reconciliation failed: {exc}"
            ) from exc
    finally:
        for process in fleet:
            process.join(timeout=5.0)
        for process in fleet:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
    if isinstance(outcome, PartialScanResult):
        for line in outcome.describe():
            print(line)
        return EXIT_PARTIAL
    verb = "committed" if outcome.created else "already committed"
    print(f"epoch {outcome.epoch_id[:12]} {verb} to {args.store}")
    print(
        f"scanned {outcome.scanned} hosts across {outcome.shards} "
        f"shards by {len(outcome.workers)} worker(s): {outcome.hits} "
        f"installations, {outcome.decoys} decoys dismissed, "
        f"{outcome.missed} unreachable"
    )
    if outcome.duplicates_discarded:
        print(
            f"{outcome.duplicates_discarded} duplicate shard "
            "completion(s) discarded (speculative re-execution)"
        )
    return EXIT_OK


def _cmd_scan_worker(args) -> int:
    from repro.coord import (
        CoordinationError,
        IdentityMismatch,
        ScanWorker,
    )

    try:
        worker = ScanWorker(
            Path(args.coordinator),
            worker_id=args.worker_id,
            poll=args.poll,
        )
    except IdentityMismatch as exc:
        raise CommandError(EXIT_HARD, f"refusing to join: {exc}") from exc
    except CoordinationError as exc:
        raise CommandError(EXIT_USAGE, f"cannot join: {exc}") from exc
    if args.seed is not None and args.seed != worker.queue.seed:
        raise CommandError(
            EXIT_HARD,
            f"refusing to join: coordinator at {args.coordinator} was "
            f"created for seed {worker.queue.seed}, not --seed "
            f"{args.seed} — a cross-seed worker would scan a different "
            "world",
        )
    summary = worker.run()
    print(
        f"{summary.worker}: {summary.shards_won} shard(s) won, "
        f"{summary.shards_duplicate} duplicate, "
        f"{summary.shards_released} released, "
        f"{summary.speculative} speculative lease(s), "
        f"{summary.heartbeats} heartbeat(s)"
    )
    for error in summary.errors:
        print(f"  failed: {error}", file=sys.stderr)
    if worker.queue.snapshot().dead:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_coord(args) -> int:
    from repro.coord import CoordinationError, Coordinator

    try:
        coordinator = Coordinator.attach(Path(args.coordinator))
        snapshot = coordinator.status()
    except CoordinationError as exc:
        raise CommandError(EXIT_USAGE, f"coord status failed: {exc}") from exc
    for line in snapshot.describe():
        print(line)
    return EXIT_OK


def _cmd_identify(args) -> int:
    scenario = build_scenario(seed=_seed(args))
    report = FullStudy(
        scenario, products=args.products, shodan_coverage=args.coverage
    ).run_identification()
    print(render_figure1(installations_rows(report), report.products))
    print(
        f"\n{len(report.installations)} installations validated from "
        f"{len(report.candidates)} candidates "
        f"({report.queries_issued} queries)"
    )
    return 0


def _cmd_confirm(args) -> int:
    row = _table3_row(args.product, args.isp, args.category)
    scenario = build_scenario(seed=_seed(args))
    study = ConfirmationStudy(
        scenario.world,
        scenario.products[args.product],
        scenario.hosting_asns[0],
    )
    result = study.run(config_for_row(row))
    print(render_table3([confirmation_record(result)], paper_rows=[row]))
    print(f"\nverdict: {'CONFIRMED' if result.confirmed else 'not confirmed'}")
    for note in result.notes:
        print(f"note: {note}")
    return 0


def _cmd_probe(args) -> int:
    scenario = build_scenario(seed=_seed(args))
    if args.isp not in scenario.world.isps:
        raise CommandError(EXIT_USAGE, f"unknown ISP {args.isp!r}")
    probe = run_category_probe(scenario.world, args.isp)
    print(render_category_probe(probe_record(probe)))
    return 0


def _open_store(directory: str):
    """The ResultsStore at ``directory``, which must hold an epoch."""
    from repro.store import ResultsStore

    path = Path(directory)
    if not path.is_dir():
        raise CommandError(EXIT_USAGE, f"no results store at {path}")
    store = ResultsStore(path)
    if not store.epoch_ids():
        raise CommandError(
            EXIT_USAGE, f"results store {path} has no committed epochs"
        )
    return store


def _cli_record_filter(args):
    from repro.query import RecordFilter

    return RecordFilter(
        country=getattr(args, "country", None),
        asn=getattr(args, "asn", None),
        product=getattr(args, "product", None),
        isp=getattr(args, "isp", None),
        category=getattr(args, "category", None),
        min_confidence=getattr(args, "min_confidence", None),
    )


def _cmd_query(args) -> int:
    import json

    from repro.query import QueryEngine
    from repro.store import StoreError

    engine = QueryEngine(_open_store(args.store))
    try:
        if args.query_command == "epochs":
            for manifest in engine.epochs(_cli_record_filter(args)):
                window = (
                    f"{_calendar(manifest.window_start)}"
                    f"..{_calendar(manifest.window_end)}"
                )
                counts = ", ".join(
                    f"{kind}={info.count}"
                    for kind, info in sorted(manifest.segments.items())
                )
                flag = " (partial)" if manifest.partial else ""
                print(
                    f"{manifest.short_id}  seed={manifest.seed}  "
                    f"{window}  {counts}{flag}"
                )
        elif args.query_command == "records":
            rows = engine.select(
                args.kind,
                epoch=args.epoch,
                record_filter=_cli_record_filter(args),
            )
            print(json.dumps(rows, indent=2, sort_keys=True))
        elif args.query_command == "tables":
            print(engine.table(args.name, epoch=args.epoch))
        else:  # diff
            diff = engine.diff(args.old, args.new)
            if args.as_json:
                print(json.dumps(diff.to_document(), indent=2, sort_keys=True))
            else:
                for line in diff.summary_lines():
                    print(line)
    except (StoreError, ValueError) as exc:
        raise CommandError(EXIT_USAGE, f"query failed: {exc}") from exc
    return EXIT_OK


def _calendar(minutes: int):
    from repro.world.clock import SimTime

    return SimTime(minutes).calendar()


def _cmd_serve(args) -> int:
    from repro.serve import ResultsServer

    server = ResultsServer(
        _open_store(args.store),
        host=args.host,
        port=args.port,
        monitor_dir=args.monitor,
        cache_size=args.cache_size,
    )
    print(
        f"serving results store {args.store} on "
        f"http://{server.host}:{server.port} (Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nstopped")
    return EXIT_OK


def _cmd_monitor_run(args) -> int:
    from repro.monitor import (
        AlertConfig,
        MonitorConfig,
        MonitorService,
        MonitorTarget,
        ScheduleConfig,
        SupervisorConfig,
    )

    # Default: every distinct (product, isp) pair, in Table 3 order.
    pairs = args.target or dict.fromkeys(
        (row.product, row.isp_key) for row in PAPER_TABLE3
    )
    targets = [
        MonitorTarget(config_for_row(_table3_row(*pair))) for pair in pairs
    ]
    try:
        config = MonitorConfig(
            schedule=ScheduleConfig(
                base_interval_days=args.base_interval,
                min_interval_days=args.min_interval,
                max_interval_days=args.max_interval,
                retry_interval_days=args.retry_interval,
                quarantine_after=args.quarantine_after,
            ),
            supervisor=SupervisorConfig(
                max_retries=args.max_retries,
                watchdog_seconds=args.watchdog,
            ),
            alerts=AlertConfig(
                hysteresis_rounds=args.hysteresis,
                flap_window=args.flap_window,
                flap_threshold=args.flap_threshold,
            ),
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as exc:
        raise CommandError(
            EXIT_USAGE, f"bad monitor configuration: {exc}"
        ) from exc
    seed = _seed(args)
    pause = args.round_delay
    service = MonitorService(
        Path(args.dir),
        Path(args.store),
        scenario_factory=lambda: build_scenario(seed=seed),
        targets=targets,
        config=config,
        fault_plan=args.fault_plan,
        before_round=(lambda *_: time.sleep(pause)) if pause else None,
    )
    with _journal_errors():
        summary = service.run(args.rounds, resume=args.resume)
    if args.resume and summary.recovery is not None:
        for line in summary.recovery.describe():
            print(f"recovery: {line}")
    for line in summary.describe():
        print(line)
    return EXIT_PARTIAL if summary.degraded else EXIT_OK


def _cmd_monitor_status(args) -> int:
    import json

    from repro.monitor import describe_status, describe_targets, read_status

    status = read_status(Path(args.dir))
    if status is None:
        raise CommandError(EXIT_USAGE, f"no monitor journal in {args.dir}")
    if args.as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
    elif args.monitor_command == "status":
        for line in describe_status(status):
            print(line)
    else:
        for line in describe_targets(status):
            print(line)
    return EXIT_PARTIAL if status["state"] == "DEGRADED" else EXIT_OK


def _cmd_monitor(args) -> int:
    if args.monitor_command == "run":
        return _cmd_monitor_run(args)
    return _cmd_monitor_status(args)


def _cmd_netalyzr(args) -> int:
    scenario = build_scenario(seed=_seed(args))
    unknown = [name for name in args.isp if name not in scenario.world.isps]
    if unknown:
        raise CommandError(EXIT_USAGE, f"unknown ISPs: {unknown}")
    for name, report in survey_isps(scenario.world, args.isp).items():
        attribution = (
            ", ".join(report.attributed_products)
            if report.attributed_products
            else "unattributed"
        )
        state = f"PROXY ({attribution})" if report.proxy_detected else "clean"
        print(f"{name:16s} {state}")
        for finding in report.findings:
            print(f"    [{finding.kind}] {finding.detail}")
    return 0


def _cmd_discover(args) -> int:
    """Search-based discovery: crawl outward from known-blocked URLs.

    Exit taxonomy: 0 for a clean converged run, 3 when the run degraded
    (insufficient probes under a fault plan, or the round budget ran
    out before convergence), 2 on bad invocations.
    """
    from repro.discover import (
        CoverageReport,
        DiscoveryConfig,
        DiscoveryEngine,
        static_baseline,
    )
    from repro.exec.checkpoint import fingerprint
    from repro.exec.executor import Executor
    from repro.exec.resilience import ResilienceConfig, ResilientRunner
    from repro.net.errors import UrlError
    from repro.store import ResultsStore, discovery_epoch
    from repro.world.scenario import ScenarioConfig

    config = DiscoveryConfig(max_rounds=args.rounds)
    fault_plan = args.fault_plan
    scenario_config = None
    if args.population is not None:
        scenario_config = ScenarioConfig(population_size=args.population)
    scenario = build_scenario(seed=_seed(args), config=scenario_config)
    world = scenario.world
    if args.isp not in world.isps:
        raise CommandError(
            EXIT_USAGE,
            f"unknown ISP {args.isp!r}; known: "
            f"{', '.join(sorted(world.isps))}",
        )

    resilience = None
    if fault_plan is not None and fault_plan.active:
        world.install_faults(fault_plan)
        resilience = ResilientRunner(
            ResilienceConfig(max_retries=args.max_retries),
            clock=lambda: world.now,
        )
    executor = Executor(workers=args.workers)
    window_start = world.now.minutes

    baseline = static_baseline(
        world,
        args.isp,
        executor=executor,
        link_latency=args.latency,
        resilience=resilience,
    )
    seeds = args.seed_urls or baseline[:5]
    if not seeds:
        raise CommandError(
            EXIT_HARD,
            f"the static lists found no blocked URLs at {args.isp}; "
            "pass --seed-url to seed discovery explicitly",
        )
    engine = DiscoveryEngine(
        world,
        args.isp,
        config=config,
        executor=executor,
        link_latency=args.latency,
        resilience=resilience,
    )
    try:
        result = engine.run(seeds)
    except (UrlError, ValueError) as exc:
        raise CommandError(EXIT_USAGE, f"bad seed URL: {exc}") from exc

    coverage = CoverageReport.evaluate(result, baseline)
    print(f"discovery from {args.isp} ({len(seeds)} seed URLs):")
    for trace in result.rounds:
        print(f"  {trace.line()}")
    state = "converged" if result.converged else "round budget exhausted"
    print(
        f"{state} after {len(result.rounds)} rounds: "
        f"{len(result.blocked_urls)} blocked URLs on "
        f"{len(result.blocked_hosts)} hosts "
        f"({result.insufficient_count} probes insufficient)"
    )
    print(coverage.describe())

    degraded = result.insufficient_count > 0 or not result.converged
    if args.store:
        identity = {
            "kind": "discovery",
            "seed": _seed(args),
            "isp": args.isp,
            "population": args.population,
            "config": config.identity(),
            "seed_urls": list(result.seed_urls),
        }
        epoch = discovery_epoch(
            result,
            identity=identity,
            fingerprint=fingerprint(identity),
            world=world,
            window=(window_start, world.now.minutes),
            coverage=coverage,
            partial=(
                ("discovery_rounds", "discovery_candidates")
                if degraded
                else ()
            ),
        )
        commit = ResultsStore(Path(args.store)).commit(epoch)
        verb = "committed" if commit.created else "already committed"
        print(f"epoch {commit.epoch_id[:12]} {verb} to {args.store}")
    return EXIT_PARTIAL if degraded else EXIT_OK


_COMMANDS = {
    "study": _cmd_study,
    "scan": _cmd_scan,
    "scan-worker": _cmd_scan_worker,
    "coord": _cmd_coord,
    "identify": _cmd_identify,
    "confirm": _cmd_confirm,
    "probe": _cmd_probe,
    "netalyzr": _cmd_netalyzr,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "monitor": _cmd_monitor,
    "discover": _cmd_discover,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed a usage error (2) or the --help text (0).
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # A downstream reader (``repro query ... | head``) closed the
        # pipe early; that is not an error. Point stdout at devnull so
        # the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
