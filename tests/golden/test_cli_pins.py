"""Golden pins for the command-line contract: options, usage errors, exits.

The 0/1/2/3 exit codes are what make repeated runs of the method
scriptable, so the interface is pinned independently of how
``repro.cli`` is built:

- one SHA-256 over a canonical walk of every parser reachable from
  ``build_parser()``: descriptions, subcommands, and each action's
  option strings, dest, default, choices, nargs, action class, const,
  metavar and help text. Each action's ``type`` is left out on purpose,
  and so are ``format_help()`` bytes, which depend on the terminal
  width and on the Python version;
- every usage-error path exits 2 with nothing on stdout and a key
  phrase on stderr: the flag for a range check, otherwise the
  offending value or the message prefix. An argparse ``SystemExit``
  counts as its code;
- ``--fault-plan ''`` means no fault plan, so it commits the same epoch
  as a run without the flag;
- ``python -m repro`` exits with the same codes as ``main()``;
- one SHA-256 over what ``identify``, ``confirm`` and ``probe`` print
  at seed 2013: Figure 1, a Table 3 row and the YemenNet probe;
- one SHA-256 over what two ``discover --store`` runs print and the
  epoch ids they commit: one that converges (exit 0) and one whose
  round budget runs out first (exit 3, a partial epoch).

The hard-failure (1) and partial (3) exits are covered by
``tests/core/test_cli.py`` and not repeated here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.store import ResultsStore

SRC = Path(__file__).resolve().parents[2] / "src"
OPTION_TABLE_ROWS = 144
OPTION_TABLE_SHA256 = (
    "e6f7f1bf7a1bb224b61e0fab412c3b0ec5cec7b5a48143e30496ba40b5f6aa8a"
)
EMPTY_PLAN_EPOCH = "58944ce70e1b"
SINGLE_STEP_STDOUT_SHA256 = (
    "ed9fc182c7dd732eb2794e15bd04de22e1f7557f32ac8c08f83787e0c5a350ee"
)
SINGLE_STEP_COMMANDS = [
    ["--seed", "2013", "identify"],
    [
        "--seed", "2013", "confirm",
        "--product", "McAfee SmartFilter", "--isp", "etisalat",
    ],
    ["--seed", "2013", "probe", "--isp", "yemennet"],
]
DISCOVER_STDOUT_SHA256 = (
    "05ee4b1fc2ab1650effee1bb17005a178f731f6075099c5a1768971484bbd494"
)
DISCOVER_RUNS = [
    ("converged", [], 0),
    ("partial", ["--rounds", "6"], 3),
]


def _option_rows(parser):
    rows = [
        {
            "prog": parser.prog,
            "description": parser.description,
            "usage": parser.usage,
        }
    ]
    for action in parser._actions:
        row = {
            "prog": parser.prog,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": repr(action.default),
            "required": action.required,
            "choices": None,
            "nargs": action.nargs,
            "action": type(action).__name__,
            "const": repr(action.const),
            "metavar": action.metavar,
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            row["choices"] = [
                [choice.dest, choice.help]
                for choice in action._choices_actions
            ]
            rows.append(row)
            for sub in action.choices.values():
                rows.extend(_option_rows(sub))
        else:
            if action.choices is not None:
                row["choices"] = list(action.choices)
            rows.append(row)
    return rows


def test_option_table():
    rows = _option_rows(build_parser())
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert len(rows) == OPTION_TABLE_ROWS
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        OPTION_TABLE_SHA256
    )


_SCAN = ["scan", "--store", "{tmp}/s", "--hosts", "1000"]
_COORD = _SCAN + ["--coordinator", "{tmp}/c"]
_MONITOR = ["monitor", "run", "--dir", "{tmp}/m", "--store", "{tmp}/s"]
_SMALL_WORLD = ["--population", "200"]

#: (case id, argv, key phrase on stderr); ``{tmp}`` is a fresh
#: directory holding an empty ``empty/`` subdirectory.
USAGE_ERRORS = [
    # Range checks.
    ("study-workers", ["study", "--workers", "0"], "--workers"),
    ("study-latency", ["study", "--latency", "-1"], "--latency"),
    ("study-max-retries", ["study", "--max-retries", "-1"], "--max-retries"),
    (
        "study-checkpoint-every",
        ["study", "--checkpoint-every", "0"],
        "--checkpoint-every",
    ),
    ("study-shards", ["study", "--shards", "0"], "--shards"),
    ("scan-hosts", _SCAN + ["--hosts", "-1"], "--hosts"),
    ("scan-shards", _SCAN + ["--shards", "0"], "--shards"),
    ("scan-batch-size", _SCAN + ["--batch-size", "0"], "--batch-size"),
    ("scan-workers", _SCAN + ["--workers", "0"], "--workers"),
    ("scan-window", _SCAN + ["--window", "0"], "--window"),
    ("scan-latency", _SCAN + ["--latency", "-1"], "--latency"),
    (
        "scan-local-workers",
        _COORD + ["--local-workers", "-1"],
        "--local-workers",
    ),
    ("scan-lease-ttl", _COORD + ["--lease-ttl", "0"], "--lease-ttl"),
    (
        "scan-straggler-after",
        _COORD + ["--straggler-after", "0"],
        "--straggler-after",
    ),
    ("scan-max-attempts", _COORD + ["--max-attempts", "0"], "--max-attempts"),
    ("scan-worker-poll", ["scan-worker", "{tmp}/c", "--poll", "0"], "--poll"),
    (
        "serve-cache-size",
        ["serve", "--store", "{tmp}/s", "--cache-size", "-1"],
        "--cache-size",
    ),
    ("serve-port-high", ["serve", "--store", "{tmp}/s", "--port", "70000"], "--port"),
    ("serve-port-negative", ["serve", "--store", "{tmp}/s", "--port", "-5"], "--port"),
    ("monitor-rounds", _MONITOR + ["--rounds", "0"], "--rounds"),
    ("monitor-round-delay", _MONITOR + ["--round-delay", "-1"], "--round-delay"),
    ("discover-workers", ["discover", "--workers", "0"], "--workers"),
    ("discover-latency", ["discover", "--latency", "-1"], "--latency"),
    (
        "discover-max-retries",
        ["discover", "--max-retries", "-1"],
        "--max-retries",
    ),
    ("discover-population", ["discover", "--population", "0"], "--population"),
    ("study-latency-nan", ["study", "--latency", "nan"], "--latency"),
    ("scan-latency-nan", _SCAN + ["--latency", "nan"], "--latency"),
    ("scan-latency-inf", _SCAN + ["--latency", "inf"], "--latency"),
    (
        "scan-lease-ttl-nan",
        _COORD
        + ["--local-workers", "0", "--lease-ttl", "nan", "--wait-timeout", "1"],
        "--lease-ttl",
    ),
    (
        "scan-wait-timeout",
        _COORD + ["--local-workers", "0", "--wait-timeout", "-1"],
        "--wait-timeout",
    ),
    (
        "scan-wait-timeout-nan",
        _COORD + ["--local-workers", "1", "--wait-timeout", "nan"],
        "--wait-timeout",
    ),
    (
        "scan-wait-timeout-inf",
        _COORD + ["--local-workers", "1", "--wait-timeout", "inf"],
        "--wait-timeout",
    ),
    ("identify-coverage", ["identify", "--coverage", "2"], "--coverage"),
    ("identify-coverage-nan", ["identify", "--coverage", "nan"], "--coverage"),
    (
        "query-min-confidence",
        [
            "query", "--store", "{tmp}/empty", "records",
            "--kind", "confirmations", "--min-confidence", "2",
        ],
        "--min-confidence",
    ),
    # Values no range check can express.
    ("study-fault-plan", ["study", "--fault-plan", "bogus=1"], "bad --fault-plan"),
    ("scan-fault-plan", _SCAN + ["--fault-plan", "bogus=1"], "bad --fault-plan"),
    (
        "monitor-fault-plan",
        _MONITOR + ["--fault-plan", "bogus=1"],
        "bad --fault-plan",
    ),
    (
        "discover-fault-plan",
        ["discover", "--fault-plan", "bogus=1"],
        "bad --fault-plan",
    ),
    ("study-products", ["study", "--products", "Nope"], "Nope"),
    ("scan-products", _SCAN + ["--products", "Nope"], "Nope"),
    ("identify-products", ["identify", "--products", "Nope"], "Nope"),
    ("study-resume", ["study", "--resume"], "--resume requires --journal"),
    ("monitor-target-malformed", _MONITOR + ["--target", "nocolon"], "nocolon"),
    (
        "monitor-target-unknown",
        _MONITOR + ["--target", "Websense:nowhere"],
        "nowhere",
    ),
    (
        "monitor-min-interval",
        _MONITOR + ["--min-interval", "100"],
        "bad monitor configuration",
    ),
    (
        "monitor-watchdog-nan",
        _MONITOR + ["--rounds", "1", "--watchdog", "nan"],
        "bad monitor configuration",
    ),
    (
        "monitor-max-interval-inf",
        _MONITOR + ["--rounds", "1", "--max-interval", "inf"],
        "bad monitor configuration",
    ),
    (
        "monitor-retry-interval-nan",
        _MONITOR + ["--rounds", "1", "--retry-interval", "nan"],
        "bad monitor configuration",
    ),
    (
        "monitor-slow-seconds-nan",
        _MONITOR + ["--rounds", "1", "--fault-plan", "slow=1,slow_seconds=nan"],
        "bad --fault-plan",
    ),
    ("discover-rounds", ["discover", "--rounds", "0"] + _SMALL_WORLD, "--rounds"),
    (
        "discover-seed-url",
        ["discover", "--seed-url", "not a url"] + _SMALL_WORLD,
        "bad seed URL",
    ),
    # Missing or unusable state on disk.
    (
        "query-missing-store",
        ["query", "--store", "{tmp}/absent", "epochs"],
        "no results store",
    ),
    (
        "query-empty-store",
        ["query", "--store", "{tmp}/empty", "epochs"],
        "no committed epochs",
    ),
    ("serve-missing-store", ["serve", "--store", "{tmp}/absent"], "no results store"),
    ("serve-empty-store", ["serve", "--store", "{tmp}/empty"], "no committed epochs"),
    ("scan-worker-missing", ["scan-worker", "{tmp}/absent"], "cannot join"),
    (
        "coord-status-missing",
        ["coord", "status", "{tmp}/absent"],
        "coord status failed",
    ),
    (
        "monitor-status-no-journal",
        ["monitor", "status", "--dir", "{tmp}/empty"],
        "no monitor journal",
    ),
    (
        "monitor-targets-no-journal",
        ["monitor", "targets", "--dir", "{tmp}/empty"],
        "no monitor journal",
    ),
    # Names the scenario or Table 3 does not know.
    ("probe-unknown-isp", ["probe", "--isp", "nowhere"], "nowhere"),
    ("netalyzr-unknown-isp", ["netalyzr", "--isp", "nowhere"], "nowhere"),
    (
        "discover-unknown-isp",
        ["discover", "--isp", "nowhere"] + _SMALL_WORLD,
        "nowhere",
    ),
    (
        "confirm-unknown-pair",
        ["confirm", "--product", "Websense", "--isp", "bayanat"],
        "known (product, isp) pairs",
    ),
    (
        "confirm-unknown-category",
        [
            "confirm", "--product", "McAfee SmartFilter", "--isp", "etisalat",
            "--category", "Nope",
        ],
        "'Nope'",
    ),
    # Rejected by argparse itself.
    ("no-subcommand", [], "required"),
    ("unknown-subcommand", ["bogus"], "bogus"),
    ("seed-not-int", ["--seed", "x", "identify"], "--seed"),
    ("int-not-int", ["study", "--workers", "x"], "invalid int value: 'x'"),
    ("float-not-float", ["study", "--latency", "x"], "invalid float value: 'x'"),
    ("scan-without-store", ["scan"], "--store"),
    ("coord-without-subcommand", ["coord"], "required"),
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv,phrase",
    [case[1:] for case in USAGE_ERRORS],
    ids=[case[0] for case in USAGE_ERRORS],
)
def test_usage_error(tmp_path, capsys, argv, phrase):
    (tmp_path / "empty").mkdir()
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert phrase in err


@pytest.mark.parametrize("flag", [[], ["--fault-plan", ""]], ids=["absent", "empty"])
def test_empty_fault_plan_is_no_fault_plan(tmp_path, capsys, flag):
    argv = ["study", "--products", "McAfee SmartFilter", "--store", str(tmp_path)]
    assert main(argv + flag) == 0
    out = capsys.readouterr().out
    assert f"epoch {EMPTY_PLAN_EPOCH} committed to {tmp_path}" in out


def test_single_step_stdout(capsys):
    digest = hashlib.sha256()
    for argv in SINGLE_STEP_COMMANDS:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8") + b"\0")
    assert digest.hexdigest() == SINGLE_STEP_STDOUT_SHA256


def test_discover_stdout_and_epochs(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, extra, code in DISCOVER_RUNS:
        store = tmp_path / name
        argv = ["--seed", "2013", "discover", "--population", "220"]
        assert main(argv + extra + ["--store", str(store)]) == code
        out = capsys.readouterr().out.replace(str(store), "{store}")
        ids = "\n".join(ResultsStore(store).epoch_ids())
        digest.update(out.encode("utf-8") + b"\0" + ids.encode("utf-8") + b"\0")
    assert digest.hexdigest() == DISCOVER_STDOUT_SHA256


@pytest.mark.parametrize(
    "argv,code",
    [([], 2), (["--help"], 0), (["study", "--workers", "0"], 2)],
    ids=["no-arguments", "help", "usage-error"],
)
def test_process_exit_code(argv, code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
