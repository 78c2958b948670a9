"""Compare two sets of benchmark runs: ``python bench/compare.py A B``.

A and B are files written by ``bench/run.py --out``; ``FILE#NAME``
selects the set NAME of a file holding several (``bench/baseline.json``
holds sets ``A`` and ``B``). For every workload and end-to-end metric it
prints one row: each side's first quartile, median and third quartile,
the change of B's median against A's, the bound from ``BENCHMARK.json``
and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``REGRESSION``
    it is.
``unresolved``
    either side's run-to-run spread (interquartile distance over the
    median) is wider than the bound, so the medians cannot be told
    apart at that bound — unless every B run beats every A run.

A workload with a run that failed the correctness gate (``correct``
false, or any failed operation) gets one ``INCORRECT`` row instead, and
one with no runs on a side gets a ``MISSING`` row. Exits 1 when any row
is a regression, incorrect or missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]  # run only as a script; see bench/run.py

from bench import stats  # noqa: E402


def load_runs(spec: str) -> List[Dict[str, Any]]:
    """The untraced runs of ``FILE`` or ``FILE#SET``."""
    path, _, name = spec.partition("#")
    document = json.loads(Path(path).read_text())
    runs = document["sets"][name] if name else document["runs"]
    return [run for run in runs if not run["trace"]]


def incorrect(runs: List[Dict[str, Any]], workload: str) -> int:
    """Runs of ``workload`` that failed the correctness gate."""
    return sum(
        1
        for run in runs
        if run["workload"] == workload
        and not (run["result"]["correct"] and run["result"]["failed"] == 0)
    )


def values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload
    ]


def verdict(
    old: List[float], new: List[float], better: str, bound: float
) -> Tuple[float, str]:
    """(signed change of the median, positive = worse; verdict)."""
    old_median = stats.quartiles(old)[1]
    new_median = stats.quartiles(new)[1]
    change = (new_median - old_median) / old_median
    if better == "higher":
        change = -change
    if max(stats.spread(old), stats.spread(new)) > bound:
        beats = (
            min(new) > max(old) if better == "higher" else max(new) < min(old)
        )
        return change, "ok" if beats else "unresolved"
    return change, "REGRESSION" if change > bound else "ok"


def _cell(samples: List[float]) -> str:
    q1, median, q3 = stats.quartiles(samples)
    return f"{q1:11.4g} {median:11.4g} {q3:11.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline runs: FILE or FILE#SET")
    parser.add_argument("b", help="candidate runs: FILE or FILE#SET")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    old_runs, new_runs = load_runs(args.a), load_runs(args.b)

    header = (
        f"{'workload':9s} {'metric':12s} {'A q1':>11s} {'A median':>11s} "
        f"{'A q3':>11s} {'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    )
    print(header)
    failures = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        bad = (incorrect(old_runs, workload), incorrect(new_runs, workload))
        if any(bad):
            print(f"{workload:9s} INCORRECT: {bad[0]} A run(s), {bad[1]} B run(s)")
            failures += 1
            continue
        for metric in benchmark["end_to_end"]:
            old = values(old_runs, workload, metric["name"])
            new = values(new_runs, workload, metric["name"])
            if not old or not new:
                print(f"{workload:9s} {metric['name']:12s} MISSING: no runs on one side")
                failures += 1
                continue
            change, outcome = verdict(old, new, metric["better"], metric["bound"])
            failures += outcome == "REGRESSION"
            print(
                f"{workload:9s} {metric['name']:12s} {_cell(old)} {_cell(new)} "
                f"{change:+8.1%} {metric['bound']:6.0%}  {outcome}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
