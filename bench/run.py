"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--spans FILE] [--runs N] [--out FILE]``.

One workload: measures it in this process and prints every metric by
name and unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced unit and reports the per-layer metrics (``--spans`` keeps the
spans as JSONL). A wrong output digest prints ``"correct": false`` with
no metrics and exits 1. CPU times are read from a
:class:`bench.hostspeed.ScaledCpuClock`.

No ``--workload`` (or ``--runs`` above 1): runs every named workload
``--runs`` times, each in a fresh interpreter, and writes all results
to ``--out``.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Run as a script, this directory heads the path; the repo root replaces
# it, so bench/trace.py is imported as bench.trace and never shadows the
# standard library's trace module.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    del sys.path[0]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src")) if p not in sys.path]

from bench import hostspeed, loadgen, metrics, stats, trace, workloads  # noqa: E402

WORKLOADS = {
    cls.name: cls
    for cls in (
        workloads.Study,
        workloads.Scan,
        workloads.Discover,
        workloads.Monitor,
        workloads.Serve,
    )
}

#: Set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 3

WORK_DIR = ROOT / ".bench_work"


@dataclass
class Measurement:
    values: Dict[str, float]
    attempted: int
    failed: int
    digests: List[str]
    problems: List[str] = field(default_factory=list)
    records: Optional[List[Dict[str, Any]]] = None
    #: Every unit's CPU time, from which ``cpu_s`` is taken.
    cpu_samples: List[float] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> None:
    """Import the program, failing outside a full checkout, and refuse
    one imported from anywhere but this checkout's src/."""
    import repro

    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"measuring {repro.__file__}, not this checkout's src/")


def setup_probe(name: str, seed: int) -> float:
    """Scaled CPU seconds a fresh interpreter spends importing the
    program and building one unit's starting state (measured inside the
    child)."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--setup-probe",
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(completed.stdout.strip().splitlines()[-1])


# --------------------------------------------------------- unit workloads
def timed_unit(
    workload: workloads.Workload,
    clock: hostspeed.ScaledCpuClock,
    tracer: Optional[trace.Tracer] = None,
):
    """(result, wall, cpu reading, setup+unit seconds) of one fresh
    unit; a tracer, if given, is installed for its set-up and run."""
    begun = time.perf_counter()
    with tracer or contextlib.nullcontext():
        state = workload.setup()
        gc.collect()
        started, cpu_started = time.perf_counter(), clock.read()
        result = workload.run(state)
        wall = time.perf_counter() - started
        cpu = clock.read() - cpu_started
    try:
        result.problems += workload.verify(state, result)
    finally:
        workload.close(state)
    return result, wall, cpu, time.perf_counter() - begun


def measure_units(
    workload: workloads.Workload, seconds: float, clock: hostspeed.ScaledCpuClock
) -> Measurement:
    """Set-up samples, then fresh units until the next would overrun
    ``seconds`` (always at least one). Peak memory is read after the
    first unit: how many units fit depends on the host's speed, and
    the allocator keeps some of each unit's memory for the next."""
    setups = [setup_probe(workload.name, workload.seed) for _ in range(SETUP_SAMPLES)]
    units = []
    costs: List[float] = []
    cpus: List[float] = []
    begun = time.perf_counter()
    while True:
        result, wall, cpu, cost = timed_unit(workload, clock)
        units.append((result, wall, cpu))
        costs.append(cost)
        scale = workload.cpu_items / result.items if workload.cpu_items else 1.0
        cpus.append(cpu.scaled * scale)
        if len(units) == 1:
            first_unit_rss = peak_rss_mb()
        if time.perf_counter() - begun + statistics.median(costs) > seconds:
            break
    return Measurement(
        values={
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": first_unit_rss,
        },
        cpu_samples=cpus,
        attempted=sum(result.attempted for result, _, _ in units),
        failed=sum(result.failed for result, _, _ in units),
        digests=[result.digest for result, _, _ in units],
        problems=[p for result, _, _ in units for p in result.problems],
    )


def measure_units_traced(
    workload: workloads.Workload, clock: hostspeed.ScaledCpuClock
) -> Measurement:
    """One untraced unit, then one traced unit (set-up included)."""
    plain, plain_wall, plain_cpu, _ = timed_unit(workload, clock)
    tracer = trace.Tracer()
    traced, _, traced_cpu, _ = timed_unit(workload, clock, tracer)
    records = tracer.records()
    measured = dict(traced.measured)
    measured["wall.unit_s"] = plain_wall
    measured["wall.items_per_s"] = plain.items / plain_wall
    measured["host.slowdown"] = plain_cpu.raw / plain_cpu.scaled
    measured["host.system_s"] = plain_cpu.system
    measured["trace.overhead_frac"] = traced_cpu.scaled / plain_cpu.scaled - 1.0
    return Measurement(
        values=metrics.layer_values(trace.summarize(records), measured),
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        digests=[plain.digest, traced.digest],
        problems=plain.problems + traced.problems,
        records=records,
    )


# ------------------------------------------------------------------- serve
@dataclass
class Pass:
    """One closed-loop pass over a fixed number of requests, and the
    server CPU time it took."""

    result: loadgen.LoadResult
    cpu: hostspeed.Reading
    warm: loadgen.LoadResult

    @property
    def requests(self) -> int:
        return len(self.result.outcomes)

    @property
    def wall(self) -> float:
        return self.result.ended - self.result.started


def serve_pass(
    load: loadgen.Load, server: workloads.ServerProcess, seconds: float
) -> Pass:
    """A warm-up block, then the measured pass: a fixed number of
    requests per second of run time, so that every run at a seed
    measures the same requests."""
    warm = load.closed(workloads.SERVE_BLOCK)
    started = server.cpu()
    result = load.closed(int(workloads.SERVE_PASS_RATE * seconds))
    return Pass(result, server.cpu() - started, warm)


def _serve_measurement(
    values: Dict[str, float],
    fixture: workloads.ServeFixture,
    results: List[loadgen.LoadResult],
    records: Optional[List[Dict[str, Any]]] = None,
) -> Measurement:
    return Measurement(
        values=values,
        attempted=sum(len(result.outcomes) for result in results),
        failed=sum(result.failed for result in results),
        digests=[fixture.digest],
        problems=list(fixture.problems),
        records=records,
    )


def measure_serve(serve: workloads.Serve, seconds: float) -> Measurement:
    """Three server starts (the set-up samples); the measured pass runs
    against the last."""
    fixture = serve.fixture()
    setups = []
    server = None
    for _ in range(SETUP_SAMPLES):
        if server is not None:
            server.stop()
        server = workloads.ServerProcess(fixture.store_dir)
        setups.append(server.ready_cpu_s)
    try:
        load, close = serve.load(fixture, server)
        try:
            measured = serve_pass(load, server, seconds)
            rss = server.peak_rss_mb()
        finally:
            close()
    finally:
        server.stop()
    values = {
        "setup_s": statistics.median(setups),
        "cpu_s": measured.cpu.scaled / measured.requests * workloads.SERVE_BLOCK,
        "peak_rss_mb": rss,
    }
    return _serve_measurement(values, fixture, [measured.warm, measured.result])


def measure_serve_traced(
    serve: workloads.Serve, seconds: float, spans: Path
) -> Measurement:
    """Untraced server: a pass of half the length, then the open-loop
    rate ladder. Traced server: the same pass, for the spans."""
    fixture = serve.fixture()
    passes: Dict[bool, Pass] = {}
    ladder: Dict[int, loadgen.LoadResult] = {}
    for traced in (False, True):
        server = workloads.ServerProcess(
            fixture.store_dir, spans=spans if traced else None
        )
        try:
            load, close = serve.load(fixture, server)
            try:
                passes[traced] = serve_pass(load, server, seconds / 2)
                if traced:
                    counters = server.metrics()["counters"]
                else:
                    for rate, duration in workloads.SERVE_OPEN_LOOPS:
                        ladder[rate] = load.open(rate, duration)
            finally:
                close()
        finally:
            server.stop()
    records = trace.read_jsonl(str(spans))
    summary = trace.summarize(records)
    handle = summary.get("serve.handle", {"calls": 0, "total_s": 0.0})
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    plain, traced_pass = passes[False], passes[True]
    latencies = [outcome.latency for outcome in plain.result.outcomes]
    measured = {
        "wall.unit_s": plain.wall / plain.requests * workloads.SERVE_BLOCK,
        "wall.items_per_s": plain.requests / plain.wall,
        "host.slowdown": plain.cpu.raw / plain.cpu.scaled,
        "host.system_s": plain.cpu.system / plain.requests * workloads.SERVE_BLOCK,
        "trace.overhead_frac": (traced_pass.cpu.scaled / traced_pass.requests)
        / (plain.cpu.scaled / plain.requests)
        - 1.0,
        "serve.cache.hit_frac": hits / max(hits + misses, 1),
        "serve.server_cpu_us_per_req": plain.cpu.scaled / plain.requests * 1e6,
        # Both terms unscaled, user and kernel time, from the traced
        # server: its CPU per request, less the handler's own.
        "serve.http_overhead_us_per_req": (
            (traced_pass.cpu.raw + traced_pass.cpu.system) / traced_pass.requests
            - handle["total_s"] / max(handle["calls"], 1)
        )
        * 1e6,
        "serve.bytes_per_req": statistics.mean(
            outcome.size for outcome in plain.result.outcomes
        ),
        "serve.req_p50_ms.closed": stats.percentile(latencies, 50) * 1e3,
        "serve.req_p99_ms.closed": stats.tail(latencies, 99) * 1e3,
        "serve.gen_late_ms_max": max(
            outcome.late for result in ladder.values() for outcome in result.outcomes
        )
        * 1e3,
    }
    for rate, result in ladder.items():
        latencies = [outcome.latency for outcome in result.outcomes]
        measured[f"serve.req_p50_ms.r{rate}"] = stats.percentile(latencies, 50) * 1e3
        measured[f"serve.req_p99_ms.r{rate}"] = stats.tail(latencies, 99) * 1e3
    results = [r for found in passes.values() for r in (found.warm, found.result)]
    results += list(ladder.values())
    return _serve_measurement(
        metrics.layer_values(summary, measured), fixture, results, records
    )


# ------------------------------------------------------------------ checks
def check(name: str, seed: int, measurement: Measurement) -> List[str]:
    """Output problems: failed operations (every workload runs
    fault-free), unit digests that disagree (with each other, or traced
    with untraced) or differ from the pinned digest."""
    problems = list(measurement.problems)
    if measurement.failed:
        problems.append(
            f"{measurement.failed} of {measurement.attempted} operations failed"
        )
    digests = set(measurement.digests)
    if len(digests) > 1:
        problems.append(f"units produced different digests: {sorted(digests)}")
    pinned = workloads.PINNED[name]
    if seed == workloads.PINNED_SEED and digests != {pinned}:
        problems.append(f"digest {sorted(digests)} is not the pinned {pinned}")
    return problems


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    spans: Optional[str],
    clock: hostspeed.ScaledCpuClock,
) -> Measurement:
    workload = WORKLOADS[name](seed, Path(tempfile.mkdtemp(dir=WORK_DIR)))
    try:
        if isinstance(workload, workloads.Serve):
            if traced:
                target = Path(spans) if spans else workload.work_dir / "spans.jsonl"
                return measure_serve_traced(workload, seconds, target)
            return measure_serve(workload, seconds)
        if traced:
            measurement = measure_units_traced(workload, clock)
            if spans:
                trace.write_jsonl(spans, measurement.records)
            return measurement
        return measure_units(workload, seconds, clock)
    finally:
        shutil.rmtree(workload.work_dir, ignore_errors=True)


def result_line(
    measurement: Measurement, problems: List[str], traced: bool
) -> Dict[str, Any]:
    names = metrics.PER_LAYER if traced else metrics.END_TO_END
    return {
        "correct": not problems,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {}
        if problems
        else {
            name: {"value": measurement.values[name], "unit": unit}
            for name, unit, _ in names
        },
    }


def machine() -> Dict[str, Any]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


# -------------------------------------------------------------------- main
def run_one(args: argparse.Namespace, clock: hostspeed.ScaledCpuClock) -> int:
    traced = bool(args.trace)
    measurement = measure(
        args.workload, args.seed, args.seconds, traced, args.spans, clock
    )
    problems = check(args.workload, args.seed, measurement)
    line = result_line(measurement, problems, traced)
    for problem in problems:
        print(f"{args.workload}: INCORRECT: {problem}")
    for name, entry in line["metrics"].items():
        print(f"{args.workload:9s} {name:40s} {entry['value']:14.6f} {entry['unit']}")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "digests": measurement.digests,
            "cpu_samples": measurement.cpu_samples,
            "problems": problems,
            "result": line,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def run_many(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for round_index in range(args.runs):
        for name in names:
            record_path = WORK_DIR / f"run-{os.getpid()}-{name}-{round_index}.json"
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(record_path),
            ]
            if args.spans:
                spans = Path(args.spans)
                per_workload = spans.with_name(f"{spans.stem}.{name}{spans.suffix}")
                command += ["--spans", str(per_workload)]
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if not record_path.exists():
                print(f"{name}: run failed (exit {completed.returncode})")
                return completed.returncode or 1
            runs.append(json.loads(record_path.read_text()))
            record_path.unlink()
    correct = all(run["result"]["correct"] for run in runs)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"machine": machine(), "runs": runs}, indent=1) + "\n"
        )
    print(json.dumps({"correct": correct, "runs": len(runs)}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSONL")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="write the run records here as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.setup_probe or (args.workload and args.runs == 1)):
        import_program()
        WORK_DIR.mkdir(exist_ok=True)
        return run_many(args)

    with hostspeed.ScaledCpuClock() as clock:
        # Started first, so that a probe's set-up time includes the import.
        import_program()
        WORK_DIR.mkdir(exist_ok=True)
        if not args.setup_probe:
            return run_one(args, clock)
        workload = WORKLOADS[args.workload](
            args.seed, Path(tempfile.mkdtemp(dir=WORK_DIR))
        )
        try:
            if isinstance(workload, workloads.Serve):
                raise SystemExit("serve set-up is timed by starting its server")
            workload.close(workload.setup())
            print(clock.read().scaled)
        finally:
            shutil.rmtree(workload.work_dir, ignore_errors=True)
        return 0


if __name__ == "__main__":
    sys.exit(main())
