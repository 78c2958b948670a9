"""Golden pin for the serving API: statuses, ETags and bodies.

Builds the store ``tools/serve_smoke.py`` serves, with the tool's own
builders: two ``run_full_study`` epochs (SmartFilter alone, then the
default products), the small-world discovery epoch and a two-round
monitor. One ``StoreApi`` then answers every target the tool requests,
before and after the discovery epoch lands, plus ``/epochs`` filtered
by each ISP, country and product the manifests name. Every response
with an ETag is asked again with ``If-None-Match``. One SHA-256 over
each response's target, status, ETag and body pins them all;
``/metrics`` is left out because its body holds timings.

A second test sends the same targets from eight threads to one fresh
``StoreApi`` over a fresh ``ResultsStore`` at a 10 µs switch interval:
every body and ETag must equal the serial render.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import threading
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.serve import StoreApi
from repro.store import ResultsStore

SERVE_SHA256 = (
    "a78aa543a940840af197ce00507cc85501c67c811c332a56bb0b803331c3662a"
)
FILTERED_DIMENSIONS = ("isp", "country", "product")
THREADS = 8


def _load_smoke_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "serve_smoke.py"
    spec = importlib.util.spec_from_file_location("serve_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unique(targets):
    return list(dict.fromkeys(targets))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(store root, monitor directory, every target in request order)."""
    smoke = _load_smoke_tool()
    root = tmp_path_factory.mktemp("serve-pins")
    store = smoke.build_store(root / "store")
    targets = [t for group in smoke.smoke_targets(store) for t in group]
    smoke.commit_discovery(store)
    monitor_dir = smoke.build_monitor(root / "monitor")
    targets += [
        t for group in smoke.smoke_targets(store, monitor_dir) for t in group
    ]
    for dimension in FILTERED_DIMENSIONS:
        keys = sorted(
            {
                key
                for manifest in store.manifests()
                for key in manifest.keys.get(dimension, ())
            }
        )
        targets += [
            f"/epochs?{dimension}={quote(key)}" for key in keys + ["absent"]
        ]
    targets = [t for t in _unique(targets) if t != "/metrics"]
    return root / "store", monitor_dir, targets


def _responses(api, targets):
    """target -> (status, ETag, body), each ETag also revalidated."""
    answers = {}
    for target in targets:
        response = api.handle(target)
        answers[target] = (response.status, response.etag, response.body)
        if response.etag is not None:
            again = api.handle(target, if_none_match=response.etag)
            answers[f"{target} If-None-Match"] = (
                again.status,
                again.etag,
                again.body,
            )
    return answers


def _digest(answers) -> str:
    lines = [
        f"{target}\t{status}\t{etag}\t{hashlib.sha256(body).hexdigest()}\n"
        for target, (status, etag, body) in answers.items()
    ]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def test_served_responses_digest(served):
    store_root, monitor_dir, targets = served
    api = StoreApi(ResultsStore(store_root), monitor_dir=monitor_dir)
    answers = _responses(api, targets)
    assert {status for status, _etag, _body in answers.values()} == {
        200,
        304,
        400,
        404,
    }
    assert _digest(answers) == SERVE_SHA256


def test_concurrent_requests_match_the_serial_render(served):
    store_root, monitor_dir, targets = served
    serial = _responses(
        StoreApi(ResultsStore(store_root), monitor_dir=monitor_dir), targets
    )
    api = StoreApi(ResultsStore(store_root), monitor_dir=monitor_dir)
    start = threading.Barrier(THREADS, timeout=30)
    answers, errors = {}, []

    def send(worker):
        # Each thread starts at its own offset, so threads ask for
        # different targets at the same moment.
        shift = worker * len(targets) // THREADS
        start.wait()
        try:
            answers[worker] = _responses(
                api, targets[shift:] + targets[:shift]
            )
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [
        threading.Thread(target=send, args=(worker,))
        for worker in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers == {worker: serial for worker in range(THREADS)}
