"""Golden pin for the always-on monitor: its alert ledger and epochs.

One digest taken at seed 2013 over the nine distinct (product, ISP)
pairs of Table 3, 64 rounds, a snapshot after every round — the
benchmark's monitor workload, shortened. It folds in the bytes of
``alerts.jsonl`` and the store's epoch ids in commit order. Alerts fire
at rounds 46 and 60, so the ledger it pins is not empty.

The same digest must come out when the run stops at round 40 and a
fresh service resumes it to 64, from a snapshot in either layout the
reader accepts: campaign sites as pickled frames, or as the plain list
older snapshots hold.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import pickle
import shutil
import zlib

import pytest

from repro.analysis.paper_data import PAPER_TABLE3
from repro.core.pipeline import config_for_row
from repro.exec.checkpoint import load_latest_snapshot, write_snapshot
from repro.monitor import (
    ALERTS_FILENAME,
    MonitorConfig,
    MonitorService,
    MonitorTarget,
)
from repro.world.scenario import build_scenario

SEED = 2013
ROUNDS = 64
STOP_AT = 40
MONITOR_SHA256 = (
    "bef20f84a5eb702b4b0d746ce41eae4f4e24042ec6ea3f42efa7988d24fc2c33"
)


def table3_targets():
    """One target per distinct (product, ISP) pair of Table 3."""
    seen = set()
    targets = []
    for row in PAPER_TABLE3:
        if (row.product, row.isp_key) not in seen:
            seen.add((row.product, row.isp_key))
            targets.append(MonitorTarget(config_for_row(row)))
    assert len(targets) == 9
    return targets


def make_service(root):
    return MonitorService(
        root / "monitor",
        root / "store",
        scenario_factory=functools.partial(build_scenario, SEED),
        targets=table3_targets(),
        config=MonitorConfig(checkpoint_every=1),
    )


def monitor_digest(service):
    digest = hashlib.sha256()
    digest.update((service.monitor_dir / ALERTS_FILENAME).read_bytes())
    digest.update("\n".join(service.store.epoch_ids()).encode("ascii"))
    return digest.hexdigest()


def pickled_frames(snapshot_path):
    """Whether a snapshot holds its campaign sites as pickled frames."""
    blob = json.loads(snapshot_path.read_text())["blob"]
    return b"join_frames" in zlib.decompress(base64.b64decode(blob))


@pytest.fixture(scope="module")
def stopped(tmp_path_factory):
    """A run stopped after round 40, to be copied and resumed."""
    root = tmp_path_factory.mktemp("stopped")
    make_service(root).run(STOP_AT)
    return root


def test_uninterrupted_run(tmp_path):
    service = make_service(tmp_path)
    summary = service.run(ROUNDS)
    assert summary.rounds_total == ROUNDS and summary.gaps == 0
    assert summary.alerts_recorded == 2
    assert monitor_digest(service) == MONITOR_SHA256
    # A campaign site is final once a snapshot holds it: the newest
    # snapshot's frames decode to the live sites, byte for byte.
    snapshot = load_latest_snapshot(
        service.monitor_dir,
        identity_fingerprint=service.config_fingerprint(),
    )
    assert snapshot.seq == ROUNDS and pickled_frames(snapshot.path)
    saved = snapshot.state["world"]["added_sites"]
    live = service.scenario.world.capture_state(service._baseline_domains)[
        "added_sites"
    ]
    assert len(saved) == len(live) > 0
    assert [pickle.dumps(site) for site in saved] == [
        pickle.dumps(site) for site in live
    ]


@pytest.mark.parametrize("layout", ["frames", "plain"])
def test_resumed_run(stopped, tmp_path, layout):
    shutil.copytree(stopped, tmp_path, dirs_exist_ok=True)
    service = make_service(tmp_path)
    snapshot = load_latest_snapshot(
        service.monitor_dir,
        identity_fingerprint=service.config_fingerprint(),
    )
    assert snapshot.seq == STOP_AT
    if layout == "plain":
        write_snapshot(
            service.monitor_dir,
            seq=snapshot.seq,
            identity_fingerprint=service.config_fingerprint(),
            state=snapshot.state,
        )
    assert pickled_frames(snapshot.path) == (layout == "frames")
    service.run(ROUNDS, resume=True)
    assert service.last_recovery.snapshot_used == snapshot.path.name
    assert monitor_digest(service) == MONITOR_SHA256
