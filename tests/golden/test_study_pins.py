"""Golden pins for the default study: the §3 query stream, the epoch
and the paper's tables.

Six digests taken at seed 2013, all of which must hold across any
refactor or speed-up of the study path:

- the epoch id a default ``FullStudy(workers=1)`` commits (the same
  value the benchmark pins for its study workload);
- a SHA-256 over the Table 1-4 texts that study's report renders, which
  the query engine must render again from the committed epoch;
- a SHA-256 over the markdown report, and one over the JSON export of
  the epoch's rows (the bytes ``repro study --json`` writes);
- a SHA-256 over every identification query the study sends — the
  paper's keyword × ccTLD expansion, 10 keywords × (1 + 122 ccTLDs) =
  1230 queries — folding in each query string, the count its log entry
  records, and its ordered hit list as ``ip:port``;
- a SHA-256 over the ``journal.jsonl`` a journaled default study
  writes. Its snapshots are pickles, whose bytes vary across Python
  versions, so they are decoded and checked instead of hashed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.export import characterization_rows, confirmation_record, to_json
from repro.analysis.report import write_markdown_report
from repro.analysis.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.core.pipeline import FullStudy
from repro.exec.checkpoint import decode_state, list_snapshots
from repro.exec.journal import JOURNAL_FILENAME, read_journal
from repro.geo.maxmind import GeoDatabase
from repro.net.url import COUNTRY_CODE_TLDS
from repro.products.registry import default_registry
from repro.query.views import render_epoch_table
from repro.scan.banner import scan_world
from repro.scan.shodan import ShodanIndex
from repro.store import ResultsStore
from repro.world.scenario import build_scenario

SEED = 2013
STUDY_EPOCH_ID = "2e4b9558042c1fc1709a2924c7cefd830692b20cfa78ea0043b8951b5d6f1def"
QUERY_STREAM_SHA256 = (
    "0a6ebd5712fb2fd0d250a20596d57aff857d5e92211b21d1f49c718090906856"
)
QUERY_COUNT = 1230
TABLES_SHA256 = (
    "e2b614c6117aa869d9f73d96207e0b4f684bbdf0f4bca20591f823c643762c82"
)
JSON_SHA256 = (
    "b1263ceb8d9b9ab7a483cb7e1967474044e04d85bc823470ff5537350f591d66"
)
MARKDOWN_SHA256 = (
    "4775739ffbc07f994a9ff766efbaffc2eb234c53c0421897c27fb9cf6ebe0431"
)
JOURNAL_SHA256 = (
    "c2557e6da35974dd9d722e71a474cdc7be10d06001a650e1d7b2e1f0a3fc83df"
)
JOURNAL_RECORDS = 50
TABLE_NAMES = ("table1", "table2", "table3", "table4")


@pytest.fixture(scope="module")
def default_study():
    """The default study, run once: (study, report)."""
    study = FullStudy(build_scenario(seed=SEED), workers=1)
    return study, study.run()


def test_default_study_epoch_id(default_study, tmp_path):
    study, _report = default_study
    assert study.commit_epoch(ResultsStore(tmp_path)).epoch_id == STUDY_EPOCH_ID


def test_default_study_tables(default_study, tmp_path):
    study, report = default_study
    texts = [
        render_table1(),
        render_table2(report.identification.products or None),
        render_table3(map(confirmation_record, report.confirmations)),
        render_table4(characterization_rows(report)),
    ]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == TABLES_SHA256
    store = ResultsStore(tmp_path)
    manifest = store.manifest(study.commit_epoch(store).epoch_id)
    assert [
        render_epoch_table(store, manifest, name) for name in TABLE_NAMES
    ] == texts


def test_default_study_report(default_study):
    study, report = default_study
    text = to_json(study.epoch(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == JSON_SHA256


def test_default_study_markdown(default_study):
    _study, report = default_study
    text = write_markdown_report(report, seed=SEED)
    digest = hashlib.sha256(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == MARKDOWN_SHA256


def test_identification_query_stream():
    # Built the way FullStudy.run_identification builds its index.
    world = build_scenario(seed=SEED).world
    registry = default_registry()
    geo = GeoDatabase.build_from_world(world)
    index = ShodanIndex(
        scan_world(world, registry.scan_ports()), geolocate=geo.country_code
    )
    digest = hashlib.sha256()
    for keywords in registry.shodan_keywords().values():
        for keyword in keywords:
            for query in [keyword] + [
                f"{keyword} country:{code}"
                for code in sorted(COUNTRY_CODE_TLDS)
            ]:
                hits = index.search(query)
                logged_query, count = index.log.entries[-1]
                assert logged_query == query
                hit_list = ",".join(f"{hit.ip}:{hit.port}" for hit in hits)
                digest.update(f"{query}\t{count}\t{hit_list}\n".encode("utf-8"))
    assert index.log.query_count == QUERY_COUNT
    assert digest.hexdigest() == QUERY_STREAM_SHA256


def test_default_study_journal(tmp_path):
    study = FullStudy(build_scenario(seed=SEED))
    study.run(tmp_path)
    journal = tmp_path / JOURNAL_FILENAME
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == JOURNAL_SHA256
    records, _report = read_journal(journal)
    assert len(records) == JOURNAL_RECORDS
    keys = [unit.key for unit in study.plan()]
    snapshots = list_snapshots(tmp_path)
    assert len(snapshots) == len(keys)
    for path in snapshots:
        document = json.loads(path.read_text(encoding="utf-8"))
        state = decode_state(document)
        assert list(state["results"]) == keys[: document["seq"]]
