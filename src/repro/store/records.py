"""Flattening study outputs into storable epoch records.

An epoch's payload is a handful of *record kinds* — ``installations``
(Figure 1 backing data), ``confirmations`` (Table 3), ``characterizations``
(Table 4) and ``category_probe`` (§4.4) — each a list of plain JSON rows.
The rows are the :mod:`repro.analysis.export` flatteners' rows, the
same ones the report renders its tables from. Confirmation, probe and
discovery rows gain the ISP's country and ASN from the world, so
selecting epochs by country or ASN never has to re-derive ISP facts at
read time.

Record building happens exactly once, at commit time, against the live
world; everything downstream (query engine, serving API) works from the
stored rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.analysis.export import (
    characterization_rows,
    confirmation_record,
    installations_rows,
    probe_record,
)
from repro.exec import checkpoint

if TYPE_CHECKING:  # avoid runtime cycles: records are built *from* these
    from repro.core.confirm import ConfirmationResult
    from repro.core.pipeline import StudyReport
    from repro.world.world import World

#: The record kinds an epoch may carry, in canonical segment order.
RECORD_KINDS = (
    "installations",
    "confirmations",
    "characterizations",
    "category_probe",
    "discovery_rounds",
    "discovery_candidates",
)

#: The index-key dimensions a manifest records and the row field of each.
INDEX_DIMENSIONS = ("country", "asn", "product", "isp", "category")


@dataclass(frozen=True)
class EpochData:
    """A pre-commit epoch payload: identity + window + flat records."""

    identity: Dict[str, Any]
    fingerprint: str
    seed: int
    window: Tuple[int, int]  # (start, end) in sim-clock minutes
    records: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    partial: Tuple[str, ...] = ()


def _located(row: Dict[str, Any], world: "World") -> Dict[str, Any]:
    """``row`` plus its ISP's country and ASN, the index geography."""
    isp = world.isps.get(row["isp"])
    if isp is None:
        return {**row, "country": None, "asn": None}
    return {**row, "country": isp.country.code, "asn": isp.asn}


def build_epoch(
    *,
    identity: Dict[str, Any],
    fingerprint: str,
    seed: int,
    window: Tuple[int, int],
    records: Dict[str, List[Dict[str, Any]]],
    partial: Sequence[str] = (),
) -> EpochData:
    """Assemble an :class:`EpochData`, validating record kinds."""
    unknown = sorted(set(records) - set(RECORD_KINDS))
    if unknown:
        raise ValueError(f"unknown record kinds: {unknown}")
    if window[1] < window[0]:
        raise ValueError("epoch window ends before it starts")
    return EpochData(
        identity=dict(identity),
        fingerprint=fingerprint,
        seed=seed,
        window=(int(window[0]), int(window[1])),
        records={kind: list(rows) for kind, rows in records.items()},
        partial=tuple(partial),
    )


def study_epoch(
    report: "StudyReport",
    *,
    identity: Dict[str, Any],
    fingerprint: str,
    world: "World",
    window: Tuple[int, int],
    partial: Sequence[str] = (),
    record_confidence: bool = False,
) -> EpochData:
    """Flatten one completed (or partial) campaign into an epoch.

    ``record_confidence`` opts the confirmation/characterization rows
    into carrying fused confidences and signal breakdowns; the default
    keeps row bytes (hence epoch ids) identical to pre-fusion commits.
    """
    records: Dict[str, List[Dict[str, Any]]] = {
        "installations": installations_rows(report.identification),
        "confirmations": [
            _located(
                confirmation_record(
                    result, include_confidence=record_confidence
                ),
                world,
            )
            for result in report.confirmations
        ],
        "characterizations": characterization_rows(
            report, include_confidence=record_confidence
        ),
    }
    if report.category_probe is not None:
        records["category_probe"] = [
            _located(probe_record(report.category_probe), world)
        ]
    return build_epoch(
        identity=identity,
        fingerprint=fingerprint,
        seed=report_seed(identity),
        window=window,
        records=records,
        partial=partial,
    )


def confirmation_epoch(
    result: "ConfirmationResult",
    *,
    world: "World",
    round_index: int,
    started_minutes: int,
) -> EpochData:
    """A single-confirmation epoch (one monitoring round).

    The round index and start instant are part of the identity: unlike
    study epochs, two monitoring rounds are distinct observations even
    when their results happen to be identical. The window closes at the
    world's current instant.
    """
    config = result.config
    identity = {
        "kind": "monitoring-round",
        "seed": world.seed,
        "product": config.product_name,
        "isp": config.isp_name,
        "category": config.category_label,
        "round": round_index,
        "started_minutes": started_minutes,
    }
    return build_epoch(
        identity=identity,
        fingerprint=checkpoint.fingerprint(identity),
        seed=world.seed,
        window=(started_minutes, world.now.minutes),
        records={
            "confirmations": [_located(confirmation_record(result), world)]
        },
    )


def discovery_round_record(
    trace: Any, result: Any, world: "World"
) -> Dict[str, Any]:
    """One stored discovery round (convergence-trace row + geography)."""
    row = {
        "isp": result.isp_name,
        "round": trace.index,
        "probed": trace.probed,
        "new_blocked": trace.new_blocked,
        "insufficient": trace.insufficient,
        "queries": trace.queries_issued,
        "enqueued": trace.enqueued,
        "converged": result.converged and trace is result.rounds[-1],
    }
    return _located(row, world)


def discovery_candidate_record(
    candidate: Any, world: "World", isp_name: str
) -> Dict[str, Any]:
    """One probed candidate URL and its fused verdict."""
    row = {
        "isp": isp_name,
        "url": candidate.url,
        "source": candidate.source,
        "round": candidate.round_index,
        "verdict": candidate.verdict,
        "blocked": candidate.blocked,
        "insufficient": candidate.insufficient,
        "product": candidate.vendor,
        "confidence": round(candidate.confidence, 4),
    }
    return _located(row, world)


def discovery_epoch(
    result: Any,
    *,
    identity: Dict[str, Any],
    fingerprint: str,
    world: "World",
    window: Tuple[int, int],
    coverage: Optional[Any] = None,
    partial: Sequence[str] = (),
) -> EpochData:
    """Flatten one discovery run into an epoch.

    ``result`` is a :class:`repro.discover.DiscoveryResult`; typed via
    ``Any`` to keep the store layer import-free of the workloads it
    persists. ``coverage`` (a ``CoverageReport``) annotates the summary
    row with the gain over the static lists.
    """
    summary: Dict[str, Any] = {
        "isp": result.isp_name,
        "round": 0,
        "probed": len(result.candidates),
        "new_blocked": len(result.blocked_urls),
        "insufficient": result.insufficient_count,
        "queries": sum(r.queries_issued for r in result.rounds),
        "enqueued": 0,
        "converged": result.converged,
        "seed_urls": list(result.seed_urls),
        "blocked_urls": list(result.blocked_urls),
    }
    if coverage is not None:
        summary["static_blocked"] = coverage.static_blocked
        summary["discovered_blocked"] = coverage.discovered_blocked
        summary["gain_ratio"] = round(coverage.gain_ratio, 4)
    records = {
        "discovery_rounds": [_located(summary, world)]
        + [
            discovery_round_record(trace, result, world)
            for trace in result.rounds
        ],
        "discovery_candidates": [
            discovery_candidate_record(candidate, world, result.isp_name)
            for candidate in result.candidates
        ],
    }
    return build_epoch(
        identity=identity,
        fingerprint=fingerprint,
        seed=report_seed(identity),
        window=window,
        records=records,
        partial=partial,
    )


def report_seed(identity: Dict[str, Any]) -> int:
    seed = identity.get("seed")
    if not isinstance(seed, int):
        raise ValueError("epoch identity must carry an integer 'seed'")
    return seed
