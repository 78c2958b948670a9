"""Read-only JSON serving API over a results store.

Stdlib-only: a :class:`http.server.ThreadingHTTPServer` front end over a
pure request-handling core (:class:`StoreApi`) that tests and the smoke
harness can also drive in-process. Endpoints::

    GET /healthz                              liveness + epoch count
    GET /metrics                              execution metrics snapshot
    GET /epochs                               paginated epoch listing
    GET /epochs/<id>                          one epoch's manifest
    GET /epochs/<id>/records/<kind>           paginated record rows
    GET /epochs/<id>/tables/<name>            canonical table rendering
    GET /epochs/<id>/countries/<cc>           per-country drill-down
    GET /epochs/<id>/products/<name>          per-product drill-down
    GET /diff?old=<id>&new=<id>               longitudinal diff (default:
                                              the two newest epochs)
    GET /monitor/status                       monitor fold (state, rounds,
                                              gaps, buffered, recovery)
    GET /monitor/targets                      paginated schedule table
    GET /monitor/alerts                       paginated alert ledger

The ``/monitor/*`` endpoints exist only when the server was given a
monitor directory (``repro serve --monitor DIR``); they fold the
monitor's durable journal and alert ledger on demand, so they serve a
live monitor, a killed one, and a finished one alike. Their ETags hash
the monitor files' bytes instead of the store digest, with identical
``If-None-Match``/304 semantics.

Epoch ids may be unique prefixes. Listing/record endpoints accept
``page`` / ``per_page`` plus the record-filter dimensions (``country``,
``asn``, ``product``, ``isp``, ``category``) and ``min_confidence`` (a
row-level floor on fused verdict confidence; rows committed without
confidence recording pass any floor). ``page``, ``per_page`` and
``asn`` are runs of ASCII digits and ``min_confidence`` is ASCII text;
anything else is a 400.

Caching: every cacheable response carries a *strong* ETag derived from
epoch content hashes (epoch ids are SHA-256s of epoch content, so a
digest over the ids involved plus the request key is a digest of the
response's full provenance); ``If-None-Match`` short-circuits to 304
before any rendering. Below that sits a read-through LRU keyed by the
request, so a cold render happens once per (request, store state). Hit
rates, 304s, and request latencies are recorded through
:class:`repro.exec.metrics.Metrics`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from repro.exec.journal import JOURNAL_FILENAME
from repro.exec.metrics import Metrics
from repro.monitor.alerts import ALERTS_FILENAME, read_alerts
from repro.monitor.status import read_status
from repro.net.ip import is_ascii_number
from repro.query import QueryEngine, RecordFilter, TABLE_NAMES
from repro.store import RECORD_KINDS, ResultsStore, StoreError, UnknownEpoch

DEFAULT_PAGE_SIZE = 50
MAX_PAGE_SIZE = 500

_CONTENT_TYPE = "application/json; charset=utf-8"


class ApiError(Exception):
    """A request that cannot be served; maps to an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class ApiResponse:
    """One computed response, ready for the HTTP layer."""

    status: int
    body: bytes
    etag: Optional[str] = None

    @property
    def headers(self) -> List[Tuple[str, str]]:
        found = [
            ("Content-Type", _CONTENT_TYPE),
            ("Content-Length", str(len(self.body))),
        ]
        if self.etag is not None:
            found.append(("ETag", self.etag))
            found.append(("Cache-Control", "no-cache"))
        return found


class ResponseCache:
    """A small thread-safe LRU for rendered response bodies.

    Entries are validated against the current ETag on every hit: a new
    commit changes the store digest, changes the ETag, and silently
    invalidates every stale entry without any explicit purge.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[str, bytes]]" = OrderedDict()

    def get(self, key: str, etag: str) -> Optional[bytes]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != etag:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: str, etag: str, body: bytes) -> None:
        if self.size <= 0:
            return
        with self._lock:
            self._entries[key] = (etag, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _dump(document: Any) -> bytes:
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def _ascii_int(text: str) -> int:
    """``int(text)``, for a run of ASCII digits only (``int`` alone also
    reads ``٣`` as 3 and ``1_0`` as 10)."""
    if not is_ascii_number(text):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(text)


def _pagination(params: Dict[str, str]) -> Tuple[int, int]:
    try:
        page = _ascii_int(params.get("page", "1"))
        per_page = _ascii_int(
            params.get("per_page", str(DEFAULT_PAGE_SIZE))
        )
    except ValueError as exc:
        raise ApiError(400, f"bad pagination parameter: {exc}") from exc
    if page < 1:
        raise ApiError(400, "page must be >= 1")
    if not 1 <= per_page <= MAX_PAGE_SIZE:
        raise ApiError(400, f"per_page must be in [1, {MAX_PAGE_SIZE}]")
    return page, per_page


def _paginate(
    items: List[Any], params: Dict[str, str]
) -> Dict[str, Any]:
    page, per_page = _pagination(params)
    start = (page - 1) * per_page
    return {
        "page": page,
        "per_page": per_page,
        "total": len(items),
        "items": items[start : start + per_page],
    }


def _record_filter(params: Dict[str, str]) -> RecordFilter:
    asn: Optional[int] = None
    if "asn" in params:
        try:
            asn = _ascii_int(params["asn"])
        except ValueError as exc:
            raise ApiError(400, f"bad asn parameter: {exc}") from exc
    min_confidence: Optional[float] = None
    if "min_confidence" in params:
        text = params["min_confidence"]
        try:
            if not text.isascii():  # float() reads "٠.٥" as 0.5
                raise ValueError(f"not ASCII: {text!r}")
            min_confidence = float(text)
        except ValueError as exc:
            raise ApiError(
                400, f"bad min_confidence parameter: {exc}"
            ) from exc
        if not 0.0 <= min_confidence <= 1.0:
            raise ApiError(400, "min_confidence must be in [0, 1]")
    return RecordFilter(
        country=params.get("country"),
        asn=asn,
        product=params.get("product"),
        isp=params.get("isp"),
        category=params.get("category"),
        min_confidence=min_confidence,
    )


class StoreApi:
    """The HTTP-independent request core: route, cache, render."""

    def __init__(
        self,
        store: ResultsStore,
        *,
        monitor_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[Metrics] = None,
        cache_size: int = 128,
    ) -> None:
        self.store = store
        self.engine = QueryEngine(store)
        self.monitor_dir = None if monitor_dir is None else Path(monitor_dir)
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = ResponseCache(cache_size)

    # ------------------------------------------------------------- request
    def handle(
        self, target: str, if_none_match: Optional[str] = None
    ) -> ApiResponse:
        """Serve one GET request target (path plus query string)."""
        self.metrics.incr("serve.requests")
        with self.metrics.timer("serve.request"):
            try:
                response = self._route(target, if_none_match)
            except ApiError as exc:
                response = ApiResponse(
                    status=exc.status,
                    body=_dump({"error": exc.message, "status": exc.status}),
                )
            except UnknownEpoch as exc:
                response = ApiResponse(
                    status=404, body=_dump({"error": str(exc), "status": 404})
                )
            except StoreError as exc:
                response = ApiResponse(
                    status=400, body=_dump({"error": str(exc), "status": 400})
                )
        self.metrics.incr(f"serve.responses.{response.status}")
        return response

    def _route(
        self, target: str, if_none_match: Optional[str]
    ) -> ApiResponse:
        split = urlsplit(target)
        raw_params = parse_qs(split.query, keep_blank_values=False)
        params = {key: values[-1] for key, values in raw_params.items()}
        parts = [unquote(part) for part in split.path.split("/") if part != ""]
        if parts == ["healthz"]:
            return ApiResponse(
                status=200,
                body=_dump(
                    {"status": "ok", "epochs": len(self.store.epoch_ids())}
                ),
            )
        if parts == ["metrics"]:
            # Timings are not deterministic; never cached, never ETagged.
            return ApiResponse(status=200, body=_dump(self.metrics.as_dict()))
        if not parts:
            raise ApiError(404, "no such endpoint; see /epochs")
        if parts[0] == "monitor":
            return self._route_monitor(parts, target, if_none_match, params)
        if parts[0] == "discover":
            return self._route_discover(parts, target, if_none_match, params)
        if parts[0] == "diff" and len(parts) == 1:
            return self._cached(target, if_none_match, self._render_diff, params)
        if parts[0] != "epochs":
            raise ApiError(404, f"no such endpoint: /{parts[0]}")
        if len(parts) == 1:
            return self._cached(
                target, if_none_match, self._render_epoch_list, params
            )
        epoch_id = self.store.resolve(parts[1])
        if len(parts) == 2:
            return self._cached(
                target, if_none_match, self._render_manifest, params, epoch_id
            )
        if len(parts) == 4 and parts[2] == "records":
            return self._cached(
                target,
                if_none_match,
                self._render_records,
                params,
                epoch_id,
                parts[3],
            )
        if len(parts) == 4 and parts[2] == "tables":
            return self._cached(
                target,
                if_none_match,
                self._render_table,
                params,
                epoch_id,
                parts[3],
            )
        if len(parts) == 4 and parts[2] == "countries":
            return self._cached(
                target,
                if_none_match,
                self._render_drilldown,
                params,
                epoch_id,
                "country",
                parts[3],
            )
        if len(parts) == 4 and parts[2] == "products":
            return self._cached(
                target,
                if_none_match,
                self._render_drilldown,
                params,
                epoch_id,
                "product",
                parts[3],
            )
        raise ApiError(404, f"no such endpoint: {split.path}")

    def _route_monitor(
        self,
        parts: List[str],
        target: str,
        if_none_match: Optional[str],
        params: Dict[str, str],
    ) -> ApiResponse:
        if self.monitor_dir is None:
            raise ApiError(
                404, "monitor surface not enabled; serve with --monitor DIR"
            )
        if len(parts) != 2 or parts[1] not in (
            "status",
            "targets",
            "alerts",
        ):
            raise ApiError(
                404,
                "no such monitor endpoint; one of /monitor/status, "
                "/monitor/targets, /monitor/alerts",
            )
        render = {
            "status": self._render_monitor_status,
            "targets": self._render_monitor_targets,
            "alerts": self._render_monitor_alerts,
        }[parts[1]]
        return self._cached(
            target, if_none_match, render, params, state=self._monitor_state()
        )

    # ------------------------------------------------------- cache plumbing
    def _monitor_state(self) -> str:
        """Content digest over the monitor's durable files.

        The journal and alert ledger are append-only, so hashing their
        bytes gives the same strong-ETag property the store digest gives
        the epoch endpoints: any monitor progress changes the ETag.
        """
        assert self.monitor_dir is not None
        digest = hashlib.sha256()
        for name in (JOURNAL_FILENAME, ALERTS_FILENAME):
            path = self.monitor_dir / name
            digest.update(name.encode("utf-8") + b"\x00")
            if path.exists():
                digest.update(path.read_bytes())
            digest.update(b"\x00")
        return "monitor:" + digest.hexdigest()

    def _etag(self, request_key: str, state: Optional[str] = None) -> str:
        state = state if state is not None else self.store.content_state()
        source = f"{state}|{request_key}"
        return '"' + hashlib.sha256(source.encode("utf-8")).hexdigest() + '"'

    def _cached(
        self,
        target: str,
        if_none_match: Optional[str],
        render,
        params: Dict[str, str],
        *args: Any,
        state: Optional[str] = None,
    ) -> ApiResponse:
        key = target
        etag = self._etag(key, state)
        if if_none_match is not None and etag in {
            candidate.strip()
            for candidate in if_none_match.split(",")
        }:
            self.metrics.incr("serve.not_modified")
            return ApiResponse(status=304, body=b"", etag=etag)
        body = self.cache.get(key, etag)
        if body is not None:
            self.metrics.incr("serve.cache.hits")
        else:
            self.metrics.incr("serve.cache.misses")
            with self.metrics.timer("serve.render"):
                body = _dump(render(params, *args))
            self.cache.put(key, etag, body)
        return ApiResponse(status=200, body=body, etag=etag)

    # ------------------------------------------------------------ renderers
    def _render_epoch_list(self, params: Dict[str, str]) -> Dict[str, Any]:
        manifests = self.engine.epochs(_record_filter(params))
        return _paginate([m.summary() for m in manifests], params)

    def _render_manifest(
        self, params: Dict[str, str], epoch_id: str
    ) -> Dict[str, Any]:
        manifest = self.store.manifest(epoch_id)
        document = manifest.to_document()
        document["tables"] = self.engine.tables_available(epoch=epoch_id)
        return document

    def _render_records(
        self, params: Dict[str, str], epoch_id: str, kind: str
    ) -> Dict[str, Any]:
        if kind not in RECORD_KINDS:
            raise ApiError(
                404, f"no such record kind {kind!r}; one of {list(RECORD_KINDS)}"
            )
        rows = self.engine.select(
            kind, epoch=epoch_id, record_filter=_record_filter(params)
        )
        document = _paginate(rows, params)
        document["epoch"] = epoch_id
        document["kind"] = kind
        return document

    def _render_table(
        self, params: Dict[str, str], epoch_id: str, name: str
    ) -> Dict[str, Any]:
        if name not in TABLE_NAMES:
            raise ApiError(
                404, f"no such table {name!r}; one of {list(TABLE_NAMES)}"
            )
        try:
            rendered = self.engine.table(name, epoch=epoch_id)
        except ValueError as exc:
            raise ApiError(404, str(exc)) from exc
        return {"epoch": epoch_id, "table": name, "rendered": rendered}

    def _render_drilldown(
        self,
        params: Dict[str, str],
        epoch_id: str,
        dimension: str,
        value: str,
    ) -> Dict[str, Any]:
        record_filter = (
            RecordFilter(country=value)
            if dimension == "country"
            else RecordFilter(product=value)
        )
        manifest = self.store.manifest(epoch_id)
        if value not in manifest.keys.get(dimension, ()):
            raise ApiError(
                404,
                f"epoch {manifest.short_id} has no {dimension} {value!r}",
            )
        document: Dict[str, Any] = {
            "epoch": epoch_id,
            dimension: value,
        }
        for kind in RECORD_KINDS:
            if kind not in manifest.segments:
                continue
            rows = self.engine.select(
                kind, epoch=epoch_id, record_filter=record_filter
            )
            document[kind] = rows
        return document

    def _render_diff(self, params: Dict[str, str]) -> Dict[str, Any]:
        diff = self.engine.diff(params.get("old"), params.get("new"))
        return diff.to_document()

    # --------------------------------------------------------- discovery
    def _route_discover(
        self,
        parts: List[str],
        target: str,
        if_none_match: Optional[str],
        params: Dict[str, str],
    ) -> ApiResponse:
        if len(parts) != 2 or parts[1] not in ("rounds", "candidates"):
            raise ApiError(
                404,
                "discovery endpoints: /discover/rounds, /discover/candidates",
            )
        kind = f"discovery_{parts[1]}"
        return self._cached(
            target, if_none_match, self._render_discover, params, kind
        )

    def _discovery_epoch(self, ref: Optional[str]) -> str:
        """The epoch to serve discovery rows from: ``ref`` or the newest."""
        if ref:
            epoch_id = self.store.resolve(ref)
            manifest = self.store.manifest(epoch_id)
            if "discovery_rounds" not in manifest.segments:
                raise ApiError(
                    404,
                    f"epoch {manifest.short_id} holds no discovery records",
                )
            return epoch_id
        for manifest in reversed(self.store.manifests()):
            if "discovery_rounds" in manifest.segments:
                return manifest.epoch_id
        raise ApiError(
            404,
            "no discovery epochs committed; run `repro discover --store`",
        )

    def _render_discover(
        self, params: Dict[str, str], kind: str
    ) -> Dict[str, Any]:
        epoch_id = self._discovery_epoch(params.get("epoch"))
        rows = self.engine.select(
            kind, epoch=epoch_id, record_filter=_record_filter(params)
        )
        document = _paginate(rows, params)
        document["epoch"] = epoch_id
        document["kind"] = kind
        return document

    def _monitor_status_doc(self) -> Dict[str, Any]:
        assert self.monitor_dir is not None
        status = read_status(self.monitor_dir)
        if status is None:
            raise ApiError(
                404, f"monitor has not started (no journal in {self.monitor_dir})"
            )
        return status

    def _render_monitor_status(self, params: Dict[str, str]) -> Dict[str, Any]:
        status = self._monitor_status_doc()
        status.pop("targets", None)  # /monitor/targets owns the table
        return status

    def _render_monitor_targets(
        self, params: Dict[str, str]
    ) -> Dict[str, Any]:
        status = self._monitor_status_doc()
        targets = [status["targets"][key] for key in sorted(status["targets"])]
        document = _paginate(targets, params)
        document["state"] = status["state"]
        return document

    def _render_monitor_alerts(
        self, params: Dict[str, str]
    ) -> Dict[str, Any]:
        self._monitor_status_doc()  # 404 before the monitor ever began
        assert self.monitor_dir is not None
        alerts = read_alerts(self.monitor_dir / ALERTS_FILENAME)
        return _paginate(alerts, params)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing around the shared :class:`StoreApi`."""

    api: StoreApi  # set by ResultsServer on the subclass

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate small writes; without this,
    # Nagle + delayed ACK stalls every keep-alive request ~40ms.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        response = self.api.handle(
            self.path, self.headers.get("If-None-Match")
        )
        try:
            self.send_response(response.status)
            for name, value in response.headers:
                if response.status == 304 and name == "Content-Length":
                    value = "0"
                self.send_header(name, value)
            self.end_headers()
            if response.status != 304 and response.body:
                self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response. That is their privilege,
            # not our stack trace: count it and drop the connection.
            self.api.metrics.incr("serve.client_disconnects")
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        # Request accounting goes through Metrics, not stderr.
        pass


class _QuietServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client disconnects as routine.

    A reset can surface outside ``do_GET`` (during the request read, or
    the keep-alive flush in ``finish``); the stock ``handle_error``
    dumps those to stderr as full stack traces. Disconnects are counted
    in metrics instead; every other error keeps the loud default.
    """

    api: StoreApi  # set by ResultsServer on the subclass

    def handle_error(self, request: Any, client_address: Any) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            self.api.metrics.incr("serve.client_disconnects")
            return
        super().handle_error(request, client_address)


class ResultsServer:
    """A threaded HTTP server bound to one store.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after ``start()``). Use as a context manager in tests::

        with ResultsServer(store) as server:
            http.client.HTTPConnection("127.0.0.1", server.port)
    """

    def __init__(
        self,
        store: ResultsStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        monitor_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[Metrics] = None,
        cache_size: int = 128,
    ) -> None:
        self.api = StoreApi(
            store,
            monitor_dir=monitor_dir,
            metrics=metrics,
            cache_size=cache_size,
        )
        handler = type("_BoundHandler", (_Handler,), {"api": self.api})
        server_cls = type("_BoundServer", (_QuietServer,), {"api": self.api})
        self._server = server_cls((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def metrics(self) -> Metrics:
        return self.api.metrics

    def start(self) -> "ResultsServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI (Ctrl-C to stop)."""
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()

    def __enter__(self) -> "ResultsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
