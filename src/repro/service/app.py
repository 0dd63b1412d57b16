"""Stdlib-only HTTP API over the session registry.

The application is a plain WSGI callable (:func:`create_app`) served by
``wsgiref`` with a threading mixin — no web framework, no new runtime
dependency.  Endpoints (see ``src/repro/service/README.md`` for the full
reference):

========  ===================================  =================================
method    path                                 action
========  ===================================  =================================
GET       ``/healthz``                         liveness + session count
GET       ``/metrics``                         Prometheus text exposition
GET/POST  ``/sessions``                        list / create (or recover)
GET       ``/sessions/{id}``                   session status
DELETE    ``/sessions/{id}``                   close and drop the session
GET       ``/sessions/{id}/tasks?worker=&k=``  assign the next task batch
POST      ``/sessions/{id}/answers``           ingest collected answers
GET       ``/sessions/{id}/estimates``         current truth estimates
GET       ``/sessions/{id}/workers/{worker}``  per-worker quality
GET       ``/sessions/{id}/config``            canonical v1 session spec
GET       ``/sessions/{id}/decisions``         paginated audit records (``?since=&limit=``)
GET       ``/sessions/{id}/decisions/{n}``     one decision's audit record
========  ===================================  =================================

``POST /sessions`` takes a version-1 :class:`~repro.config.SessionSpec`
body (legacy PR-4 configs upgrade transparently, see
:mod:`repro.service.registry`); ``GET /sessions/{id}/config`` returns the
canonical spec the session actually runs with.

Error mapping: unknown session / unknown worker → 404; malformed JSON,
malformed answers, invalid configs → 400; a worker with no assignable cell
left → 409 (the session is simply exhausted for them); wrong method → 405.
Every response body is JSON, errors as ``{"error": ...}`` — spec
validation failures additionally carry the dotted field path as
``{"error": ..., "path": "serving.max_stale_answers"}``, and a rejected
answer value the entry's path, ``"answers[2].value"`` (a continuous answer
must be a finite number).  Request bodies are strict JSON: ``NaN`` and
``Infinity`` are refused, and responses are encoded with
``allow_nan=False``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from socketserver import ThreadingMixIn

from repro.engine.profiling import HotPathProfile, StageStats, histogram_lines
from repro.service.registry import SessionRegistry
from repro.utils.exceptions import (
    AssignmentError,
    ConfigurationError,
    DataError,
    DurabilityError,
    InferenceError,
)

_STATUS = {
    200: "200 OK",
    201: "201 Created",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Payload Too Large",
    500: "500 Internal Server Error",
}

#: Default request-body cap — far above any real config or answer batch,
#: far below anything that could exhaust server memory.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_SESSION_PATH = re.compile(
    r"^/sessions/(?P<sid>[A-Za-z0-9_.-]+)"
    r"(?:/(?P<verb>tasks|answers|estimates|workers|config|decisions))?"
    r"(?:/(?P<arg>[^/]+))?$"
)

#: The closed set of endpoint labels ``/metrics`` may emit.  Anything else
#: — unknown paths, fuzzed URLs, bad session verbs — buckets under
#: ``other`` so request counters keep bounded label cardinality no matter
#: what clients throw at the server.
_KNOWN_ENDPOINTS = frozenset({
    "healthz", "metrics", "sessions", "session", "tasks", "answers",
    "estimates", "workers", "config", "decisions",
})


class _HTTPError(Exception):
    """Internal control flow carrying an HTTP status + message (+ field path)."""

    def __init__(self, status: int, message: str, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.path = path


def _refuse_constant(name: str):
    """Decoder hook: ``NaN`` / ``Infinity`` are not JSON numbers."""
    raise ValueError(f"{name} is not a valid JSON value")


#: Strict JSON codecs, built once (``json.loads`` / ``json.dumps`` with
#: keyword arguments would build a new codec per request).
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
_ENCODER = json.JSONEncoder(allow_nan=False)


class ServiceMetrics:
    """Thread-safe counters behind the Prometheus ``/metrics`` endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Counter = Counter()
        self.errors: Counter = Counter()
        self.answers_ingested = 0
        #: Every served select's latency, rendered as a histogram, whose
        #: buckets add up across servers and over time.
        self.select_latency = StageStats()
        #: Per-stage hot-path timers (snapshot acquire, lock wait, EM refit,
        #: calculator build, batch scoring, top-K merge), aggregated across
        #: every session whose policy supports ``set_profile`` — rendered as
        #: Prometheus histograms alongside the request counters.
        self.hotpath = HotPathProfile()

    def observe_request(self, endpoint: str, status: int) -> None:
        if endpoint not in _KNOWN_ENDPOINTS:
            endpoint = "other"
        with self._lock:
            self.requests[endpoint] += 1
            if status >= 400:
                self.errors[str(status)] += 1

    def observe_select(self, seconds: float) -> None:
        with self._lock:
            self.select_latency.observe(seconds)

    def observe_answers(self, count: int) -> None:
        with self._lock:
            self.answers_ingested += count

    def render(self, registry: SessionRegistry) -> str:
        """Prometheus text exposition format (0.0.4)."""
        with self._lock:
            select_latency = self.select_latency.copy()
            lines = [
                "# HELP repro_service_sessions_active Live sessions in the registry.",
                "# TYPE repro_service_sessions_active gauge",
                f"repro_service_sessions_active {len(registry)}",
                "# HELP repro_service_requests_total HTTP requests by endpoint.",
                "# TYPE repro_service_requests_total counter",
            ]
            for endpoint, count in sorted(self.requests.items()):
                lines.append(
                    f'repro_service_requests_total{{endpoint="{endpoint}"}} {count}'
                )
            lines += [
                "# HELP repro_service_http_errors_total HTTP error responses by status.",
                "# TYPE repro_service_http_errors_total counter",
            ]
            for status, count in sorted(self.errors.items()):
                lines.append(
                    f'repro_service_http_errors_total{{status="{status}"}} {count}'
                )
            lines += [
                "# HELP repro_service_answers_ingested_total Answers accepted over HTTP.",
                "# TYPE repro_service_answers_ingested_total counter",
                f"repro_service_answers_ingested_total {self.answers_ingested}",
                "# HELP repro_service_selects_served_total Task batches assigned.",
                "# TYPE repro_service_selects_served_total counter",
                f"repro_service_selects_served_total {select_latency.calls}",
            ]
        lines += [
            "# HELP repro_service_select_latency_seconds Select latency histogram.",
            "# TYPE repro_service_select_latency_seconds histogram",
        ]
        lines += histogram_lines("repro_service_select_latency_seconds", select_latency)
        wal_segments = 0
        snapshots_retained = 0
        decisions_recorded = 0
        for session in registry.sessions():
            wal_segments += session.durable.wal_segments
            snapshots_retained += session.durable.snapshots_retained
            recorder = session.durable.recorder
            if recorder is not None:
                decisions_recorded += recorder.count
        lines += [
            "# HELP repro_service_wal_segments On-disk WAL segments across "
            "durable sessions.",
            "# TYPE repro_service_wal_segments gauge",
            f"repro_service_wal_segments {wal_segments}",
            "# HELP repro_service_snapshots_retained Snapshots retained across "
            "durable sessions (after GC).",
            "# TYPE repro_service_snapshots_retained gauge",
            f"repro_service_snapshots_retained {snapshots_retained}",
            # A gauge: deleting a session drops its records from the sum.
            # Chain heads live in each session's stats JSON, not here: one
            # series per head would mint a new series per decision.
            "# HELP repro_decisions_recorded Audit decision records held by "
            "live sessions.",
            "# TYPE repro_decisions_recorded gauge",
            f"repro_decisions_recorded {decisions_recorded}",
        ]
        # The hot-path profile carries its own lock; render it outside ours.
        lines.extend(self.hotpath.render_prometheus())
        return "\n".join(lines) + "\n"


class ServiceApp:
    """The WSGI application: routing, JSON codecs, error mapping."""

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.registry = registry if registry is not None else SessionRegistry()
        self.max_body_bytes = int(max_body_bytes)
        self.metrics = ServiceMetrics()
        # Policies built from here on report per-stage hot-path timings
        # into the /metrics histograms (sessions recovered before the app
        # existed keep running unprofiled — attach-at-build only).
        self.registry.hotpath_profile = self.metrics.hotpath

    # -- WSGI entry ----------------------------------------------------------

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/") or "/"
        endpoint = "other"
        try:
            endpoint, status, body = self._route(method, path, environ)
        except _HTTPError as exc:
            status, body = exc.status, {"error": exc.message}
            if exc.path:
                body["path"] = exc.path
        except (ConfigurationError, DataError, ValueError) as exc:
            status, body = 400, {"error": str(exc)}
            # Spec validation failures carry the dotted field path (e.g.
            # "serving.max_stale_answers") so clients can point at the
            # offending field without parsing the message.
            path_hint = getattr(exc, "path", None)
            if path_hint:
                body["path"] = path_hint
        except KeyError as exc:
            status, body = 404, {"error": f"Unknown resource: {exc.args[0]!r}"}
        except AssignmentError as exc:
            status, body = 409, {"error": str(exc)}
        except (InferenceError, DurabilityError) as exc:
            status, body = 500, {"error": str(exc)}
        if isinstance(body, str):
            payload = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            try:
                text = _ENCODER.encode(body)
            except ValueError as exc:
                # A non-finite number must never ship as invalid JSON.
                status = 500
                text = json.dumps({"error": f"Response is not valid JSON: {exc}"})
            payload = (text + "\n").encode("utf-8")
            content_type = "application/json"
        self.metrics.observe_request(endpoint, status)
        start_response(
            _STATUS.get(status, _STATUS[500]),
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(payload))),
            ],
        )
        return [payload]

    # -- routing -------------------------------------------------------------

    def _route(self, method: str, path: str, environ) -> Tuple[str, int, object]:
        if path == "/healthz":
            self._require(method, "GET")
            return "healthz", 200, {
                "status": "ok",
                "sessions": len(self.registry),
            }
        if path == "/metrics":
            self._require(method, "GET")
            return "metrics", 200, self.metrics.render(self.registry)
        if path == "/sessions":
            if method == "GET":
                return "sessions", 200, {"sessions": self.registry.ids()}
            self._require(method, "POST")
            config = self._read_json(environ)
            session = self.registry.create(config)
            return "sessions", 201, session.stats()
        match = _SESSION_PATH.match(path)
        if not match:
            raise _HTTPError(404, f"Unknown path {path!r}")
        session = self.registry.get(match.group("sid"))
        verb, arg = match.group("verb"), match.group("arg")
        if verb is None:
            if method == "DELETE":
                self.registry.remove(session.session_id)
                return "session", 200, {"closed": session.session_id}
            self._require(method, "GET")
            return "session", 200, session.stats()
        if verb == "tasks":
            self._require(method, "GET")
            return "tasks", 200, self._tasks(session, environ)
        if verb == "answers":
            self._require(method, "POST")
            return "answers", 200, self._answers(session, environ)
        if verb == "estimates":
            self._require(method, "GET")
            return "estimates", 200, session.estimates()
        if verb == "config":
            self._require(method, "GET")
            return "config", 200, session.config_payload()
        if verb == "workers":
            self._require(method, "GET")
            if not arg:
                raise _HTTPError(404, "Worker id missing from path")
            return "workers", 200, session.worker_info(arg)
        if verb == "decisions":
            self._require(method, "GET")
            if arg is not None:
                try:
                    decision_id = int(arg)
                except ValueError:
                    raise _HTTPError(
                        400, f"Decision id must be an integer, got {arg!r}"
                    )
                return "decisions", 200, session.decision(decision_id)
            return "decisions", 200, self._decisions(session, environ)
        raise _HTTPError(404, f"Unknown path {path!r}")

    # -- handlers ------------------------------------------------------------

    def _tasks(self, session, environ) -> Dict[str, object]:
        query = parse_qs(environ.get("QUERY_STRING", ""))
        worker = (query.get("worker") or [None])[0]
        if not worker:
            raise _HTTPError(400, "The 'worker' query parameter is required")
        try:
            k = int((query.get("k") or ["1"])[0])
        except ValueError:
            raise _HTTPError(400, "'k' must be an integer")
        if k < 1:
            raise _HTTPError(400, f"'k' must be >= 1, got {k}")
        start = time.perf_counter()
        assignment = session.select(worker, k=k)
        self.metrics.observe_select(time.perf_counter() - start)
        return {
            "session_id": session.session_id,
            "worker": assignment.worker,
            "cells": [[int(row), int(col)] for row, col in assignment.cells],
            "gains": [float(gain) for gain in assignment.gains],
        }

    def _decisions(self, session, environ) -> Dict[str, object]:
        """Paginated audit records: ``GET .../decisions?since=&limit=``."""
        from repro.engine.provenance import DEFAULT_PAGE_LIMIT, MAX_PAGE_LIMIT

        query = parse_qs(environ.get("QUERY_STRING", ""))
        values = {}
        for name, default in (
            ("since", 0), ("limit", DEFAULT_PAGE_LIMIT),
        ):
            raw = (query.get(name) or [None])[0]
            if raw is None:
                values[name] = default
                continue
            try:
                values[name] = int(raw)
            except ValueError:
                raise _HTTPError(400, f"{name!r} must be an integer, got {raw!r}")
            if values[name] < 0:
                raise _HTTPError(400, f"{name!r} must be >= 0, got {values[name]}")
        if values["limit"] > MAX_PAGE_LIMIT:
            raise _HTTPError(
                400,
                f"'limit' must be <= {MAX_PAGE_LIMIT}, got {values['limit']}",
            )
        return session.decisions(since=values["since"], limit=values["limit"])

    def _answers(self, session, environ) -> Dict[str, object]:
        body = self._read_json(environ)
        if not isinstance(body, dict):
            raise _HTTPError(400, "The answers payload must be a JSON object")
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise _HTTPError(400, "'worker' must be a non-empty string")
        raw = body.get("answers")
        if not isinstance(raw, list) or not raw:
            raise _HTTPError(400, "'answers' must be a non-empty list")
        items = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise _HTTPError(400, f"answers[{index}] must be an object")
            for field in ("row", "col", "value"):
                if field not in entry:
                    raise _HTTPError(400, f"answers[{index}] is missing {field!r}")
            for field in ("row", "col"):
                value = entry[field]
                # bool is an int subclass: `true` would silently become
                # row 1.  Strings and floats are rejected too — a JSON
                # client that means 3 can send 3.
                if isinstance(value, bool) or not isinstance(value, int):
                    raise _HTTPError(
                        400,
                        f"answers[{index}].{field} must be an integer, "
                        f"got {value!r}",
                    )
            col = entry["col"]
            if 0 <= col < session.schema.num_columns:
                try:
                    session.schema.validate_value(col, entry["value"])
                except DataError as exc:
                    raise _HTTPError(
                        400, f"answers[{index}].value: {exc}",
                        path=f"answers[{index}].value",
                    )
            items.append((entry["row"], col, entry["value"]))
        total = session.ingest(worker, items)
        self.metrics.observe_answers(len(items))
        return {
            "session_id": session.session_id,
            "accepted": len(items),
            "answers_collected": total,
        }

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"Use {expected} for this endpoint")

    def _read_json(self, environ):
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length > self.max_body_bytes:
            raise _HTTPError(
                413,
                f"Request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        raw = environ["wsgi.input"].read(length) if length > 0 else b""
        if len(raw) < length:
            # A closed connection mid-upload: distinguish from JSON noise.
            raise _HTTPError(
                400,
                f"Truncated request body: Content-Length announced {length} "
                f"bytes but only {len(raw)} arrived",
            )
        if not raw:
            raise _HTTPError(400, "A JSON request body is required")
        try:
            return _DECODER.decode(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"Malformed JSON body: {exc}")


def create_app(
    registry: Optional[SessionRegistry] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> ServiceApp:
    """Build the WSGI application (exposed for tests and embedding)."""
    return ServiceApp(registry, max_body_bytes=max_body_bytes)


# -- server -------------------------------------------------------------------


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """One thread per request; daemon threads so shutdown never hangs."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Per-request access logs are noise for a benchmark/CI server."""

    def log_message(self, format, *args):  # noqa: A002 - wsgiref signature
        pass


class ServiceServer:
    """A running HTTP server around one :class:`ServiceApp`.

    ``port=0`` binds an ephemeral port (the one the integration tests and
    the serving benchmark use); the bound address is ``self.address``.
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.app = create_app(registry, max_body_bytes=max_body_bytes)
        self.registry = self.app.registry
        self._httpd = make_server(
            host,
            port,
            self.app,
            server_class=_ThreadingWSGIServer,
            handler_class=_QuietHandler,
        )
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def address(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve requests on a background thread; returns self."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-service",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop serving, close every session, release the socket."""
        if self._serving:
            # shutdown() waits on serve_forever's exit handshake and would
            # block forever on a server that was bound but never served.
            self._httpd.shutdown()
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.registry.close_all()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
