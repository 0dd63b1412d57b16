"""Spans for the traced run: recording (inside the server) and analysis.

The traced launcher (``traced_server.py``) wraps the program's public
seams with :class:`Tracer` spans before starting the service.  A span
records its name, start, end, parent span, thread and the client's request
id (sent in a header the program ignores).  Spans on a thread that serves
no request — the async refit thread — form their own trees.  Spans stay in
memory and are written out when the server exits, or on ``SIGUSR1`` just
before the benchmark kills it.

Analysis (in the benchmark process) turns spans into self times: a span's
duration minus the part of it its child spans cover.  Both processes read
the same monotonic clock, so a client's request latency can be set against
the server's app span: the difference is the transport time.  A request
the client timed but whose app span is missing cannot be split; its whole
latency is the residual.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Request-id header as WSGI exposes it.
REQUEST_ID_ENVIRON = "HTTP_X_BENCH_REQUEST"

#: Layers in budget order (a span's layer is its name up to the first dot).
LAYERS = (
    "app", "registry", "wal", "storage", "engine", "provenance",
    "inference", "correlation", "gain",
)

#: Endpoint of each ``/sessions/{id}/<verb>`` path.
_VERBS = ("tasks", "answers", "estimates", "decisions", "workers", "config")


def endpoint_of(path: str) -> str:
    parts = [part for part in path.split("/") if part]
    if not parts or parts[0] != "sessions":
        return "other"
    if len(parts) == 1:
        return "sessions"
    if len(parts) == 2:
        return "session"
    return parts[2] if parts[2] in _VERBS else "other"


# -- recording (server side) ---------------------------------------------------


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args, kwargs,
             annotate: Optional[Callable] = None):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        extra: Dict[str, object] = {}
        stack.append((span_id, extra))
        start = time.perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append([
                span_id, parent, name, start, end, threading.get_ident(),
                getattr(self._local, "request", None), extra,
            ])
        if annotate is not None:
            annotate(extra, args, kwargs, result)
        return result

    # -- seams ---------------------------------------------------------------

    def _resolve(self, module: str, path: str):
        """``(owner, attribute name, raw attribute)`` or None when missing."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        try:
            return owner, attr, inspect.getattr_static(owner, attr)
        except AttributeError:
            return None

    def wrap(self, module: str, path: str, name: str,
             annotate: Optional[Callable] = None, before: Optional[Callable] = None) -> bool:
        """Wrap ``module.path`` (``Class.method`` or a function) in spans.

        Returns False, and notes the seam as missing, when it does not
        exist.  ``before(args, kwargs)`` runs on entry, outside the span.
        """
        resolved = self._resolve(module, path)
        if resolved is None:
            self.missing.append(f"{module}.{path}")
            return False
        owner, attr, raw = resolved
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return tracer.call(name, function, args, kwargs, annotate)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        return True

    def wrap_app(self, module: str = "repro.service.app",
                 path: str = "ServiceApp.__call__") -> bool:
        """Wrap the WSGI entry: one ``app.<endpoint>`` root span per request."""
        resolved = self._resolve(module, path)
        if resolved is None:
            self.missing.append(f"{module}.{path}")
            return False
        owner, attr, function = resolved
        tracer = self

        @functools.wraps(function)
        def wrapper(app, environ, start_response):
            tracer._local.request = environ.get(REQUEST_ID_ENVIRON)
            try:
                name = "app." + endpoint_of(environ.get("PATH_INFO", "/"))
                return tracer.call(name, function, (app, environ, start_response), {})
            finally:
                tracer._local.request = None

        setattr(owner, attr, wrapper)
        return True

    # -- lock wait -----------------------------------------------------------

    def mark_lock_entry(self, args, kwargs) -> None:
        """Entering a ``ServedSession`` call: start the lock-wait clock."""
        self._local.lock_mark = time.perf_counter_ns()

    def mark_lock_acquired(self, args, kwargs) -> None:
        """Entering the matching inner call: the session lock is held.

        The wait is stored on the innermost open span — the registry span
        whose entry started the clock.
        """
        mark = getattr(self._local, "lock_mark", None)
        stack = self._stack()
        if mark is not None and stack:
            self._local.lock_mark = None
            stack[-1][1]["lock_wait_ns"] = time.perf_counter_ns() - mark

    def dump(self, path: str) -> None:
        """Write every span recorded so far (atomically)."""
        document = {"pid": os.getpid(), "missing": self.missing, "spans": list(self.spans)}
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(temporary, path)


def _fit_annotate(extra, args, kwargs, result) -> None:
    iterations = getattr(result, "iterations_run", None)
    if isinstance(iterations, int):
        extra["iterations"] = iterations


def _batch_annotate(extra, args, kwargs, result) -> None:
    cells = args[2] if len(args) > 2 else kwargs.get("cells", kwargs.get("candidates"))
    try:
        extra["candidates"] = len(cells)
    except TypeError:
        pass


def _record_annotate(extra, args, kwargs, result) -> None:
    try:
        extra["staleness"] = int(kwargs["answers_total"]) - int(kwargs["answers_seen"])
    except (KeyError, TypeError, ValueError):
        pass


def install_seams(tracer: Tracer) -> None:
    """Wrap every seam the traced run records (missing ones are noted)."""
    tracer.wrap_app()
    lock_entry, lock_acquired = tracer.mark_lock_entry, tracer.mark_lock_acquired
    for method in ("select", "ingest", "estimates", "decisions"):
        tracer.wrap("repro.service.registry", f"ServedSession.{method}",
                    f"registry.{method}", before=lock_entry)
    for method in ("select", "append_answers", "estimates", "snapshot"):
        tracer.wrap("repro.service.wal", f"DurableSession.{method}", f"wal.{method}",
                    before=lock_acquired)
    # Every workload stores through the JSONL backend.
    tracer.wrap("repro.service.storage", "JsonlBackend.append", "storage.append")
    tracer.wrap("repro.service.storage", "JsonlBackend.save_snapshot", "storage.snapshot")
    tracer.wrap("repro.service.registry", "SessionRegistry.recover_all", "storage.recover")
    for module, owner in (("repro.core.assignment", "TCrowdAssigner"),
                          ("repro.engine.refit_worker", "AsyncRefitPolicy")):
        for method, name in (("select", "engine.select"), ("observe", "engine.observe"),
                             ("final_result", "engine.final")):
            tracer.wrap(module, f"{owner}.{method}", name)
    tracer.wrap("repro.engine.refit_worker", "AsyncRefitEngine.snapshot_for",
                "engine.snapshot_for")
    tracer.wrap("repro.engine.refit_worker", "AsyncRefitEngine.refit_now", "engine.refit_now")
    tracer.wrap("repro.engine.provenance", "DecisionRecorder.record", "provenance.record",
                annotate=_record_annotate)
    tracer.wrap("repro.engine.provenance", "DecisionRecorder.model_hash_for",
                "provenance.hash")
    tracer.wrap("repro.engine.provenance", "model_state_hash", "provenance.state_hash")
    tracer.wrap("repro.engine.provenance", "DecisionRecorder.page", "provenance.page",
                before=lock_acquired)
    tracer.wrap("repro.core.inference", "TCrowdModel.fit", "inference.fit",
                annotate=_fit_annotate)
    tracer.wrap("repro.core.correlation", "AttributeCorrelationModel.fit", "correlation.fit")
    for module, owner in (("repro.core.information_gain", "InformationGainCalculator"),
                          ("repro.core.structure_gain", "StructureAwareGainCalculator")):
        tracer.wrap(module, f"{owner}.__init__", "gain.build")
        tracer.wrap(module, f"{owner}.gains_batch", "gain.batch", annotate=_batch_annotate)


# -- analysis (benchmark side) -----------------------------------------------


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "request",
                 "extra", "children")

    def __init__(self, record: Sequence) -> None:
        (self.id, self.parent, self.name, self.start, self.end,
         self.thread, self.request, self.extra) = record
        self.children: List["Span"] = []

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load_spans(records: Iterable[Sequence]) -> Dict[int, Span]:
    """Index span records by id and link children to their parents."""
    spans = {record[0]: Span(record) for record in records}
    for span in spans.values():
        parent = spans.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total, cursor = 0, start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: Span) -> int:
    """Duration minus the part of it the span's children cover."""
    return span.duration - covered(
        span.start, span.end, ((child.start, child.end) for child in span.children)
    )


def roots(spans: Dict[int, Span]) -> List[Span]:
    return [span for span in spans.values() if span.parent not in spans]


def walk(span: Span):
    yield span
    for child in span.children:
        yield from walk(child)


def ancestors(span: Span, spans: Dict[int, Span]):
    parent = spans.get(span.parent)
    while parent is not None:
        yield parent
        parent = spans.get(parent.parent)


#: The request-path span that makes a fit's caller what it is.
_CALLERS = {
    "registry.ingest": "ingest", "wal.append_answers": "ingest",
    "registry.select": "select", "wal.select": "select",
    "registry.estimates": "read", "wal.estimates": "read",
}


def fit_caller(span: Span, spans: Dict[int, Span]) -> str:
    """Who ran a fit: ``ingest``, ``select``, ``read`` or the ``refit`` thread."""
    for parent in ancestors(span, spans):
        if parent.name in _CALLERS:
            return _CALLERS[parent.name]
    return "refit" if span.request is None else "other"


def request_budget(root: Optional[Span], client_ms: float) -> Dict[str, float]:
    """One request's latency split into layer self times, transport, residual.

    ``root`` is the request's app span, or None when the trace has no span
    for the request: then nothing can be attributed and the whole latency
    is residual.
    """
    budget = {layer: 0.0 for layer in LAYERS}
    budget["transport"] = budget["residual"] = 0.0
    if root is None:
        budget["residual"] = client_ms
        return budget
    for span in walk(root):
        budget[span.layer] = budget.get(span.layer, 0.0) + self_time(span) / 1e6
    budget["transport"] = client_ms - root.duration / 1e6
    return budget


def lock_wait_ms(span: Span) -> float:
    return span.extra.get("lock_wait_ns", 0) / 1e6
