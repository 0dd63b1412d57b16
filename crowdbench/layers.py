"""Per-layer metrics and the per-endpoint budget of a traced run.

Busy times are self times in ms per accepted answer of the timed phase, so
one workload's layers add up against its wall time per answer.  Like the
end-to-end timings they are scaled to the reference host: divided by the
host factor of the traced window (:func:`crowdbench.reference.host_factor`).  The window
is the timed phase plus the post-budget reads: request spans count when the
client sent the request in one of those phases, refit-thread spans when
they start inside the window.  ``trace.residual_share`` is the share of the
window's client latency spent in requests whose app span is missing from
the trace, so it reads 0 only when every timed request was traced.
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from crowdbench import stats
from crowdbench.tracing import (
    LAYERS, Span, endpoint_of, fit_caller, load_spans, lock_wait_ms, request_budget,
    roots, self_time, walk,
)

#: Per-layer metrics with their units, in report order.  Each is dropped
#: with a notice when the seam it is measured at no longer exists.
METRICS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # (name, unit, seams it is measured at — substrings of missing-seam
    # notices; the metric is dropped when all of them are missing)
    ("inference.fits", "count", ("TCrowdModel.fit",)),
    ("inference.ingest_ms", "ms/answer", ("TCrowdModel.fit",)),
    ("inference.select_ms", "ms/answer", ("TCrowdModel.fit",)),
    ("inference.read_ms", "ms/answer", ("TCrowdModel.fit",)),
    ("inference.background_ms", "ms/answer", ("TCrowdModel.fit",)),
    ("inference.iterations_per_fit", "count", ("TCrowdModel.fit",)),
    ("correlation.fits", "count", ("AttributeCorrelationModel.fit",)),
    ("correlation.ms", "ms/answer", ("AttributeCorrelationModel.fit",)),
    ("gain.builds", "count", ("GainCalculator.__init__",)),
    ("gain.build_ms", "ms/answer", ("GainCalculator.__init__",)),
    ("gain.batch_ms", "ms/answer", ("gains_batch",)),
    ("gain.candidates_per_select", "count", ("gains_batch",)),
    ("provenance.records", "count", ("DecisionRecorder.record",)),
    ("provenance.record_ms", "ms/answer", ("DecisionRecorder.record",)),
    ("provenance.hashes", "count", ("model_state_hash",)),
    ("provenance.hash_ms", "ms/answer", ("model_hash_for",)),
    ("provenance.page_ms", "ms/answer", ("DecisionRecorder.page",)),
    ("engine.selects", "count", ("Policy.select", "Assigner.select")),
    ("engine.select_ms", "ms/answer", ("Policy.select", "Assigner.select")),
    ("engine.catchup_wait_ms", "ms/answer", ("snapshot_for",)),
    ("engine.blocking_refits", "count", ("TCrowdModel.fit",)),
    ("engine.background_refits", "count", ("TCrowdModel.fit",)),
    ("engine.staleness_p50", "answers", ("DecisionRecorder.record",)),
    ("wal.ms", "ms/answer", ("DurableSession.",)),
    ("storage.appends", "count", ("JsonlBackend.append",)),
    ("storage.append_ms", "ms/answer", ("JsonlBackend.append",)),
    ("storage.snapshots", "count", ("JsonlBackend.save_snapshot",)),
    ("storage.snapshot_ms", "ms/answer", ("JsonlBackend.save_snapshot",)),
    ("storage.bytes_per_answer", "bytes", ()),
    ("storage.disk_mb", "MiB", ()),
    ("storage.recover_ms", "ms", ("recover_all",)),
    ("registry.ms", "ms/answer", ("ServedSession.",)),
    ("registry.lock_wait_ms", "ms/answer", ("ServedSession.", "DurableSession.")),
    ("app.tasks_ms", "ms/answer", ("ServiceApp.__call__",)),
    ("app.answers_ms", "ms/answer", ("ServiceApp.__call__",)),
    ("app.estimates_ms", "ms/answer", ("ServiceApp.__call__",)),
    ("app.decisions_ms", "ms/answer", ("ServiceApp.__call__",)),
    ("app.transport_ms", "ms/answer", ("ServiceApp.__call__",)),
    ("trace.residual_share", "fraction", ("ServiceApp.__call__",)),
    ("trace.overhead_share", "fraction", ()),
)

#: Endpoints in budget order.
ENDPOINTS = ("tasks", "answers", "estimates", "decisions", "session")


def read_spans(path: pathlib.Path) -> Tuple[Dict[int, Span], List[str]]:
    document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return load_spans(document["spans"]), list(document.get("missing", []))


class TracedRun:
    """Spans of the live server plus the client's request log."""

    def __init__(self, spans: Dict[int, Span], request_log: Sequence[tuple],
                 window: Tuple[float, float]) -> None:
        self.spans = spans
        self.requests = {
            rid: (phase, kind, endpoint_of(urlsplit(path).path), seconds)
            for rid, phase, kind, path, seconds in request_log
        }
        lo, hi = window
        self.window = (int(lo * 1e9), int(hi * 1e9))
        self.root_of: Dict[int, Span] = {}
        self.app_span: Dict[str, Span] = {}
        for root in roots(spans):
            for span in walk(root):
                self.root_of[span.id] = root
            if root.name.startswith("app.") and root.request is not None:
                self.app_span[root.request] = root

    def in_window(self, span: Span) -> bool:
        root = self.root_of.get(span.id, span)
        if root.name.startswith("app.") and root.request is not None:
            phase = self.requests.get(root.request, (None,))[0]
            return phase in ("timed", "reads")
        return self.window[0] <= span.start <= self.window[1]

    def window_spans(self) -> List[Span]:
        return [span for span in self.spans.values() if self.in_window(span)]

    def window_requests(self) -> List[Tuple[Optional[Span], str, float]]:
        """``(app span or None, endpoint, client ms)`` of every request in the window."""
        return [
            (self.app_span.get(rid), endpoint, seconds * 1000.0)
            for rid, (phase, _kind, endpoint, seconds) in self.requests.items()
            if phase in ("timed", "reads")
        ]


def layer_metrics(run: TracedRun, answers: int, disk_bytes: int, total_answers: int,
                  recover_ms: Sequence[float], overhead_share: float,
                  host_factor: float = 1.0) -> Dict[str, float]:
    """Every per-layer metric (before dropping the ones with missing seams).

    The ``ms/answer`` metrics are divided by ``host_factor``; ``recover_ms``
    comes in already scaled.
    """
    per = 1.0 / max(answers, 1)
    spans = run.window_spans()
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(*names: str) -> float:
        return sum(self_time(span) for name in names for span in by_name[name]) / 1e6 * per

    fits = by_name["inference.fit"]
    callers = defaultdict(list)
    for span in fits:
        callers[fit_caller(span, run.spans)].append(span)
    iterations = [span.extra["iterations"] for span in fits if "iterations" in span.extra]
    outer_builds = [s for s in by_name["gain.build"] if run.spans.get(s.parent) is None
                    or run.spans[s.parent].name != "gain.build"]
    outer_batches = [s for s in by_name["gain.batch"] if run.spans.get(s.parent) is None
                     or run.spans[s.parent].name != "gain.batch"]
    candidates = [s.extra["candidates"] for s in outer_batches if "candidates" in s.extra]
    staleness = [s.extra["staleness"] for s in by_name["provenance.record"]
                 if "staleness" in s.extra]
    registry = [s for name in ("registry.select", "registry.ingest", "registry.estimates",
                               "registry.decisions") for s in by_name[name]]
    lock_wait = sum(lock_wait_ms(span) for span in registry)
    app = {endpoint: busy(f"app.{endpoint}") for endpoint in ("tasks", "answers",
                                                              "estimates", "decisions")}
    budgets = [(request_budget(root, ms), ms) for root, _endpoint, ms in run.window_requests()]
    client_total = sum(ms for _budget, ms in budgets)
    transport = sum(budget["transport"] for budget, _ms in budgets)
    residual = sum(budget["residual"] for budget, _ms in budgets)
    metrics = {
        "inference.fits": len(fits),
        "inference.ingest_ms": sum(self_time(s) for s in callers["ingest"]) / 1e6 * per,
        "inference.select_ms": sum(self_time(s) for s in callers["select"]) / 1e6 * per,
        "inference.read_ms": sum(self_time(s) for s in callers["read"]) / 1e6 * per,
        "inference.background_ms": sum(self_time(s) for s in callers["refit"]) / 1e6 * per,
        "inference.iterations_per_fit": (sum(iterations) / len(iterations)) if iterations else 0.0,
        "correlation.fits": len(by_name["correlation.fit"]),
        "correlation.ms": busy("correlation.fit"),
        "gain.builds": len(outer_builds),
        "gain.build_ms": busy("gain.build"),
        "gain.batch_ms": busy("gain.batch"),
        "gain.candidates_per_select": (sum(candidates) / len(candidates)) if candidates else 0.0,
        "provenance.records": len(by_name["provenance.record"]),
        "provenance.record_ms": busy("provenance.record"),
        "provenance.hashes": len(by_name["provenance.state_hash"]),
        "provenance.hash_ms": busy("provenance.hash", "provenance.state_hash"),
        "provenance.page_ms": busy("provenance.page"),
        "engine.selects": len(by_name["engine.select"]),
        "engine.select_ms": busy("engine.select"),
        "engine.catchup_wait_ms": sum(s.duration for s in by_name["engine.snapshot_for"])
        / 1e6 * per,
        "engine.blocking_refits": len(callers["select"]),
        "engine.background_refits": len(callers["refit"]),
        "engine.staleness_p50": stats.median(staleness) if staleness else 0.0,
        "wal.ms": busy("wal.select", "wal.append_answers", "wal.estimates", "wal.snapshot"),
        "storage.appends": len(by_name["storage.append"]),
        "storage.append_ms": busy("storage.append"),
        "storage.snapshots": len(by_name["storage.snapshot"]),
        "storage.snapshot_ms": busy("storage.snapshot"),
        "storage.bytes_per_answer": disk_bytes / max(total_answers, 1),
        "storage.disk_mb": disk_bytes / 2**20,
        "storage.recover_ms": stats.median(recover_ms) if recover_ms else 0.0,
        "registry.ms": busy(*{s.name for s in registry}) - lock_wait * per,
        "registry.lock_wait_ms": lock_wait * per,
        "app.tasks_ms": app["tasks"],
        "app.answers_ms": app["answers"],
        "app.estimates_ms": app["estimates"],
        "app.decisions_ms": app["decisions"],
        "app.transport_ms": transport * per,
        "trace.residual_share": residual / client_total if client_total else 0.0,
        "trace.overhead_share": overhead_share,
    }
    for name, unit, _seams in METRICS:
        if unit == "ms/answer":
            metrics[name] /= host_factor
    return metrics


def drop_missing(metrics: Dict[str, float],
                 missing: Sequence[str]) -> Tuple[Dict[str, float], List[str]]:
    """Remove the metrics none of whose seams exist any more; return notices."""
    notices, kept = [], {}
    for name, _unit, seams in METRICS:
        gone = [next((m for m in missing if seam in m), None) for seam in seams]
        if seams and all(gone):
            notices.append(f"notice: {name} dropped, seam missing: {', '.join(gone)}")
        elif name in metrics:
            kept[name] = metrics[name]
    return kept, notices


def budget_table(run: TracedRun) -> List[str]:
    """Per-endpoint budget: mean client ms split into layers, transport, residual."""
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = defaultdict(int)
    client: Dict[str, float] = defaultdict(float)
    for root, endpoint, ms in run.window_requests():
        budget = request_budget(root, ms)
        row = sums.setdefault(endpoint, defaultdict(float))
        for key, value in budget.items():
            row[key] += value
        counts[endpoint] += 1
        client[endpoint] += ms
    columns = list(LAYERS) + ["transport", "residual"]
    lines = ["budget (mean ms per request): endpoint n client " + " ".join(columns)]
    for endpoint in ENDPOINTS:
        if not counts[endpoint]:
            continue
        n = counts[endpoint]
        cells = " ".join(f"{sums[endpoint][c] / n:.3f}" for c in columns)
        lines.append(f"budget {endpoint} {n} {client[endpoint] / n:.3f} {cells}")
    return lines

