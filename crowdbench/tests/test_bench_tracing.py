"""Span recording, self time, fit callers and the per-request budget."""

import sys
import threading
import types

import pytest

from crowdbench import layers, tracing


def _span(span_id, parent, name, start, end, thread=1, request="c1-1", extra=None):
    return [span_id, parent, name, start, end, thread, request, extra or {}]


def test_self_time_subtracts_nested_children():
    spans = tracing.load_spans([
        _span(0, None, "app.tasks", 0, 100),
        _span(1, 0, "registry.select", 10, 90),
        _span(2, 1, "engine.select", 20, 80),
        _span(3, 2, "correlation.fit", 30, 50),
        _span(4, 2, "gain.batch", 50, 70),
    ])
    assert tracing.self_time(spans[0]) == 20
    assert tracing.self_time(spans[1]) == 20
    assert tracing.self_time(spans[2]) == 20
    assert tracing.self_time(spans[3]) == 20
    total = sum(tracing.self_time(span) for span in spans.values())
    assert total == spans[0].duration


def test_overlapping_children_are_counted_once():
    spans = tracing.load_spans([
        _span(0, None, "app.tasks", 0, 100),
        _span(1, 0, "gain.batch", 10, 60),
        _span(2, 0, "gain.batch", 40, 70),
        _span(3, 0, "gain.batch", 120, 130),  # outside the parent: ignored
    ])
    assert tracing.self_time(spans[0]) == 40


def test_refit_thread_spans_form_their_own_trees():
    spans = tracing.load_spans([
        _span(0, None, "app.answers", 0, 100),
        _span(1, 0, "registry.ingest", 5, 95),
        _span(2, 1, "inference.fit", 10, 90),
        _span(3, None, "inference.fit", 20, 300, thread=2, request=None),
        _span(4, 3, "correlation.fit", 40, 60, thread=2, request=None),
    ])
    assert {root.id for root in tracing.roots(spans)} == {0, 3}
    assert tracing.self_time(spans[0]) == 10  # the refit thread does not count
    assert tracing.self_time(spans[3]) == 260
    assert tracing.fit_caller(spans[2], spans) == "ingest"
    assert tracing.fit_caller(spans[3], spans) == "refit"


def test_request_budget_adds_up_to_client_latency():
    spans = tracing.load_spans([
        _span(0, None, "app.tasks", 0, 8_000_000),
        _span(1, 0, "registry.select", 1_000_000, 7_000_000, extra={"lock_wait_ns": 500_000}),
        _span(2, 1, "correlation.fit", 2_000_000, 6_000_000),
    ])
    budget = tracing.request_budget(spans[0], client_ms=10.0)
    assert budget["transport"] == pytest.approx(2.0)
    assert budget["app"] == pytest.approx(2.0)
    assert budget["registry"] == pytest.approx(2.0)
    assert budget["correlation"] == pytest.approx(4.0)
    assert budget["residual"] == 0.0
    assert sum(budget.values()) == pytest.approx(10.0)
    assert tracing.lock_wait_ms(spans[1]) == pytest.approx(0.5)


def test_requests_missing_from_the_trace_are_residual():
    spans = tracing.load_spans([
        _span(0, None, "app.tasks", 0, 8_000_000, request="c1-1"),
        _span(1, 0, "registry.select", 1_000_000, 7_000_000, request="c1-1"),
    ])
    log = [
        ("c1-1", "timed", "select", "/sessions/bench/tasks?worker=w001&k=7", 0.010),
        ("c1-2", "timed", "answer", "/sessions/bench/answers", 0.030),  # no span
        ("c1-3", "setup", None, "/sessions/bench/answers", 0.500),  # outside the window
    ]
    run = layers.TracedRun(spans, log, (0.0, 1.0))
    budgets = {endpoint: tracing.request_budget(root, ms)
               for root, endpoint, ms in run.window_requests()}
    assert set(budgets) == {"tasks", "answers"}
    assert budgets["tasks"]["residual"] == 0.0
    assert budgets["answers"]["residual"] == pytest.approx(30.0)
    metrics = layers.layer_metrics(run, answers=7, disk_bytes=0, total_answers=7,
                                   recover_ms=[], overhead_share=0.0)
    assert metrics["trace.residual_share"] == pytest.approx(30.0 / 40.0)
    assert metrics["app.transport_ms"] == pytest.approx(2.0 / 7)
    table = layers.budget_table(run)
    assert table[1].startswith("budget tasks 1 10.000 ")
    assert table[2].startswith("budget answers 1 30.000 ") and table[2].endswith(" 30.000")


@pytest.mark.parametrize("path, endpoint", [
    ("/sessions/bench/tasks", "tasks"), ("/sessions/bench/answers", "answers"),
    ("/sessions/bench", "session"), ("/sessions", "sessions"),
    ("/sessions/bench/decisions/3", "decisions"), ("/metrics", "other"),
])
def test_endpoint_of(path, endpoint):
    assert tracing.endpoint_of(path) == endpoint


class _Model:
    @classmethod
    def fit(cls, value):
        return value * 2

    def step(self, value):
        return self.fit(value) + 1


def test_tracer_records_nested_spans_per_thread():
    tracer = tracing.Tracer()
    model = type("Model", (_Model,), {})
    module = types.ModuleType("crowdbench_test_seam")
    module.Model = model
    sys.modules[module.__name__] = module
    try:
        assert tracer.wrap(module.__name__, "Model.fit", "inference.fit")
        assert tracer.wrap(module.__name__, "Model.step", "engine.select")
        assert not tracer.wrap(module.__name__, "Model.gone", "engine.gone")
        threads = [threading.Thread(target=lambda: model().step(3)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert model().step(1) == 3
    finally:
        del sys.modules[module.__name__]
    spans = tracing.load_spans(tracer.spans)
    assert tracer.missing == ["crowdbench_test_seam.Model.gone"]
    assert len(spans) == 6
    for span in spans.values():
        if span.name == "inference.fit":
            parent = spans[span.parent]
            assert parent.name == "engine.select" and parent.thread == span.thread


def test_missing_seams_drop_their_metrics_with_a_notice():
    values = {name: 1.0 for name, _unit, _seams in layers.METRICS}
    missing = ["repro.core.correlation.AttributeCorrelationModel.fit",
               "repro.engine.refit_worker.AsyncRefitPolicy.select",
               "repro.service.storage.JsonlBackend.append"]
    kept, notices = layers.drop_missing(values, missing)
    assert "correlation.ms" not in kept and "correlation.fits" not in kept
    assert "storage.appends" not in kept and "storage.append_ms" not in kept
    assert "storage.snapshots" in kept
    assert "engine.selects" in kept  # TCrowdAssigner.select still exists
    assert len(notices) == 4 and all(n.startswith("notice:") for n in notices)
