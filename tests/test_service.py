"""HTTP integration tests against a live server on an ephemeral port.

A real :class:`~repro.service.app.ServiceServer` (threaded wsgiref) is
started per test class; every request in here is a genuine HTTP round trip
through the stdlib client.  Covers the endpoint contract (404 for unknown
sessions/workers, 400 for malformed payloads, 409 for exhausted workers,
405 for wrong methods), concurrent workers against one session, the
Prometheus scrape, durable-session recovery across server restarts, and the
CLI entry point.
"""

from __future__ import annotations

import contextlib
import json
import math
import sqlite3
import threading

import pytest

from repro.config import SessionSpec, SpecValidationError
from repro.config.factory import build_policy
from repro.service.app import ServiceServer
from repro.service.client import ServiceClient
from repro.service.registry import (
    SessionRegistry,
    parse_config,
    resolve_schema,
    schema_from_dict,
    schema_to_dict,
)
from repro.service.storage import BACKEND_NAMES, create_backend, wal_segment_files
from repro.service.wal import durable_summary
from repro.utils.exceptions import ConfigurationError, DurabilityError

SCHEMA_SPEC = {
    "entity_attribute": "item",
    "num_rows": 4,
    "columns": [
        {"name": "color", "type": "categorical", "labels": ["red", "green", "blue"]},
        {"name": "weight", "type": "continuous", "domain": [0.0, 100.0]},
    ],
}

FAST_MODEL = {"max_iterations": 3, "m_step_iterations": 6}


def _config(**overrides):
    config = {
        "version": 1,
        "schema": SCHEMA_SPEC,
        "policy": {"refit_every": 1, "model": dict(FAST_MODEL)},
    }
    config.update(overrides)
    return config


def _seed(client, session_id, rows=4, worker_prefix="seed"):
    for row in range(rows):
        client.post_answers(
            session_id,
            f"{worker_prefix}-{row % 2}",
            [(row, 0, "red"), (row, 1, 10.0 + row)],
        )


@pytest.fixture(scope="module")
def server():
    with ServiceServer() as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


class TestSchemaCodec:
    def test_round_trip(self, mixed_schema):
        rebuilt = schema_from_dict(schema_to_dict(mixed_schema))
        assert rebuilt == mixed_schema

    def test_malformed_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            schema_from_dict({"entity_attribute": "x", "columns": "nope"})
        with pytest.raises(ConfigurationError):
            schema_from_dict(
                {
                    "entity_attribute": "x",
                    "num_rows": 2,
                    "columns": [{"name": "a", "type": "ordinal"}],
                }
            )

    def test_resolve_schema_from_dataset(self):
        schema = resolve_schema(
            {"dataset": {"name": "celebrity", "seed": 1, "num_rows": 5}}
        )
        assert schema.num_rows == 5

    def test_resolve_schema_rejects_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            resolve_schema({"dataset": {"name": "imagenet"}})
        with pytest.raises(ConfigurationError):
            resolve_schema({})

    def test_build_policy_modes(self, mixed_schema):
        plain = build_policy(
            mixed_schema,
            parse_config({"version": 1, "policy": {"model": FAST_MODEL}})[1],
        )
        assert type(plain).__name__ == "TCrowdAssigner"
        async_policy = build_policy(
            mixed_schema,
            parse_config(
                {
                    "version": 1,
                    "policy": {"model": FAST_MODEL},
                    "serving": {"async_refit": True},
                }
            )[1],
        )
        assert async_policy.name.endswith("[async refit]")

    def test_build_policy_rejects_bad_options(self, mixed_schema):
        with pytest.raises(ConfigurationError):
            build_policy(
                mixed_schema,
                parse_config({"version": 1, "policy": {"bogus_knob": 1}})[1],
            )
        with pytest.raises(ConfigurationError):
            build_policy(
                mixed_schema,
                parse_config({"version": 1, "policy": {"model": {"bogus": 1}}})[1],
            )


class TestSessionLifecycle:
    def test_full_session_over_http(self, client):
        created = client.create_session(_config())
        session_id = created["session_id"]
        assert created["answers_collected"] == 0
        assert created["model"] is None  # nothing fitted yet
        _seed(client, session_id)

        status, tasks = client.get_tasks(session_id, "worker-7", k=2)
        assert status == 200
        assert len(tasks["cells"]) == 2
        assert len(tasks["gains"]) == 2
        client.post_answers(
            session_id,
            "worker-7",
            [(row, col, "red" if col == 0 else 5.5) for row, col in tasks["cells"]],
        )

        estimates = client.get_estimates(session_id)
        assert len(estimates["estimates"]) == 8
        assert estimates["answers_collected"] == 10

        status, info = client.request(
            "GET", f"/sessions/{session_id}/workers/worker-7"
        )
        assert status == 200
        assert info["answers"] == 2
        assert info["quality"] is not None

        status, stats = client.request("GET", f"/sessions/{session_id}")
        assert status == 200
        assert stats["selects_served"] == 1
        assert stats["answers_ingested"] == 10
        # The served fit: every answer batch refitted it, warm after the first.
        model = stats["model"]
        assert model["answers_seen"] == 10 and model["iterations_run"] <= 2
        assert model["stopped_by"] in ("max_iterations", "parameters")
        assert isinstance(model["objective"], float)
        assert session_id in client._expect("GET", "/sessions")["sessions"]

        closed = client.delete_session(session_id)
        assert closed == {"closed": session_id}
        status, _ = client.request("GET", f"/sessions/{session_id}")
        assert status == 404

    def test_session_from_named_dataset(self, client):
        created = client.create_session(
            {
                "version": 1,
                "dataset": {"name": "celebrity", "seed": 3, "num_rows": 4},
                "policy": {"model": dict(FAST_MODEL)},
                "serving": {"async_refit": True},
            }
        )
        assert created["num_rows"] == 4
        assert "async refit" in created["policy"]
        client.delete_session(created["session_id"])

    def test_v1_spec_body_and_config_endpoint(self, client):
        """POST a canonical v1 spec; GET /config must serve it back."""
        spec = (
            SessionSpec.builder()
            .model(**FAST_MODEL)
            .policy(refit_every=1)
            .async_refit(max_stale=0)
            .build()
        )
        created = client.create_session({"schema": SCHEMA_SPEC, **spec.to_dict()})
        session_id = created["session_id"]
        assert created["policy"].endswith("[async refit]")

        status, config = client.request(
            "GET", f"/sessions/{session_id}/config"
        )
        assert status == 200
        assert config["session_id"] == session_id
        assert config["version"] == 1
        assert schema_from_dict(config["schema"]) == schema_from_dict(SCHEMA_SPEC)
        served_spec = SessionSpec.from_dict(
            {k: v for k, v in config.items() if k not in ("schema", "session_id")}
        )
        assert served_spec == spec
        # A spec body round-trips: re-posting the served config under a new
        # id must build the same serving mode.
        twin = client.create_session({**config, "session_id": "twin-config"})
        assert twin["policy"] == created["policy"]
        client.delete_session("twin-config")
        client.delete_session(session_id)

    def test_versionless_body_is_a_strict_400(self, client):
        """The pre-spec body dialect (no ``version``) is rejected, naming
        the missing field, instead of being upgraded."""
        status, body = client.request(
            "POST",
            "/sessions",
            {
                "schema": SCHEMA_SPEC,
                "policy": {"refit_every": 1, "refit_tol": 1e-3,
                           "model": dict(FAST_MODEL)},
                "serving": {"async_refit": True, "max_stale_answers": 7},
                "snapshot_every": 50,
            },
        )
        assert status == 400, body
        assert body["path"] == "version", body
        assert body["error"].startswith("version is required"), body

    def test_config_endpoint_is_get_only_and_404s(self, client):
        assert client.request("GET", "/sessions/nope/config")[0] == 404
        session_id = client.create_session(_config())["session_id"]
        assert (
            client.request("POST", f"/sessions/{session_id}/config", {"x": 1})[0]
            == 405
        )
        client.delete_session(session_id)

    def test_worker_exhaustion_maps_to_409(self, client):
        config = _config()
        config["policy"]["max_answers_per_cell"] = 1
        session_id = client.create_session(config)["session_id"]
        for row in range(4):
            client.post_answers(
                session_id, "the-crowd", [(row, 0, "red"), (row, 1, 1.0)]
            )
        status, body = client.get_tasks(session_id, "anyone", k=1)
        assert status == 409
        assert "error" in body
        client.delete_session(session_id)


class TestErrorContract:
    def test_unknown_session_is_404(self, client):
        for method, path, payload in [
            ("GET", "/sessions/nope", None),
            ("GET", "/sessions/nope/tasks?worker=w", None),
            ("GET", "/sessions/nope/estimates", None),
            ("POST", "/sessions/nope/answers",
             {"worker": "w", "answers": [{"row": 0, "col": 0, "value": "red"}]}),
            ("DELETE", "/sessions/nope", None),
        ]:
            status, body = client.request(method, path, payload)
            assert status == 404, (method, path, status, body)

    def test_unknown_worker_is_404(self, client):
        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        status, body = client.request(
            "GET", f"/sessions/{session_id}/workers/never-answered"
        )
        assert status == 404
        assert "error" in body
        client.delete_session(session_id)

    def test_unknown_path_is_404(self, client):
        assert client.request("GET", "/frobnicate")[0] == 404
        assert client.request("GET", "/sessions/x/zap")[0] == 404

    def test_malformed_bodies_are_400(self, client):
        session_id = client.create_session(_config())["session_id"]
        cases = [
            ("POST", "/sessions", None),  # missing body
            ("POST", f"/sessions/{session_id}/answers", ["not", "an", "object"]),
            ("POST", f"/sessions/{session_id}/answers", {"worker": ""}),
            ("POST", f"/sessions/{session_id}/answers",
             {"worker": "w", "answers": []}),
            ("POST", f"/sessions/{session_id}/answers",
             {"worker": "w", "answers": ["nope"]}),
            ("POST", f"/sessions/{session_id}/answers",
             {"worker": "w", "answers": [{"row": 0}]}),
            # invalid label and out-of-range cell
            ("POST", f"/sessions/{session_id}/answers",
             {"worker": "w", "answers": [{"row": 0, "col": 0, "value": "mauve"}]}),
            ("POST", f"/sessions/{session_id}/answers",
             {"worker": "w", "answers": [{"row": 99, "col": 0, "value": "red"}]}),
        ]
        for method, path, payload in cases:
            status, body = client.request(method, path, payload)
            assert status == 400, (path, payload, status, body)
        # raw non-JSON body
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            client.base_url + f"/sessions/{session_id}/answers",
            data=b"{broken",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        client.delete_session(session_id)

    def test_tasks_query_validation(self, client):
        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        assert client.request("GET", f"/sessions/{session_id}/tasks")[0] == 400
        assert (
            client.request(
                "GET", f"/sessions/{session_id}/tasks?worker=w&k=zero"
            )[0]
            == 400
        )
        assert (
            client.request("GET", f"/sessions/{session_id}/tasks?worker=w&k=0")[0]
            == 400
        )
        client.delete_session(session_id)

    def test_bad_config_is_400(self, client):
        status, body = client.request("POST", "/sessions", {"schema": {"x": 1}})
        assert status == 400
        status, _ = client.request("POST", "/sessions", {})
        assert status == 400
        status, _ = client.request(
            "POST", "/sessions", _config(durable=True)
        )
        assert status == 400  # server has no --durable-root

    def test_invalid_spec_400_carries_the_validation_path(self, client):
        cases = [
            ({"version": 1, "schema": SCHEMA_SPEC,
              "serving": {"max_stale_answers": -1}},
             "serving.max_stale_answers"),
            ({"version": 1, "schema": SCHEMA_SPEC,
              "policy": {"model": {"m_step": "newton"}}},
             "policy.model.m_step"),
            ({"version": 1, "schema": SCHEMA_SPEC,
              "policy": {"bogus_knob": 1}},
             "policy.bogus_knob"),
            ({"version": 2, "schema": SCHEMA_SPEC}, "version"),
        ]
        for payload, path in cases:
            status, body = client.request("POST", "/sessions", payload)
            assert status == 400, (payload, status, body)
            assert body["path"] == path, body
            assert body["error"].startswith(path), body

    def test_wrong_method_is_405(self, client):
        assert client.request("POST", "/healthz", {"x": 1})[0] == 405
        assert client.request("PUT", "/sessions", {"x": 1})[0] == 405
        session_id = client.create_session(_config())["session_id"]
        assert client.request("POST", f"/sessions/{session_id}", {"x": 1})[0] == 405
        client.delete_session(session_id)


class TestObservability:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert isinstance(health["sessions"], int)

    def test_metrics_scrape(self, client):
        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        client.get_tasks(session_id, "scraper", k=1)
        text = client.get_metrics()
        assert "repro_service_sessions_active" in text
        assert 'repro_service_requests_total{endpoint="tasks"}' in text
        assert "repro_service_answers_ingested_total" in text
        assert "# TYPE repro_service_select_latency_seconds histogram" in text
        assert 'repro_service_select_latency_seconds_bucket{le="+Inf"}' in text
        assert "repro_service_select_latency_seconds_sum" in text
        assert "repro_service_select_latency_seconds_count" in text
        client.delete_session(session_id)
        # 404s show up as error counters
        client.request("GET", "/sessions/nope")
        assert 'repro_service_http_errors_total{status="404"}' in client.get_metrics()

    def test_sync_session_reports_hot_path_stages(self, monkeypatch):
        """The default sync policy's EM refits and selects reach
        ``repro_hotpath_stage_seconds``, one observation each."""
        from repro.core.inference import TCrowdModel

        fits = []
        original = TCrowdModel.fit

        def fit(model, *args, **kwargs):
            fits.append(1)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(TCrowdModel, "fit", fit)
        with ServiceServer() as running:
            own = ServiceClient(running.address)
            session_id = own.create_session(_config())["session_id"]
            _seed(own, session_id)
            selects = 0
            for n in range(3):
                assert own.get_tasks(session_id, f"sync{n}", k=1)[0] == 200
                selects += 1
            assert own.request("GET", f"/sessions/{session_id}/estimates")[0] == 200
            text = own.get_metrics()

        def count(stage):
            prefix = f'repro_hotpath_stage_seconds_count{{stage="{stage}"}} '
            (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
            return int(line[len(prefix):])

        assert len(fits) == 4  # one per seed batch; selects and the read reuse it
        assert count("em_refit") == len(fits)
        for stage in ("calculator_build", "gains_batch", "top_k_merge"):
            assert count(stage) == selects

    def test_every_histogram_is_cumulative_and_ends_at_its_count(self, client):
        """Select latency and every hot-path stage (an async session
        records those) are histograms whose ``le`` buckets never decrease
        and whose ``+Inf`` bucket equals ``_count``."""
        session_id = client.create_session(
            _config(serving={"async_refit": True})
        )["session_id"]
        _seed(client, session_id)
        for n in range(3):
            assert client.get_tasks(session_id, f"hist{n}", k=1)[0] == 200
        text = client.get_metrics()
        client.delete_session(session_id)

        families = [
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ") and line.endswith(" histogram")
        ]
        assert "repro_service_select_latency_seconds" in families
        assert "repro_hotpath_stage_seconds" in families
        for family in families:
            buckets, counts = {}, {}
            for line in text.splitlines():
                series, _, value = line.rpartition(" ")
                name, _, labels = series.partition("{")
                labels = labels.rstrip("}")
                if name == f"{family}_bucket":
                    rest, _, le = labels.rpartition("le=")
                    buckets.setdefault(rest, []).append((le.strip('"'), float(value)))
                elif name == f"{family}_count":
                    counts[f"{labels}," if labels else ""] = float(value)
            assert buckets and set(buckets) == set(counts), family
            for series, values in buckets.items():
                cumulative = [count for _le, count in values]
                assert cumulative == sorted(cumulative), (family, series)
                assert values[-1][0] == "+Inf", (family, series)
                assert values[-1][1] == counts[series], (family, series)


class TestConcurrency:
    def test_concurrent_workers_share_one_session(self, client):
        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        errors = []
        accepted = []

        def crowd_worker(name):
            try:
                for _ in range(3):
                    status, body = client.get_tasks(session_id, name, k=1)
                    if status == 409:
                        return  # exhausted for this worker — valid outcome
                    assert status == 200, (status, body)
                    (row, col), = body["cells"]
                    client.post_answers(
                        session_id,
                        name,
                        [(row, col, "green" if col == 0 else 42.0)],
                    )
                    accepted.append(1)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=crowd_worker, args=(f"crowd-{i}",))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        status, stats = client.request("GET", f"/sessions/{session_id}")
        assert status == 200
        # Every accepted answer is accounted for exactly once.
        assert stats["answers_collected"] == 8 + len(accepted)
        client.delete_session(session_id)


def _estimates_raw(client, session_id) -> bytes:
    status, raw = client.request_raw("GET", f"/sessions/{session_id}/estimates")
    assert status == 200, raw
    return raw


def _reference_estimates(session) -> dict:
    """The ``GET /estimates`` body, built cell by cell from the served fit."""
    result = session.durable.policy.snapshot_state()[0]
    answers = session.durable.answers
    return {
        "session_id": session.session_id,
        "answers_collected": len(answers),
        "mean_answers_per_cell": answers.mean_answers_per_cell(),
        "estimates": {
            f"{row},{col}": result.estimate(row, col)
            for row in range(session.schema.num_rows)
            for col in range(session.schema.num_columns)
        },
    }


SERVING_MODES = {
    "sync": {},
    "async-0": {"async_refit": True, "max_stale_answers": 0},
    "async-12": {"async_refit": True, "max_stale_answers": 12},
}


class TestEstimatesBody:
    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @pytest.mark.parametrize("mode", sorted(SERVING_MODES))
    def test_cached_body_over_http_and_across_recovery(self, tmp_path, mode, backend):
        """Back-to-back reads send the cached bytes and log nothing; an
        answer in between changes the body; a recovered session serves the
        body its live predecessor served before the crash."""
        from scripted_sessions import abandon_session

        durable_dir = tmp_path / "session"
        registry = SessionRegistry()
        with ServiceServer(registry) as server:
            client = ServiceClient(server.address)
            session_id = client.create_session(_config(
                serving=dict(SERVING_MODES[mode]),
                durability={"durable_dir": str(durable_dir), "backend": backend,
                            "snapshot_every_answers": 6},
            ))["session_id"]
            session = registry.get(session_id)
            _seed(client, session_id)
            for step in range(4):
                raw = _estimates_raw(client, session_id)
                body = json.loads(raw)
                assert body == _reference_estimates(session)
                cached, wal_records = session._estimates_body, session.durable.wal_records
                assert _estimates_raw(client, session_id) == raw
                assert session._estimates_body is cached
                assert session.durable.wal_records == wal_records
                worker = f"w{step}"
                status, tasks = client.get_tasks(session_id, worker, k=2)
                assert status == 200, tasks
                client.post_answers(session_id, worker, [
                    (row, col, "blue" if col == 0 else 30.0 + step)
                    for row, col in tasks["cells"]
                ])
                after = _estimates_raw(client, session_id)
                assert after != raw
                assert json.loads(after)["answers_collected"] == (
                    body["answers_collected"] + len(tasks["cells"])
                )
                assert json.loads(after) == _reference_estimates(session)
            live = _estimates_raw(client, session_id)
            abandon_session(session.durable)  # crash: no closing snapshot
        fresh = SessionRegistry()
        recovered = fresh.create(
            {"version": 1, "durability": {"durable_dir": str(durable_dir)}}
        )
        try:
            assert recovered.estimates() == live
            assert json.loads(live) == _reference_estimates(recovered)
        finally:
            fresh.close_all()

    def test_a_non_finite_estimate_is_a_json_500(self):
        """The session encodes the body; a NaN estimate is still a server
        fault with a JSON error, never a 400 and never a cached body."""
        import dataclasses

        import numpy as np

        registry = SessionRegistry()
        with ServiceServer(registry) as server:
            client = ServiceClient(server.address)
            session_id = client.create_session(_config())["session_id"]
            _seed(client, session_id)
            path = f"/sessions/{session_id}/estimates"
            good = _estimates_raw(client, session_id)
            durable = registry.get(session_id).durable
            result = durable.estimates()
            broken = dataclasses.replace(
                result, cont_mean=np.full_like(result.cont_mean, np.nan)
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(durable, "estimates", lambda: broken)
                for _ in range(2):
                    status, body = client.request("GET", path)
                    assert status == 500, body
                    assert body["error"].startswith("Response is not valid JSON"), body
            assert _estimates_raw(client, session_id) == good


class TestDurableSessionsOverHTTP:
    def test_recovery_across_server_restart(self, tmp_path):
        durable_dir = tmp_path / "session-a"
        with ServiceServer() as first:
            client = ServiceClient(first.address)
            created = client.create_session(
                _config(durability={"durable_dir": str(durable_dir),
                                    "snapshot_every_answers": 4})
            )
            session_id = created["session_id"]
            _seed(client, session_id)
            status, tasks = client.get_tasks(session_id, "worker-z", k=2)
            assert status == 200
            client.post_answers(
                session_id,
                "worker-z",
                [
                    (row, col, "blue" if col == 0 else 7.0)
                    for row, col in tasks["cells"]
                ],
            )
            before = client.get_estimates(session_id)
        # server gone; a brand-new process recovers the session from disk
        with ServiceServer() as second:
            client = ServiceClient(second.address)
            recovered = client.create_session(
                {"version": 1, "durability": {"durable_dir": str(durable_dir)}}
            )
            assert recovered["session_id"] == session_id
            assert recovered["answers_collected"] == before["answers_collected"]
            after = client.get_estimates(session_id)
            assert after["estimates"] == before["estimates"]

    def test_registry_recover_all(self, tmp_path):
        registry = SessionRegistry(durable_root=tmp_path)
        with ServiceServer(registry) as server:
            client = ServiceClient(server.address)
            session_id = client.create_session(_config(durable=True))["session_id"]
            _seed(client, session_id)
        fresh = SessionRegistry(durable_root=tmp_path)
        assert fresh.recover_all() == [session_id]
        assert len(fresh.get(session_id).durable.answers) == 8
        fresh.close_all()

    def test_recover_all_skips_corrupt_directories(self, tmp_path, caplog):
        registry = SessionRegistry(durable_root=tmp_path)
        with ServiceServer(registry) as server:
            client = ServiceClient(server.address)
            session_id = client.create_session(_config(durable=True))["session_id"]
            _seed(client, session_id)
        corrupt = tmp_path / "corrupt-session"
        corrupt.mkdir()
        (corrupt / "session.json").write_text("{broken", encoding="utf-8")
        fresh = SessionRegistry(durable_root=tmp_path)
        with caplog.at_level("WARNING", logger="repro.service.registry"):
            assert fresh.recover_all() == [session_id]
        assert "skipping unrecoverable" in caplog.text
        fresh.close_all()

    def test_two_servers_on_one_durable_root(self, tmp_path, caplog):
        """A session is open in one server at a time: a second registry on
        the same root skips it on boot and answers a POST for it with 409,
        until the first server closes it."""
        with ServiceServer(SessionRegistry(durable_root=tmp_path)) as first:
            session_id = ServiceClient(first.address).create_session(
                _config(durable=True)
            )["session_id"]
            second = SessionRegistry(durable_root=tmp_path)
            with caplog.at_level("WARNING", logger="repro.service.registry"):
                assert second.recover_all() == []
            assert "already open" in caplog.text
            with ServiceServer(second) as server:
                status, body = ServiceClient(server.address).request(
                    "POST", "/sessions",
                    {"version": 1, "durable": True, "session_id": session_id},
                )
            assert status == 409 and "already open" in body["error"], body
        assert second.recover_all() == [session_id]
        second.close_all()

    def test_manifest_pins_the_canonical_spec(self, tmp_path):
        import json as json_module

        durable_dir = tmp_path / "pinned"
        registry = SessionRegistry()
        session = registry.create(
            {
                "version": 1,
                "schema": SCHEMA_SPEC,
                "policy": {"model": dict(FAST_MODEL)},
                # crowdbench's large-durable body still sends the retired
                # refit_tol: accepted, and the manifest drops it.
                "serving": {"max_stale_answers": 2, "refit_tol": 1e-9},
                "durability": {"durable_dir": str(durable_dir),
                               "snapshot_every_answers": 10},
            }
        )
        manifest = json_module.loads(
            (durable_dir / "session.json").read_text(encoding="utf-8")
        )
        assert manifest["format"] == 2
        assert "refit_tol" not in manifest["spec"]["serving"]
        assert manifest["spec"]["policy"]["model"]["warm_iterations"] == 2
        spec = SessionSpec.from_dict(manifest["spec"])
        assert spec.serving.max_stale_answers == 2
        assert spec.durability.durable_dir == str(durable_dir)
        assert session.config_payload()["serving"]["max_stale_answers"] == 2
        registry.close_all()
        # Recovery rebuilds the identical spec from the manifest alone.
        fresh = SessionRegistry()
        recovered = fresh.create(
            {"version": 1, "durability": {"durable_dir": str(durable_dir)}}
        )
        assert recovered.spec == spec
        fresh.close_all()

    def test_manifest_with_retired_serving_keys_recovers(self, tmp_path):
        """Manifests written before a serving field was retired carry it,
        and they must still recover, in-process.

        Two inputs: ``shard_workers`` / ``scoring_cache``, and a session
        served with ``processes = 2`` over ``shards = 4``, whose decision
        records (WAL events and one snapshot's audit history) carry the
        two-block ``shards`` lineage its coordinator wrote.
        """
        import json as json_module

        def two_block_lineage(record):
            winners = [
                [row, col, gain]
                for (row, col), gain in zip(record["cells"], record["gains"])
            ]
            return dict(record, shards=[
                {"shard": 0, "candidates": record["candidates"] - 1,
                 "winners": winners, "process": 0},
                {"shard": 1, "candidates": 1, "winners": [], "process": 1},
            ])

        inputs = [
            ({"shard_workers": None, "scoring_cache": True}, None),
            ({"processes": 2, "shards": 4}, two_block_lineage),
        ]
        for n, (retired, annotate) in enumerate(inputs):
            durable_dir = tmp_path / f"retired-{n}"
            registry = SessionRegistry()
            session = registry.create(
                _config(durability={"durable_dir": str(durable_dir),
                                    "snapshot_every_answers": 10_000})
            )
            for row in range(4):
                session.ingest(f"seed-{row % 2}", [(row, 0, "red"), (row, 1, 10.0 + row)])
            for step in range(4):
                worker = f"w{step}"
                cells = session.select(worker, k=1).cells
                session.ingest(worker, [(row, col, "blue" if col == 0 else 40.0)
                                        for row, col in cells])
                if step == 1:
                    session.durable.snapshot()
            session.select("w9", k=2)
            estimates = json.loads(session.estimates())["estimates"]
            recorder = session.durable.recorder
            head = recorder.chain_head
            decisions = [record.cells for record in recorder.page(0, 100)]
            session_id, spec = session.session_id, session.spec
            session.durable._storage.close()  # crash: no closing snapshot

            manifest_path = durable_dir / "session.json"
            manifest = json_module.loads(manifest_path.read_text(encoding="utf-8"))
            manifest["spec"]["serving"].update(retired)
            manifest_path.write_text(json_module.dumps(manifest), encoding="utf-8")
            if annotate is not None:
                annotated = 0
                for segment in durable_dir.glob("wal*.jsonl"):
                    events = [json_module.loads(line)
                              for line in segment.read_text(encoding="utf-8").splitlines()]
                    for event in events:
                        if event["t"] == "decision":
                            event["d"] = annotate(event["d"])
                            annotated += 1
                    segment.write_text(
                        "".join(json_module.dumps(event) + "\n" for event in events),
                        encoding="utf-8",
                    )
                assert annotated == len(decisions)
                (snapshot_path,) = (durable_dir / "snapshots").glob("snapshot-*.json")
                snapshot = json_module.loads(snapshot_path.read_text(encoding="utf-8"))
                assert snapshot["audit"]["records"]
                snapshot["audit"]["records"] = [
                    annotate(record) for record in snapshot["audit"]["records"]
                ]
                snapshot_path.write_text(json_module.dumps(snapshot), encoding="utf-8")

            fresh = SessionRegistry()
            recovered = fresh.create(
                {"version": 1, "durability": {"durable_dir": str(durable_dir)}}
            )
            try:
                assert recovered.session_id == session_id
                assert recovered.spec == spec
                stats = recovered.stats()
                assert stats["audit_replay_verified"] > 0
                assert stats["audit_replay_mismatches"] == 0
                assert stats["decision_chain_hash"] == head
                records = recovered.durable.recorder.page(0, 100)
                assert [record.cells for record in records] == decisions
                assert json.loads(recovered.estimates())["estimates"] == estimates
                serving = recovered.config_payload()["serving"]
                assert not set(retired) & set(serving), serving
            finally:
                fresh.close_all()

    def test_format1_manifest_is_unrecoverable(self, tmp_path):
        import json as json_module

        tmp_path.joinpath("session.json").write_text(json_module.dumps(
            {"format": 1, "session_id": "old", "schema": SCHEMA_SPEC,
             "config": {"policy": {"refit_every": 1}}}
        ), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="Cannot recover"):
            SessionRegistry().create(
                {"version": 1, "durability": {"durable_dir": str(tmp_path)}}
            )

    def test_parse_config_dialect_detection(self):
        envelope, spec = parse_config(
            {"version": 1, "schema": SCHEMA_SPEC, "serving": {"audit": False}}
        )
        assert envelope == {"schema": SCHEMA_SPEC}
        assert spec.serving.audit is False
        # Only the v1 dialect exists: a body without a version is rejected.
        with pytest.raises(SpecValidationError) as excinfo:
            parse_config({"schema": SCHEMA_SPEC, "serving": {"audit": False}})
        assert excinfo.value.path == "version"

    def test_duplicate_session_id_rejected(self, tmp_path):
        registry = SessionRegistry()
        session = registry.create(_config(session_id="twin"))
        assert session.session_id == "twin"
        with pytest.raises(ConfigurationError):
            registry.create(_config(session_id="twin"))
        registry.close_all()


def _damage_newest_snapshot(directory, backend, damage):
    """Rewrite the newest snapshot's JSON as ``damage(payload)``; return
    the retained epochs, oldest first."""
    if backend == "sqlite":
        with contextlib.closing(
            sqlite3.connect(directory / "durable.sqlite3")
        ) as conn, conn:
            rows = conn.execute(
                "SELECT epoch, payload FROM snapshots ORDER BY epoch"
            ).fetchall()
            epoch, payload = rows[-1]
            conn.execute(
                "UPDATE snapshots SET payload = ? WHERE epoch = ?",
                (json.dumps(damage(json.loads(payload))), epoch),
            )
        return [epoch for epoch, _payload in rows]
    paths = sorted((directory / "snapshots").glob("snapshot-*.json"))
    payload = json.loads(paths[-1].read_text(encoding="utf-8"))
    paths[-1].write_text(json.dumps(damage(payload)), encoding="utf-8")
    return [int(path.name.split("-")[1]) for path in paths]


class TestUnreadableNewestSnapshot:
    """A newest snapshot whose JSON is not a snapshot object is skipped:
    recovery, ``durable_summary`` and ``recover_all`` fall back to the
    older retained snapshot and the WAL tail it needs."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "damage",
        [lambda payload: [], lambda payload: {**payload, "epoch": None}],
        ids=["not-an-object", "epoch-null"],
    )
    def test_recovery_falls_back_to_the_older_snapshot(
        self, backend, damage, tmp_path
    ):
        registry = SessionRegistry(durable_root=tmp_path)
        session = registry.create(
            _config(
                session_id="fallback",
                durable=True,
                durability={"backend": backend, "snapshot_every_answers": 4,
                            "keep_snapshots": 2},
            )
        )
        for row in range(4):
            session.ingest(f"seed-{row % 2}", [(row, 0, "red"), (row, 1, 10.0 + row)])
        for step in range(6):
            worker = f"w{step % 3}"
            cells = session.select(worker, k=2).cells
            session.ingest(
                worker,
                [(row, col, 5.0 + step if col else "blue") for row, col in cells],
            )
        decisions = session.decisions(limit=1000)
        estimates = json.loads(session.estimates())
        registry.close_all()

        directory = tmp_path / "fallback"
        epochs = _damage_newest_snapshot(directory, backend, damage)
        assert len(epochs) == 2
        assert durable_summary(directory)["latest_snapshot_epoch"] == epochs[0]
        fresh = SessionRegistry(durable_root=tmp_path)
        try:
            assert fresh.recover_all() == ["fallback"]
            recovered = fresh.get("fallback")
            stats = recovered.stats()
            assert stats["recovered_epoch"] == epochs[0]
            assert stats["audit_replay_verified"] > 0
            assert stats["audit_replay_mismatches"] == 0
            assert recovered.decisions(limit=1000) == decisions
            assert json.loads(recovered.estimates()) == estimates
        finally:
            fresh.close_all()


def _append_wal_record(directory, backend, record):
    """Append ``record`` as the newest log record; return its global index."""
    line = json.dumps(record)
    if backend == "sqlite":
        with contextlib.closing(
            sqlite3.connect(directory / "durable.sqlite3")
        ) as conn, conn:
            (index,) = conn.execute("SELECT MAX(idx) + 1 FROM wal").fetchone()
            conn.execute("INSERT INTO wal (idx, record) VALUES (?, ?)", (index, line))
        return index
    index = durable_summary(directory)["wal_records"]
    with open(wal_segment_files(directory)[-1][1], "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return index


def _first_answer_row_cut(payload):
    answers = [list(row) for row in payload["answers"]]
    answers[0] = answers[0][:3]
    return {**payload, "answers": answers}


class TestMalformedDurableState:
    """A logged record or snapshot body with the wrong shape stops only its
    own session's recovery, with a :class:`DurabilityError` that names it;
    ``recover_all`` logs it and recovers the other sessions."""

    @staticmethod
    def _two_sessions(root, backend):
        registry = SessionRegistry(durable_root=root)
        for session_id in ("bad", "healthy"):
            session = registry.create(
                _config(
                    session_id=session_id,
                    durable=True,
                    durability={"backend": backend, "snapshot_every_answers": 4},
                )
            )
            for row in range(4):
                session.ingest(f"seed-{row % 2}", [(row, 0, "red"), (row, 1, 10.0 + row)])
            for step in range(3):
                cells = session.select(f"w{step}", k=2).cells
                session.ingest(
                    f"w{step}",
                    [(row, col, 5.0 if col else "blue") for row, col in cells],
                )
        registry.close_all()

    @staticmethod
    def _assert_only_bad_fails(root, backend, match, caplog):
        fresh = SessionRegistry(durable_root=root)
        try:
            with pytest.raises(DurabilityError, match=match):
                fresh.create({"version": 1, "durability": {"durable_dir": str(root / "bad")}})
            create_backend(root / "bad", backend=backend).close()  # released
            with caplog.at_level("WARNING", logger="repro.service.registry"):
                assert fresh.recover_all() == ["healthy"]
            assert "skipping unrecoverable" in caplog.text
            assert "bad" in caplog.text and "malformed" in caplog.text
        finally:
            fresh.close_all()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "record",
        [
            {"t": "answers", "w": "x", "a": 5},
            {"t": "select", "k": 1},
            {"t": "answers", "w": "x", "a": [["r", 0, "red"]]},
            {"t": "answers", "w": "x", "a": [[0, 0]]},
            {"t": "decision", "w": "x", "k": 1, "d": {}},
            {"t": "select", "w": "w1", "k": "zz"},
            {"t": "answers", "w": 5, "a": [[2, 0, "red"]]},
        ],
        ids=[
            "answers-not-a-list", "select-without-worker", "row-not-a-number",
            "answer-of-two-items", "decision-without-fields", "k-not-a-number",
            "worker-not-a-string",
        ],
    )
    def test_malformed_wal_record(self, backend, record, tmp_path, caplog):
        self._two_sessions(tmp_path, backend)
        index = _append_wal_record(tmp_path / "bad", backend, record)
        self._assert_only_bad_fails(
            tmp_path, backend, f"WAL record {index} is malformed", caplog
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_unknown_record_types_are_still_skipped(self, backend, tmp_path):
        self._two_sessions(tmp_path, backend)
        _append_wal_record(tmp_path / "bad", backend, {"t": "later", "x": [1]})
        fresh = SessionRegistry(durable_root=tmp_path)
        try:
            assert fresh.recover_all() == ["bad", "healthy"]
        finally:
            fresh.close_all()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: {**payload, "answers": 5},
            _first_answer_row_cut,
            lambda payload: {**payload, "model": {}},
            lambda payload: {**payload, "model": {**payload["model"], "result": 5}},
            lambda payload: {**payload, "audit": 5},
        ],
        ids=["answers-not-a-list", "answer-of-three-items", "model-empty",
             "result-not-an-object", "audit-not-an-object"],
    )
    def test_malformed_snapshot_body(self, backend, damage, tmp_path, caplog):
        self._two_sessions(tmp_path, backend)
        epoch = _damage_newest_snapshot(tmp_path / "bad", backend, damage)[-1]
        self._assert_only_bad_fails(
            tmp_path, backend, f"snapshot epoch {epoch} is malformed", caplog
        )


_UNADDRESSABLE_IDS = [5, "", "a/b", ".", "..", "../x", "x y"]
_ADDRESSABLE_IDS = ["bench", "ok-1", "a.b_c"]


class TestSessionIds:
    """``POST /sessions`` takes only ids one URL segment can carry."""

    @pytest.fixture()
    def durable_client(self, tmp_path):
        with ServiceServer(SessionRegistry(durable_root=tmp_path / "root")) as server:
            yield ServiceClient(server.address)

    @pytest.mark.parametrize("durable", [False, True])
    def test_unaddressable_ids_are_400(self, durable_client, tmp_path, durable):
        for session_id in _UNADDRESSABLE_IDS:
            status, body = durable_client.request(
                "POST", "/sessions", _config(session_id=session_id, durable=durable)
            )
            assert status == 400, (session_id, status, body)
            assert body["path"] == "session_id", (session_id, body)
        assert durable_client.request("GET", "/sessions") == (200, {"sessions": []})
        # Nothing was written, inside the durable root or beside it.
        assert all(path == tmp_path / "root" for path in tmp_path.rglob("*"))

    def test_addressable_ids_are_201(self, durable_client, tmp_path):
        for session_id in _ADDRESSABLE_IDS:
            status, body = durable_client.request(
                "POST", "/sessions", _config(session_id=session_id, durable=True)
            )
            assert status == 201 and body["session_id"] == session_id, body
            assert durable_client.request("GET", f"/sessions/{session_id}")[0] == 200
            assert (tmp_path / "root" / session_id / "session.json").exists()
        assert durable_client.request("GET", "/sessions") == (
            200, {"sessions": sorted(_ADDRESSABLE_IDS)}
        )

    def test_non_boolean_durable_is_400(self, client):
        for durable in ("yes", 1, None):
            status, body = client.request("POST", "/sessions", _config(durable=durable))
            assert status == 400 and body["path"] == "durable", (durable, body)


class TestServingBenchmarkAndCLI:
    def test_cli_build_server(self, tmp_path):
        from repro.service.__main__ import build_server

        server = build_server(
            ["--port", "0", "--durable-root", str(tmp_path)]
        ).start()
        try:
            client = ServiceClient(server.address)
            assert client.healthz()["status"] == "ok"
            session_id = client.create_session(_config(durable=True))["session_id"]
            assert (tmp_path / session_id / "session.json").exists()
        finally:
            server.close()
        # a second CLI boot recovers the durable session
        server = build_server(["--port", "0", "--durable-root", str(tmp_path)])
        try:
            assert session_id in server.registry.ids()
        finally:
            server.close()

    def test_cli_main_clean_shutdown(self, monkeypatch, capsys):
        import repro.service.__main__ as cli

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.ServiceServer, "serve_forever", interrupted)
        assert cli.main(["--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "listening on http://" in out
        assert "shut down cleanly" in out


class TestIngestionValidationAndLimits:
    """PR-8 fixes: entry-indexed 400s, the body cap, durability stats."""

    def test_answers_validation_names_the_entry(self, client):
        session_id = client.create_session(_config())["session_id"]
        cases = [
            # bool is an int subclass — it must still be rejected
            ({"worker": "w", "answers": [{"row": True, "col": 0, "value": "red"}]},
             "answers[0].row"),
            ({"worker": "w", "answers": [{"row": 0, "col": "0", "value": "red"}]},
             "answers[0].col"),
            ({"worker": "w", "answers": [
                {"row": 0, "col": 0, "value": "red"},
                {"row": 1.5, "col": 0, "value": "red"},
            ]}, "answers[1].row"),
            ({"worker": "w", "answers": [
                {"row": 0, "col": 0, "value": "red"}, "nope",
            ]}, "answers[1]"),
            ({"worker": "w", "answers": [{"col": 0, "value": "red"}]},
             "answers[0]"),
        ]
        for payload, needle in cases:
            status, body = client.request(
                "POST", f"/sessions/{session_id}/answers", payload
            )
            assert status == 400, (payload, status, body)
            assert needle in body["error"], (needle, body)
        client.delete_session(session_id)

    def test_non_finite_answers_are_typed_400s(self, client):
        """``"value": NaN`` used to be accepted and turned estimates into
        bare ``NaN`` tokens; every non-finite spelling is now refused."""
        import urllib.error
        import urllib.request

        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        path = f"/sessions/{session_id}/answers"
        for value in ("nan", "inf", "-Infinity"):
            status, body = client.request("POST", path, {"worker": "w", "answers": [
                {"row": 0, "col": 0, "value": "red"},
                {"row": 0, "col": 1, "value": value},
            ]})
            assert status == 400, (value, status, body)
            assert body["path"] == "answers[1].value", body
            assert "finite" in body["error"], body
        raw_bodies = {
            # 1e999 parses as inf without touching parse_constant.
            b'{"worker": "w", "answers": [{"row": 0, "col": 1, "value": 1e999}]}':
                "answers[0].value",
            b'{"worker": "w", "answers": [{"row": 0, "col": 1, "value": NaN}]}': None,
            b'{"worker": "w", "answers": [{"row": 0, "col": 1, "value": -Infinity}]}':
                None,
        }
        for raw, field_path in raw_bodies.items():
            req = urllib.request.Request(
                client.base_url + path, data=raw,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(req, timeout=10)
            assert caught.value.code == 400, raw
            error = json.loads(caught.value.read().decode("utf-8"))
            assert error.get("path") == field_path, (raw, error)
        estimates = client.get_estimates(session_id)
        assert estimates["answers_collected"] == 8
        assert all(
            isinstance(value, str) or math.isfinite(value)
            for value in estimates["estimates"].values()
        )
        client.delete_session(session_id)

    def test_huge_finite_answers_are_typed_400s(self, client):
        """A finite ``"value": 1e160`` used to be accepted; EM's
        standardisation then overflowed and ``GET /estimates`` answered 500.
        Magnitudes above MAX_ANSWER_MAGNITUDE are refused, and the largest
        accepted one keeps every estimate and gain finite."""
        from repro.core.schema import MAX_ANSWER_MAGNITUDE

        session_id = client.create_session(_config())["session_id"]
        _seed(client, session_id)
        path = f"/sessions/{session_id}/answers"
        for value in (1e160, -1e160, "3e154"):
            status, body = client.request("POST", path, {"worker": "w", "answers": [
                {"row": 0, "col": 0, "value": "red"},
                {"row": 0, "col": 1, "value": value},
            ]})
            assert status == 400, (value, status, body)
            assert body["path"] == "answers[1].value", body
            assert "finite" in body["error"], body
        client.post_answers(session_id, "w", [(1, 1, MAX_ANSWER_MAGNITUDE)])
        status, estimates = client.request("GET", f"/sessions/{session_id}/estimates")
        assert status == 200, estimates
        assert estimates["answers_collected"] == 9
        assert all(
            isinstance(value, str) or math.isfinite(value)
            for value in estimates["estimates"].values()
        )
        status, tasks = client.get_tasks(session_id, "w", k=4)
        assert status == 200, tasks
        assert tasks["gains"] and all(math.isfinite(gain) for gain in tasks["gains"])
        client.delete_session(session_id)

    def test_oversized_body_is_413(self):
        with ServiceServer(max_body_bytes=512) as server:
            small = ServiceClient(server.address)
            status, body = small.request(
                "POST", "/sessions", {"schema": SCHEMA_SPEC, "pad": "x" * 2048}
            )
            assert status == 413, (status, body)
            assert "exceeds" in body["error"], body
            # A body under the cap still works on the same server.
            session_id = small.create_session(_config())["session_id"]
            small.delete_session(session_id)

    def test_truncated_body_is_400_not_a_hang(self):
        import socket

        with ServiceServer() as server:
            host, port = server.address.removeprefix("http://").rsplit(":", 1)
            payload = b'{"worker": "w"'
            request = (
                "POST /sessions HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload) + 9}\r\n\r\n"
            ).encode("ascii") + payload
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)  # body ends short of the header
                response = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line, response[:200]
        assert b"Truncated request body" in response, response[:500]

    def test_durable_stats_and_metrics_expose_rotation(self, tmp_path):
        registry = SessionRegistry(durable_root=tmp_path)
        with ServiceServer(registry) as server:
            api = ServiceClient(server.address)
            spec = (
                SessionSpec.builder()
                .model(**FAST_MODEL)
                .policy(refit_every=1)
                .durable(
                    None,
                    snapshot_every_answers=4,
                    backend="sqlite",
                    rotate_every_records=4,
                    keep_snapshots=2,
                )
                .build()
            )
            created = api.create_session(
                {"schema": SCHEMA_SPEC, "durable": True, **spec.to_dict()}
            )
            session_id = created["session_id"]
            _seed(api, session_id)
            status, stats = api.request("GET", f"/sessions/{session_id}")
            assert status == 200, (status, stats)
            assert stats["durability_backend"] == "sqlite"
            assert stats["wal_segments"] == 1  # sqlite: always one file
            assert stats["snapshots_retained"] >= 1
            assert stats["wal_records"] >= 4
            text = api.get_metrics()
            assert "repro_service_wal_segments 1" in text
            assert "repro_service_snapshots_retained" in text
            api.delete_session(session_id)

    def test_cli_durable_backend_and_body_cap_flags(self, tmp_path):
        from repro.service.__main__ import build_server

        server = build_server(
            [
                "--port", "0",
                "--durable-root", str(tmp_path),
                "--durable-backend", "sqlite",
                "--max-body-bytes", "600",
            ]
        ).start()
        try:
            api = ServiceClient(server.address)
            session_id = api.create_session(_config(durable=True))["session_id"]
            status, stats = api.request("GET", f"/sessions/{session_id}")
            assert status == 200 and stats["durability_backend"] == "sqlite"
            assert (tmp_path / session_id / "durable.sqlite3").exists()
            status, body = api.request(
                "POST", "/sessions", {"schema": SCHEMA_SPEC, "pad": "x" * 2048}
            )
            assert status == 413, (status, body)
        finally:
            server.close()
        # A restart without --durable-backend keeps the manifest's backend.
        server = build_server(["--port", "0", "--durable-root", str(tmp_path)])
        try:
            assert session_id in server.registry.ids()
            assert (
                server.registry.get(session_id).durable.backend_name == "sqlite"
            )
        finally:
            server.close()

    def test_explicit_spec_backend_beats_the_cli_default(self, tmp_path):
        registry = SessionRegistry(durable_root=tmp_path, durable_backend="sqlite")
        with ServiceServer(registry) as server:
            api = ServiceClient(server.address)
            spec = (
                SessionSpec.builder()
                .model(**FAST_MODEL)
                .durable(None, backend="jsonl")
                .build()
            )
            created = api.create_session(
                {"schema": SCHEMA_SPEC, "durable": True, **spec.to_dict()}
            )
            assert created["durability_backend"] == "jsonl"
            assert (tmp_path / created["session_id"] / "wal.jsonl").exists()
            api.delete_session(created["session_id"])
