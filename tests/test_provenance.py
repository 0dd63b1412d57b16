"""Decision provenance: ledger chaining, cross-mode identity, audit API.

The golden-trace audit matrix is the load-bearing test here: the scripted
scenario replayed through every serving mode — the plain assigner and async
at ``max_stale_answers=0`` — must produce *hash-identical* decision
ledgers, because the hashed core of a record carries only mode-invariant
facts.  Crash recovery must re-derive
the same ledger from the WAL on both storage backends, and the HTTP layer
must serve it faithfully.
"""

from __future__ import annotations

import functools

import pytest

from repro.config import SessionSpec
from repro.core.answers import AnswerSet
from repro.core.assignment import BatchAssignment
from repro.core.inference import TCrowdModel
from repro.engine.provenance import (
    AUDIT_FORMAT,
    CORE_FIELDS,
    DEFAULT_PAGE_LIMIT,
    GENESIS_HASH,
    MAX_PAGE_LIMIT,
    DecisionRecorder,
    record_core,
)
from repro.core.codec import payload_hash
from repro.service.app import ServiceServer
from repro.service.client import ServiceClient
from scripted_sessions import SERVING_MODES, run_scripted_session, verify_audit_replay

SCHEMA_SPEC = {
    "entity_attribute": "item",
    "num_rows": 4,
    "columns": [
        {"name": "color", "type": "categorical", "labels": ["red", "green", "blue"]},
        {"name": "weight", "type": "continuous", "domain": [0.0, 100.0]},
    ],
}

FAST_MODEL = {"max_iterations": 3, "m_step_iterations": 6}


def _assignment(worker="w0", cells=((0, 0), (0, 1)), gains=(2.0, 1.0)):
    return BatchAssignment(worker=worker, cells=tuple(cells), gains=tuple(gains))


@functools.lru_cache(maxsize=1)
def _result():
    """One small fitted model state for the recorder unit tests to hash."""
    from repro.service.registry import schema_from_dict

    schema = schema_from_dict(SCHEMA_SPEC)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        answers.add_answer("w0", row, 0, "red")
        answers.add_answer("w0", row, 1, 10.0 + row)
    return TCrowdModel(**FAST_MODEL).fit(schema, answers)


def _record(recorder, n, *, answers_seen=5, worker="w0"):
    return recorder.record(
        _assignment(worker=worker),
        answers_seen=answers_seen,
        answers_total=answers_seen + n,
        candidates=8,
        result=_result(),
    )


class TestDecisionRecorder:
    def test_records_chain_from_genesis(self):
        recorder = DecisionRecorder()
        first = _record(recorder, 0)
        second = _record(recorder, 1)
        assert first.decision_id == 0 and second.decision_id == 1
        assert first.prev_hash == GENESIS_HASH
        assert second.prev_hash == first.record_hash
        assert recorder.chain_head == second.record_hash
        assert recorder.count == 2

    def test_epoch_derives_from_answers_seen_transitions(self):
        recorder = DecisionRecorder()
        a = _record(recorder, 0, answers_seen=5)
        b = _record(recorder, 1, answers_seen=5)
        c = _record(recorder, 2, answers_seen=9)
        assert (a.epoch, b.epoch, c.epoch) == (0, 0, 1)
        assert c.staleness == (9 + 2) - 9

    def test_client_side_recompute_matches_record_hash(self):
        recorder = DecisionRecorder()
        record = _record(recorder, 0).to_dict()
        assert payload_hash(record_core(record)) == record["record_hash"]
        assert set(record) == set(CORE_FIELDS) | {"record_hash"}
        assert "record_hash" not in record_core(record)

    def test_shards_annotation_does_not_move_the_hash(self):
        """Ledgers written under process-level serving carry a ``shards``
        lineage outside the hash: it parses away and still replays."""
        live = DecisionRecorder()
        logged = _record(live, 0).to_dict()
        logged["shards"] = [
            {"shard": 0, "candidates": 5, "winners": [], "process": 0},
            {"shard": 1, "candidates": 3, "winners": [], "process": 1},
        ]
        replayer = DecisionRecorder()
        replayer.begin_replay()
        _record(replayer, 0)
        replayer.apply_logged(logged)
        replayer.end_replay()
        assert replayer.replay_verified == 1
        assert replayer.replay_mismatches == 0
        assert replayer.get(0).to_dict() == _record(DecisionRecorder(), 0).to_dict()
        assert replayer.chain_head == live.chain_head

    def test_get_unknown_id_raises_key_error(self):
        recorder = DecisionRecorder()
        _record(recorder, 0)
        with pytest.raises(KeyError):
            recorder.get(5)

    def test_page_clamps_and_paginates(self):
        recorder = DecisionRecorder()
        for n in range(7):
            _record(recorder, n)
        assert [r.decision_id for r in recorder.page(0, 3)] == [0, 1, 2]
        assert [r.decision_id for r in recorder.page(5, 100)] == [5, 6]
        assert recorder.page(7, 10) == []
        assert len(recorder.page(0, MAX_PAGE_LIMIT + 999)) == 7
        assert DEFAULT_PAGE_LIMIT <= MAX_PAGE_LIMIT

    def test_state_restore_round_trip(self):
        recorder = DecisionRecorder()
        for n in range(3):
            _record(recorder, n)
        clone = DecisionRecorder()
        clone.restore(recorder.state())
        assert clone.count == 3
        assert clone.chain_head == recorder.chain_head
        assert clone.state() == recorder.state()
        # The restored chain keeps extending identically.
        a, b = _record(recorder, 3), _record(clone, 3)
        assert a.record_hash == b.record_hash

    def test_replay_verifies_and_counts_mismatches(self):
        live = DecisionRecorder()
        logged = [_record(live, n).to_dict() for n in range(2)]

        replayer = DecisionRecorder()
        replayer.begin_replay()
        _record(replayer, 0)
        replayer.apply_logged(logged[0])
        assert replayer.replay_verified == 1
        assert replayer.replay_mismatches == 0

        # A tampered logged record must be detected — and still committed
        # verbatim (the log is the source of truth for what *was* served).
        _record(replayer, 1)
        tampered = dict(logged[1], record_hash="f" * 64)
        replayer.apply_logged(tampered)
        replayer.end_replay()
        assert replayer.replay_mismatches == 1
        assert replayer.get(1).record_hash == "f" * 64

    def test_sink_fires_on_live_commits_only(self):
        seen = []
        recorder = DecisionRecorder()
        recorder.sink = seen.append
        committed = _record(recorder, 0)
        assert [r.decision_id for r in seen] == [0]
        replayer = DecisionRecorder()
        replayer.sink = seen.append
        replayer.begin_replay()
        _record(replayer, 0)
        replayer.apply_logged(committed.to_dict())
        replayer.end_replay()
        assert len(seen) == 1  # replayed commits do not re-emit


class TestGoldenAuditMatrix:
    """Identical decision chains across every serving mode."""

    @pytest.fixture(scope="class")
    def recorders(self):
        return {
            mode: run_scripted_session(mode)["session"].recorder
            for mode in SERVING_MODES
        }

    @pytest.fixture(scope="class")
    def ledgers(self, recorders):
        return {
            mode: [r.to_dict() for r in recorder.page(0, MAX_PAGE_LIMIT)]
            for mode, recorder in recorders.items()
        }

    def test_every_mode_chains_at_the_current_format(self, recorders, ledgers):
        """Plain and async hash at format 2, and their model hashes agree
        record for record."""
        assert {r.audit_format for r in recorders.values()} == {AUDIT_FORMAT}
        assert AUDIT_FORMAT == 2
        hashes = {
            mode: [record["model_hash"] for record in records]
            for mode, records in ledgers.items()
        }
        assert hashes["async"] == hashes["plain"]

    def test_chain_heads_identical_across_modes(self, ledgers):
        heads = {
            mode: records[-1]["record_hash"] for mode, records in ledgers.items()
        }
        assert len(set(heads.values())) == 1, heads
        counts = {mode: len(records) for mode, records in ledgers.items()}
        assert len(set(counts.values())) == 1, counts
        assert min(counts.values()) >= 3

    def test_hashed_cores_identical_record_for_record(self, ledgers):
        reference = [record_core(r) for r in ledgers["plain"]]
        for mode, records in ledgers.items():
            assert [record_core(r) for r in records] == reference, mode


class TestAuditCrashRecovery:
    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @pytest.mark.parametrize("mode", SERVING_MODES)
    def test_recovered_ledger_is_identical(self, mode, backend, tmp_path):
        summary = verify_audit_replay(mode=mode, backend=backend, directory=tmp_path)
        assert summary["audit_replay_identical"], summary
        assert summary["audit_replay_mismatches"] == 0, summary
        assert summary["audit_replay_verified"] >= 1, summary


@pytest.fixture(scope="module")
def server():
    with ServiceServer() as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


def _create(client, **serving):
    spec = (
        SessionSpec.builder()
        .model(**FAST_MODEL)
        .policy(refit_every=1)
        .serving(**serving)
        .build()
    )
    body = client.create_session({"schema": dict(SCHEMA_SPEC), **spec.to_dict()})
    return body["session_id"]


def _seed_and_select(client, session_id, selects=2):
    for row in range(4):
        client.post_answers(
            session_id,
            f"seed-{row % 2}",
            [(row, 0, "red"), (row, 1, 10.0 + row)],
        )
    served = 0
    for attempt in range(20):
        status, body = client.get_tasks(session_id, f"w{attempt}", k=2)
        if status != 200:
            continue
        client.post_answers(
            session_id,
            f"w{attempt}",
            [(row, col, "red" if col == 0 else 50.0) for row, col in body["cells"]],
        )
        served += 1
        if served >= selects:
            break
    return served


class TestDecisionsAPI:
    def test_ledger_served_over_http(self, client):
        session_id = _create(client)
        served = _seed_and_select(client, session_id, selects=2)
        assert served == 2
        page = client._expect("GET", f"/sessions/{session_id}/decisions")
        assert page["total"] == 2 and page["next_since"] is None
        for n, record in enumerate(page["decisions"]):
            assert record["decision_id"] == n
            assert payload_hash(record_core(record)) == record["record_hash"]
        assert page["chain_head"] == page["decisions"][-1]["record_hash"]

        single = client._expect(
            "GET", f"/sessions/{session_id}/decisions/1"
        )
        assert single["session_id"] == session_id
        assert single["decision_id"] == 1

        stats = client._expect("GET", f"/sessions/{session_id}")
        assert stats["decisions_recorded"] == 2
        assert stats["decision_chain_hash"] == page["chain_head"]
        client.delete_session(session_id)

    def test_pagination_and_errors(self, client):
        session_id = _create(client)
        _seed_and_select(client, session_id, selects=3)
        page = client._expect(
            "GET", f"/sessions/{session_id}/decisions?since=1&limit=1"
        )
        assert [r["decision_id"] for r in page["decisions"]] == [1]
        assert page["next_since"] == 2

        status, _ = client.request("GET", f"/sessions/{session_id}/decisions/99")
        assert status == 404
        status, _ = client.request("GET", f"/sessions/{session_id}/decisions/abc")
        assert status == 400
        status, _ = client.request(
            "GET", f"/sessions/{session_id}/decisions?since=-1"
        )
        assert status == 400
        status, _ = client.request(
            "GET",
            f"/sessions/{session_id}/decisions?limit={MAX_PAGE_LIMIT + 1}",
        )
        assert status == 400
        status, _ = client.request(
            "POST", f"/sessions/{session_id}/decisions", {}
        )
        assert status == 405
        client.delete_session(session_id)

    def test_audit_off_is_an_explicit_400(self, client):
        session_id = _create(client, audit=False)
        _seed_and_select(client, session_id, selects=1)
        status, body = client.request("GET", f"/sessions/{session_id}/decisions")
        assert status == 400 and "audit" in body["error"]
        status, _ = client.request("GET", f"/sessions/{session_id}/decisions/0")
        assert status == 400
        stats = client._expect("GET", f"/sessions/{session_id}")
        assert stats["decisions_recorded"] is None
        assert stats["decision_chain_hash"] is None
        client.delete_session(session_id)

    def test_audit_off_policy_has_no_recorder(self):
        from scripted_sessions import scripted_spec
        from repro.config.factory import build_policy
        from repro.service.registry import schema_from_dict

        schema = schema_from_dict(SCHEMA_SPEC)
        spec = scripted_spec("plain", {"model_kwargs": FAST_MODEL}, audit=False)
        assert build_policy(schema, spec).recorder is None

    def test_metrics_expose_the_decision_count_as_a_gauge(self, client):
        session_id = _create(client)
        _seed_and_select(client, session_id, selects=1)
        page = client._expect("GET", f"/sessions/{session_id}/decisions")
        metrics = client.get_metrics()
        # A gauge: deleting a session lowers it, which a counter may not do.
        assert "# TYPE repro_decisions_recorded gauge" in metrics
        assert "repro_decisions_recorded 1" in metrics
        # The chain head lives in the stats JSON only: a series per head
        # would mint a new series for every decision.
        assert page["chain_head"] not in metrics
        assert "repro_decision_chain_hash" not in metrics
        client.delete_session(session_id)
        assert "repro_decisions_recorded 0" in client.get_metrics()

    def test_metrics_series_count_is_constant_across_decisions(self, client):
        session_id = _create(client)
        _seed_and_select(client, session_id, selects=1)

        def series():
            # Touch every endpoint this test uses first: an endpoint's
            # request counter appears on its first request, and a scrape
            # counts itself only on the next one.
            client._expect("GET", f"/sessions/{session_id}")
            client.get_metrics()
            return sorted(
                line.rsplit(" ", 1)[0]
                for line in client.get_metrics().splitlines()
                if line and not line.startswith("#")
            )

        before = series()
        for n in range(4):
            status, body = client.get_tasks(session_id, f"extra{n}", k=1)
            assert status == 200, (status, body)
            row, col = body["cells"][0]
            client.post_answers(
                session_id, f"extra{n}", [(row, col, "red" if col == 0 else 50.0)]
            )
        stats = client._expect("GET", f"/sessions/{session_id}")
        assert stats["decisions_recorded"] == 5
        assert series() == before
        client.delete_session(session_id)


class TestMetricsCardinality:
    def test_unknown_paths_bucket_as_other(self, client):
        for path in ("/bogus", "/sessions/x/unknownverb/y", "/a/b/c/d/e"):
            client.request("GET", path)
        metrics = client.get_metrics()
        labels = set()
        for line in metrics.splitlines():
            if line.startswith("repro_service_requests_total{"):
                labels.add(line.split('endpoint="')[1].split('"')[0])
        assert "other" in labels
        known = {
            "healthz", "metrics", "sessions", "session", "tasks", "answers",
            "estimates", "workers", "config", "decisions", "other",
        }
        assert labels <= known, labels - known
