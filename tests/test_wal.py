"""Durability tests: WAL framing, snapshot store, bit-identical recovery.

The crash-recovery tests drive the golden-trace scenario through a
:class:`~repro.service.wal.DurableSession`, kill it mid-run (optionally
tearing the WAL tail mid-record), recover into a fresh policy and continue —
asserting the full assignment sequence and the final estimates match an
uninterrupted run bit for bit, across every serving mode.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.assignment import TCrowdAssigner
from repro.config.factory import build_policy
from repro.core.codec import buffer_hash, deserialize_result, serialize_result
from repro.core.inference import TCrowdModel
from repro.service.storage import SnapshotStore, WriteAheadLog, read_wal
from repro.service.wal import DurableSession, durable_summary
from repro.utils.exceptions import ConfigurationError, DurabilityError
from scripted_sessions import (
    DEFAULT_SCENARIO,
    abandon_session,
    continue_scripted_session,
    run_scripted_session,
    scripted_spec,
    staleness_profile,
    verify_recovery_identical,
)

GOLDEN_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_trace.json"


class TestResultCodec:
    def test_round_trip_is_bit_exact(self, mixed_schema, fitted_result):
        payload = json.loads(json.dumps(serialize_result(fitted_result)))
        restored = deserialize_result(payload, mixed_schema)
        np.testing.assert_array_equal(restored.alpha, fitted_result.alpha)
        np.testing.assert_array_equal(restored.beta, fitted_result.beta)
        np.testing.assert_array_equal(restored.phi, fitted_result.phi)
        np.testing.assert_array_equal(
            restored.column_scale, fitted_result.column_scale
        )
        np.testing.assert_array_equal(
            restored.column_offset, fitted_result.column_offset
        )
        assert restored.worker_ids == fitted_result.worker_ids
        assert restored.answered_cells() == fitted_result.answered_cells()
        for key in fitted_result.answered_cells():
            original = fitted_result.posterior(*key)
            rebuilt = restored.posterior(*key)
            if original.is_categorical:
                # from_normalized must reinstate the exact stored mass, not
                # a renormalisation of it.
                np.testing.assert_array_equal(rebuilt.probs, original.probs)
                assert rebuilt.labels == original.labels
            else:
                assert rebuilt.mean == original.mean
                assert rebuilt.variance == original.variance

    def test_round_trip_preserves_estimates_and_diagnostics(
        self, mixed_schema, fitted_result
    ):
        restored = deserialize_result(
            serialize_result(fitted_result), mixed_schema
        )
        for row in range(mixed_schema.num_rows):
            for col in range(mixed_schema.num_columns):
                assert restored.estimate(row, col) == fitted_result.estimate(
                    row, col
                )
        assert restored.n_iterations == fitted_result.n_iterations
        assert restored.converged == fitted_result.converged
        assert restored.stopped_by == fitted_result.stopped_by
        assert restored.objective_trace == fitted_result.objective_trace

    def test_unknown_posterior_kind_is_rejected(self, mixed_schema, fitted_result):
        payload = serialize_result(fitted_result)
        payload["posteriors"][0][2] = "weird"
        with pytest.raises(DurabilityError):
            deserialize_result(payload, mixed_schema)


class TestWriteAheadLog:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        assert wal.append({"t": "select", "w": "w0", "k": 3}) == 0
        assert wal.append({"t": "answers", "w": "w0", "a": [[0, 1, "x"]]}) == 1
        wal.close()
        records, valid_bytes = read_wal(path)
        assert len(records) == 2
        assert records[0]["w"] == "w0"
        assert valid_bytes == path.stat().st_size

    def test_torn_tail_is_dropped_and_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for index in range(3):
            wal.append({"t": "select", "w": f"w{index}", "k": 1})
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # cut into the final record
        records, valid_bytes = read_wal(path)
        assert len(records) == 2
        # Reopening truncates the torn bytes so new appends never merge
        # with the partial line.
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 2
        reopened.append({"t": "select", "w": "w9", "k": 1})
        reopened.close()
        records, _ = read_wal(path)
        assert [r["w"] for r in records] == ["w0", "w1", "w9"]

    def test_corrupt_middle_record_invalidates_the_rest(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        lines = [
            json.dumps({"t": "select", "w": "a", "k": 1}),
            "{not json",
            json.dumps({"t": "select", "w": "b", "k": 1}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, _ = read_wal(path)
        assert [r["w"] for r in records] == ["a"]

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.close()
        with pytest.raises(DurabilityError):
            wal.append({"t": "select", "w": "w", "k": 1})

    def test_fsync_mode_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=True)
        wal.append({"t": "estimates"})
        wal.close()
        assert read_wal(tmp_path / "wal.jsonl")[0] == [{"t": "estimates"}]


class TestSnapshotStore:
    @staticmethod
    def _payload(epoch, answers_seen, wal_records):
        return {
            "format": 1,
            "epoch": epoch,
            "answers_seen": answers_seen,
            "wal_records": wal_records,
            "model": None,
        }

    def test_latest_orders_by_epoch(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(self._payload(0, 10, 2))
        store.save(self._payload(2, 50, 9))
        store.save(self._payload(1, 30, 5))
        assert [p.name for p in store.paths()] == [
            "snapshot-000000-00000010.json",
            "snapshot-000001-00000030.json",
            "snapshot-000002-00000050.json",
        ]
        assert store.latest().epoch == 2

    def test_latest_skips_snapshots_past_the_surviving_log(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(self._payload(0, 10, 2))
        store.save(self._payload(1, 50, 9))
        snapshot = store.latest(max_wal_records=4)
        assert snapshot.epoch == 0

    def test_latest_skips_corrupt_files(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(self._payload(0, 10, 2))
        (tmp_path / "snapshot-000001-00000099.json").write_text("{broken")
        assert store.latest().epoch == 0

    def test_empty_store(self, tmp_path):
        assert SnapshotStore(tmp_path / "none").latest() is None


class TestDurableSession:
    def test_in_memory_mode_has_no_durability(self, mixed_schema):
        policy = TCrowdAssigner(
            mixed_schema, model=TCrowdModel(max_iterations=2)
        )
        session = DurableSession(mixed_schema, policy)
        assert not session.durable
        assert session.events == []
        assert session.snapshot() is None
        session.append_answers("w0", [(0, 0, "red")], observe=False)
        assert len(session.answers) == 1
        session.close()

    def test_fresh_guard_refuses_existing_log(self, tmp_path, mixed_schema):
        policy = TCrowdAssigner(
            mixed_schema, model=TCrowdModel(max_iterations=2)
        )
        session = DurableSession(mixed_schema, policy, directory=tmp_path)
        session.append_answers("w0", [(0, 0, "red")], observe=False)
        session.close()
        with pytest.raises(ConfigurationError):
            DurableSession(mixed_schema, policy, directory=tmp_path, fresh=True)

    def test_invalid_snapshot_cadence(self, mixed_schema):
        policy = TCrowdAssigner(mixed_schema, model=TCrowdModel())
        with pytest.raises(ConfigurationError):
            DurableSession(mixed_schema, policy, snapshot_every=0)

    def test_estimates_require_answers_and_capable_policy(self, mixed_schema):
        policy = TCrowdAssigner(
            mixed_schema, model=TCrowdModel(max_iterations=2)
        )
        session = DurableSession(mixed_schema, policy)
        with pytest.raises(ConfigurationError):
            session.estimates()

    def test_malformed_answers_never_reach_the_log(self, tmp_path, mixed_schema):
        policy = TCrowdAssigner(
            mixed_schema, model=TCrowdModel(max_iterations=2)
        )
        session = DurableSession(mixed_schema, policy, directory=tmp_path)
        with pytest.raises(Exception):
            session.append_answers("w0", [(0, 0, "not-a-label")])
        assert session.wal_records == 0
        session.close()


class TestCrashRecovery:
    """Kill / truncate / recover / continue — must match uninterrupted runs."""

    @pytest.mark.parametrize(
        "mode, backend",
        [
            pytest.param("plain", "jsonl", id="plain"),
            pytest.param("async", "jsonl", id="async"),
            pytest.param("bounded", "jsonl", id="bounded-jsonl"),
            pytest.param("bounded", "sqlite", id="bounded-sqlite"),
        ],
    )
    def test_recovery_is_bit_identical(self, mode, backend, tmp_path):
        summary = verify_recovery_identical(
            mode=mode,
            directory=tmp_path,
            crash_after_steps=3,
            truncate_bytes=7,
            snapshot_every=25,
            backend=backend,
        )
        assert summary["recovery_decisions_identical"], summary
        assert summary["recovery_estimates_identical"], summary
        assert summary["recovery_identical"], summary
        if mode == "bounded":
            # A stale snapshot was served and caught up at least once.
            assert summary["recovery_max_staleness"] > 0, summary
            assert summary["recovery_refits_after_first"] > 0, summary

    def test_snapshot_fast_path_recovery(self, tmp_path):
        """A dense snapshot cadence must shortcut the replay, identically."""
        summary = verify_recovery_identical(
            mode="plain",
            directory=tmp_path,
            crash_after_steps=4,
            truncate_bytes=7,
            snapshot_every=7,
        )
        assert summary["recovery_identical"], summary
        assert summary["recovery_snapshot_epoch"] is not None
        # The whole point of the snapshot: only the tail replays.
        assert summary["recovery_replayed_records"] <= 3

    def test_recovery_without_truncation(self, tmp_path):
        """A clean kill (complete final record) also recovers identically."""
        summary = verify_recovery_identical(
            mode="plain",
            directory=tmp_path,
            crash_after_steps=2,
            truncate_bytes=0,
            snapshot_every=25,
        )
        assert summary["recovery_identical"], summary

    def test_durable_run_matches_the_committed_golden_trace(self, tmp_path):
        """The WAL-logged scenario is the golden-trace scenario: the logged
        decisions must match the committed fixture bit for bit."""
        outcome = run_scripted_session("plain", directory=tmp_path)
        fixture = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        expected = [
            (worker, tuple((int(r), int(c)) for r, c in cells))
            for worker, cells in fixture["decisions"]
        ]
        assert outcome["decisions"] == expected
        # And the log itself reconstructs them (the recovery driver's view).
        assert outcome["session"].loop_decisions() == expected

    def test_continuation_resumes_dangling_select(self, tmp_path):
        """Tearing the WAL inside the final answers record leaves a logged
        select without its batch; the continuation must re-issue it rather
        than drawing a fresh worker."""
        run_scripted_session(
            "plain", directory=tmp_path, crash_after_steps=2, snapshot_every=25
        )
        wal_path = tmp_path / "wal.jsonl"
        wal_path.write_bytes(wal_path.read_bytes()[:-5])
        probe = DurableSession(
            _scenario_schema(),
            _scenario_policy(),
            directory=tmp_path,
            snapshot_every=25,
        )
        assert probe.dangling_select() is not None
        probe.close()
        continued = continue_scripted_session(
            "plain", directory=tmp_path, snapshot_every=25
        )
        baseline = run_scripted_session("plain")
        assert continued["decisions"] == baseline["decisions"]
        assert continued["estimates"] == baseline["estimates"]

    def test_fallback_recovery_discards_lost_timeline_and_continues_epochs(
        self, tmp_path
    ):
        """A WAL torn back past the newest snapshot's coverage must (a) fall
        back to an older snapshot / full replay, (b) delete the stranded
        snapshot so no later recovery can resurrect the lost timeline, and
        (c) never reuse its epoch number — all while continuing
        bit-identically."""
        run_scripted_session(
            "plain", directory=tmp_path, crash_after_steps=4, snapshot_every=7
        )
        store = SnapshotStore(tmp_path / "snapshots")
        before = store.paths()
        assert len(before) >= 2
        next_epoch_before = store.next_epoch()
        newest = json.loads(before[-1].read_text(encoding="utf-8"))
        # keep one record fewer than the newest snapshot covers
        wal_path = tmp_path / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        wal_path.write_bytes(b"".join(lines[: newest["wal_records"] - 1]))

        continued = continue_scripted_session(
            "plain", directory=tmp_path, snapshot_every=7
        )
        baseline = run_scripted_session("plain")
        assert continued["decisions"] == baseline["decisions"]
        assert continued["estimates"] == baseline["estimates"]
        remaining = [path.name for path in store.paths()]
        assert before[-1].name not in remaining  # lost timeline discarded
        epochs = sorted(int(name.split("-")[1]) for name in remaining)
        assert len(set(epochs)) == len(epochs)  # unique forever
        assert max(epochs) >= next_epoch_before  # counter never rewound

    @pytest.mark.parametrize("strip", ["newest", "all"])
    def test_snapshot_without_answers_is_skipped(self, strip, tmp_path):
        """A model-only snapshot (format 1) cannot recover standalone:
        recovery falls back to an older standalone snapshot, or to a full
        WAL replay when none is left, and still continues bit-identically."""
        run_scripted_session(
            "plain", directory=tmp_path, crash_after_steps=4, snapshot_every=7
        )
        paths = SnapshotStore(tmp_path / "snapshots").paths()
        assert len(paths) >= 2
        for path in paths if strip == "all" else paths[-1:]:
            payload = json.loads(path.read_text(encoding="utf-8"))
            del payload["answers"]
            payload["format"] = 1
            path.write_text(json.dumps(payload), encoding="utf-8")
        probe = DurableSession(
            _scenario_schema(),
            _scenario_policy(),
            directory=tmp_path,
            snapshot_every=7,
        )
        if strip == "all":
            assert probe.recovered_epoch is None
            assert probe.replayed_records == probe.wal_records
        else:
            assert probe.recovered_epoch == int(paths[-2].name.split("-")[1])
        probe.close()
        continued = continue_scripted_session(
            "plain", directory=tmp_path, snapshot_every=7
        )
        baseline = run_scripted_session("plain")
        assert continued["decisions"] == baseline["decisions"]
        assert continued["estimates"] == baseline["estimates"]

    def test_recovered_session_logs_and_summarises(self, tmp_path):
        run_scripted_session(
            "plain", directory=tmp_path, crash_after_steps=3, snapshot_every=10
        )
        summary = durable_summary(tmp_path)
        assert summary["wal_records"] > 0
        assert summary["snapshots"] > 0
        assert summary["answers_logged"] > DEFAULT_SCENARIO["num_rows"]


def _scenario_schema():
    from repro.datasets import load_celebrity

    return load_celebrity(
        seed=DEFAULT_SCENARIO["seed"], num_rows=DEFAULT_SCENARIO["num_rows"]
    ).schema


def _scenario_policy():
    return TCrowdAssigner(
        _scenario_schema(),
        model=TCrowdModel(**DEFAULT_SCENARIO["model_kwargs"]),
        refit_every=1,
        warm_start=True,
    )


class TestEstimatesLogging:
    """``GET /estimates`` is logged only when it fits.

    A read of a model that already covers every answer changes no state,
    so it leaves the log alone; a read that catches the model up is a real
    event in the warm-start chain and is logged, so replay reproduces it.
    """

    @staticmethod
    def _policy(mode="plain"):
        return build_policy(
            _scenario_schema(), scripted_spec(mode, DEFAULT_SCENARIO, audit=True)
        )

    @staticmethod
    def _value(schema, row, col):
        column = schema.columns[col]
        if column.is_categorical:
            return column.labels[(row + col) % column.num_labels]
        low, high = column.domain
        return low + (high - low) * ((3 * row + col) % 7) / 7.0

    def _batch(self, schema, cells):
        return [(row, col, self._value(schema, row, col)) for row, col in cells]

    def _drive(self, session):
        """A read before any fit, one after each select's answers, one after
        an unobserved answer, and a select whose refit warm-starts from the
        last read's fit."""
        schema = session.schema
        for row in range(4):
            cells = [(row, col) for col in range(schema.num_columns)]
            session.append_answers(
                f"seed{row % 2}", self._batch(schema, cells), observe=False
            )
        session.estimates()  # no model yet: fits
        for step in range(3):
            worker = f"crowd{step}"
            assignment = session.select(worker, k=2)
            session.append_answers(worker, self._batch(schema, assignment.cells))
            # The sync policy's observe() caught the model up; the strict
            # async policy refits only when asked, so this read fits.
            session.estimates()
        row = schema.num_rows - 1
        session.append_answers("late", self._batch(schema, [(row, 0)]), observe=False)
        session.estimates()  # one unobserved answer behind: fits
        session.append_answers("late", self._batch(schema, [(row, 1)]), observe=False)
        assignment = session.select("crowd9", k=1)
        session.append_answers("crowd9", self._batch(schema, assignment.cells))

    @staticmethod
    def _state(session):
        result = session.estimates()
        return (
            buffer_hash(result),
            result.estimates(),
            session.loop_decisions(),
            session.recorder.chain_head,
            session.recorder.count,
        )

    @staticmethod
    def _estimates_records(session):
        return sum(1 for record in session.events if record.get("t") == "estimates")

    @pytest.mark.parametrize("mode, fitting_reads", [("plain", 2), ("async", 5)])
    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_caught_up_reads_leave_the_log_alone(
        self, backend, mode, fitting_reads, tmp_path
    ):
        session = DurableSession(
            _scenario_schema(), self._policy(mode), directory=tmp_path,
            backend=backend,
        )
        self._drive(session)
        assert self._estimates_records(session) == fitting_reads
        session.estimates()  # catches the strict async policy up
        before = session.wal_records
        for _ in range(3):
            session.estimates()
        assert session.wal_records == before
        session.close()

    @pytest.mark.parametrize(
        "backend, mode",
        [
            pytest.param("jsonl", "plain", id="jsonl"),
            pytest.param("sqlite", "plain", id="sqlite"),
            pytest.param("jsonl", "bounded", id="bounded-jsonl"),
            pytest.param("sqlite", "bounded", id="bounded-sqlite"),
        ],
    )
    def test_fitting_reads_replay_after_a_crash(self, backend, mode, tmp_path):
        live = DurableSession(
            _scenario_schema(), self._policy(mode), directory=tmp_path,
            backend=backend,
        )
        self._drive(live)
        if mode == "bounded":
            profile = staleness_profile(live.recorder)
            assert profile["max_staleness"] > 0, profile
            assert profile["refits_after_first"] > 0, profile
        # Read the live state first: a bounded session's last select left
        # its model stale, so this read fits and is logged before the crash.
        expected = self._state(live)
        records = live.wal_records
        abandon_session(live)  # crash: no closing snapshot
        recovered = DurableSession(
            _scenario_schema(), self._policy(mode), directory=tmp_path,
            backend=backend,
        )
        assert recovered.recorder.replay_mismatches == 0
        # The replayed warm refits ran the warm budget, as the live ones did.
        assert recovered.policy.snapshot_state()[0].iterations_run == 2
        assert self._state(recovered) == expected
        assert recovered.wal_records == records
        recovered.close()

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_logs_with_no_op_estimates_records_replay_identically(
        self, backend, tmp_path, monkeypatch
    ):
        """Logs written when every read was logged still recover the same."""
        current = DurableSession(
            _scenario_schema(), self._policy(), directory=tmp_path / "now",
            backend=backend,
        )
        self._drive(current)
        with monkeypatch.context() as patch:
            patch.setattr(DurableSession, "_model_covers_answers", lambda self: False)
            old = DurableSession(
                _scenario_schema(), self._policy(), directory=tmp_path / "old",
                backend=backend,
            )
            self._drive(old)
        assert self._estimates_records(old) == 5
        assert self._estimates_records(current) == 2
        expected = self._state(old)
        abandon_session(old)  # no closing snapshot: recovery replays the log
        recovered = DurableSession(
            _scenario_schema(), self._policy(), directory=tmp_path / "old",
            backend=backend,
        )
        assert recovered.recorder.replay_mismatches == 0
        assert self._state(recovered) == expected == self._state(current)
        for session in (current, recovered):
            session.close()
