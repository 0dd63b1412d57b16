"""Storage-backend tests: WAL segment rotation, snapshot GC, sqlite parity.

The backend-contract tests drive :class:`JsonlBackend` and
:class:`SqliteBackend` through the same global-index protocol; the
session-level tests prove the properties that make bounded durability safe:
recovery stays bit-identical across segment boundaries and after GC pruned
the log prefix, a torn tail is tolerated only in the newest segment, and
the GC never deletes a record a retained snapshot still needs.
"""

from __future__ import annotations

import json

import pytest

from repro.config.spec import (
    DURABILITY_BACKENDS,
    SessionSpec,
    SpecValidationError,
)
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.service.storage import (
    STORAGE_BACKENDS,
    JsonlBackend,
    SqliteBackend,
    create_backend,
    read_wal,
    wal_segment_files,
)
from repro.service.wal import DurableSession, durable_summary
from repro.utils.exceptions import (
    ConfigurationError,
    DirectoryLockedError,
    DurabilityError,
)
from scripted_sessions import (
    run_scripted_session,
    verify_recovery_identical,
    verify_recovery_rotation,
)


def _record(index):
    return {"t": "select", "w": f"w{index}", "k": 1}


def _snapshot_payload(epoch, wal_records, standalone=True):
    payload = {
        "format": 2,
        "epoch": epoch,
        "answers_seen": wal_records,
        "wal_records": wal_records,
        "model": {"stub": True} if standalone else None,
    }
    if standalone:
        payload["answers"] = []
    return payload


@pytest.fixture(params=list(DURABILITY_BACKENDS))
def backend_name(request):
    return request.param


class TestBackendContract:
    """Both backends speak the same global-index log + snapshot protocol."""

    def test_append_returns_global_indexes(self, backend_name, tmp_path):
        backend = create_backend(tmp_path, backend=backend_name)
        assert [backend.append(_record(i)) for i in range(5)] == [0, 1, 2, 3, 4]
        assert backend.record_count == 5
        assert backend.first_record_index == 0
        assert backend.last_record == _record(4)
        assert backend.records() == [_record(i) for i in range(5)]
        backend.close()
        assert backend.closed
        with pytest.raises(DurabilityError):
            backend.append(_record(9))

    def test_reopen_resumes_the_global_count(self, backend_name, tmp_path):
        backend = create_backend(tmp_path, backend=backend_name)
        for i in range(3):
            backend.append(_record(i))
        backend.close()
        reopened = create_backend(tmp_path, backend=backend_name)
        assert reopened.record_count == 3
        assert reopened.append(_record(3)) == 3
        reopened.close()

    def test_truncate_preserves_global_indexes_across_reopen(
        self, backend_name, tmp_path
    ):
        backend = create_backend(
            tmp_path, backend=backend_name, rotate_every_records=2
        )
        for i in range(6):
            backend.append(_record(i))
        backend.truncate_before(4)
        # Global bookkeeping is unchanged; only storage below index 4 went.
        assert backend.record_count == 6
        assert backend.first_record_index == 4
        assert backend.records() == [_record(4), _record(5)]
        assert backend.append(_record(6)) == 6
        backend.close()
        reopened = create_backend(
            tmp_path, backend=backend_name, rotate_every_records=2
        )
        assert reopened.record_count == 7
        assert reopened.first_record_index == 4
        assert reopened.append(_record(7)) == 7
        reopened.close()

    def test_truncate_never_drops_uncovered_records(self, backend_name, tmp_path):
        backend = create_backend(
            tmp_path, backend=backend_name, rotate_every_records=2
        )
        for i in range(5):
            backend.append(_record(i))
        backend.truncate_before(3)
        # JSONL only drops whole sealed segments (here [0, 2)); sqlite drops
        # exactly.  Either way records >= 3 must all survive.
        assert backend.first_record_index <= 3
        survivors = backend.records()[3 - backend.first_record_index:]
        assert survivors == [_record(3), _record(4)]
        backend.close()

    def test_snapshot_epochs_are_never_reused(self, backend_name, tmp_path):
        backend = create_backend(tmp_path, backend=backend_name)
        for epoch in range(3):
            backend.save_snapshot(_snapshot_payload(epoch, wal_records=epoch))
        assert backend.prune_snapshots(keep=1) == [0, 1]
        assert backend.snapshot_epochs() == [2]
        backend.close()
        reopened = create_backend(tmp_path, backend=backend_name)
        # Epochs 0 and 1 were deleted, but the counter must not rewind past
        # the retained snapshot (GC always keeps at least one).
        assert reopened.next_epoch() == 3
        reopened.close()

    def test_prune_keep_must_be_positive(self, backend_name, tmp_path):
        backend = create_backend(tmp_path, backend=backend_name)
        with pytest.raises(ConfigurationError):
            backend.prune_snapshots(keep=0)
        backend.close()

    def test_gc_cover_is_the_oldest_retained_snapshot(
        self, backend_name, tmp_path
    ):
        backend = create_backend(tmp_path, backend=backend_name)
        assert backend.gc_cover() == 0  # no snapshots: nothing is prunable
        backend.save_snapshot(_snapshot_payload(0, wal_records=4))
        backend.save_snapshot(_snapshot_payload(1, wal_records=9))
        assert backend.gc_cover() == 4
        backend.prune_snapshots(keep=1)
        assert backend.gc_cover() == 9
        backend.close()

    def test_gc_cover_is_zero_unless_every_snapshot_is_standalone(
        self, backend_name, tmp_path
    ):
        backend = create_backend(tmp_path, backend=backend_name)
        backend.save_snapshot(_snapshot_payload(0, 4, standalone=False))
        backend.save_snapshot(_snapshot_payload(1, 9))
        # A model-only snapshot is not standalone: it pins the whole prefix.
        assert backend.gc_cover() == 0
        backend.close()

    def test_latest_snapshot_respects_the_surviving_log(
        self, backend_name, tmp_path
    ):
        backend = create_backend(tmp_path, backend=backend_name)
        backend.save_snapshot(_snapshot_payload(0, wal_records=2))
        backend.save_snapshot(_snapshot_payload(1, wal_records=8))
        assert backend.latest_snapshot().epoch == 1
        assert backend.latest_snapshot(max_wal_records=5).epoch == 0
        assert backend.discard_lost_timeline(max_wal_records=5) == [1]
        assert backend.snapshot_epochs() == [0]
        backend.close()

    def test_latest_standalone_snapshot_skips_model_only_ones(
        self, backend_name, tmp_path
    ):
        backend = create_backend(tmp_path, backend=backend_name)
        backend.save_snapshot(_snapshot_payload(0, wal_records=2))
        backend.save_snapshot(_snapshot_payload(1, 8, standalone=False))
        assert backend.latest_snapshot().epoch == 1
        assert backend.latest_snapshot(standalone=True).epoch == 0
        assert backend.latest_snapshot(max_wal_records=1, standalone=True) is None
        backend.close()

    def test_unknown_backend_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="Unknown durability"):
            create_backend(tmp_path, backend="papyrus")


class TestDirectoryLock:
    def test_one_open_session_per_directory(
        self, backend_name, tmp_path, mixed_schema
    ):
        def open_session(**options):
            return DurableSession(
                mixed_schema, TestDurableSessionBoundedStorage._policy(mixed_schema),
                directory=tmp_path, backend=backend_name, **options,
            )

        live = open_session()
        live.append_answers("w0", [(0, 0, "red"), (0, 2, 10.0)])
        with pytest.raises(DirectoryLockedError, match="already open"):
            open_session()
        live.append_answers("w1", [(1, 0, "red")])  # the holder writes on alone
        records = live.wal_records
        live.close()
        # A failed open releases the directory: were it kept locked, the
        # second refusal would be a DirectoryLockedError.
        for _attempt in range(2):
            with pytest.raises(ConfigurationError, match="already holds"):
                open_session(fresh=True)
        reopened = open_session()
        assert (reopened.wal_records, len(reopened.answers)) == (records, 3)
        reopened.close()


    def test_summary_reads_a_directory_a_session_holds(
        self, backend_name, tmp_path, mixed_schema
    ):
        """No lock and no write: an open directory summarises as it does
        once closed, and its session keeps writing."""
        live = DurableSession(
            mixed_schema, TestDurableSessionBoundedStorage._policy(mixed_schema),
            directory=tmp_path, backend=backend_name, snapshot_every=3,
        )
        TestDurableSessionBoundedStorage()._fill(live, 4)
        live.snapshot()  # leave close() nothing to write
        summary = durable_summary(tmp_path)
        assert summary["wal_records"] == live.wal_records
        assert summary["answers_logged"] == 8 and summary["snapshots"] >= 2
        live.append_answers("w9", [(5, 0, "red")])
        live.snapshot()
        summary = durable_summary(tmp_path)
        live.close()
        assert durable_summary(tmp_path) == summary
        assert summary["answers_logged"] == 9

    def test_summary_of_a_missing_path_creates_nothing(self, tmp_path):
        missing = tmp_path / "missing"
        assert durable_summary(missing) == {
            "wal_records": 0,
            "wal_bytes": 0,
            "wal_segments": 0,
            "answers_logged": 0,
            "snapshots": 0,
            "latest_snapshot_epoch": None,
            "latest_snapshot_answers_seen": None,
        }
        assert not missing.exists()

    def test_jsonl_read_only_view_locks_and_truncates_nothing(self, tmp_path):
        live = JsonlBackend(tmp_path, rotate_every_records=2)
        for i in range(3):
            live.append(_record(i))
        live.save_snapshot(_snapshot_payload(0, wal_records=3))
        newest = tmp_path / "wal-00000002.jsonl"
        with open(newest, "ab") as handle:
            handle.write(b'{"t": "sel')  # a write still in flight
        size = newest.stat().st_size
        view = JsonlBackend.open_read_only(tmp_path)
        assert view.closed
        assert view.record_count == 3 and view.last_record == _record(2)
        assert view.records() == [_record(i) for i in range(3)]
        assert view.latest_snapshot().epoch == 0
        with pytest.raises(DurabilityError, match="closed"):
            view.append(_record(9))
        view.close()
        assert newest.stat().st_size == size
        live.close()


class TestJsonlRotation:
    def test_rotation_seals_segments_and_replays_in_order(self, tmp_path):
        backend = JsonlBackend(tmp_path, rotate_every_records=3)
        for i in range(8):
            backend.append(_record(i))
        assert backend.segment_count == 3  # 3 + 3 + 2 (active)
        names = sorted(p.name for p in tmp_path.glob("wal-*.jsonl"))
        assert names == [
            "wal-00000000.jsonl",
            "wal-00000003.jsonl",
            "wal-00000006.jsonl",
        ]
        backend.close()
        reopened = JsonlBackend(tmp_path, rotate_every_records=3)
        assert reopened.records() == [_record(i) for i in range(8)]
        assert reopened.record_count == 8
        reopened.close()

    def test_legacy_single_file_upgrades_in_place(self, tmp_path):
        plain = JsonlBackend(tmp_path)  # unrotated layout: one wal.jsonl
        for i in range(4):
            plain.append(_record(i))
        plain.close()
        assert (tmp_path / "wal.jsonl").exists()
        rotated = JsonlBackend(tmp_path, rotate_every_records=2)
        # wal.jsonl is the segment starting at record 0; the next append
        # seals it and rotation proceeds from the correct global index.
        assert rotated.append(_record(4)) == 4
        assert (tmp_path / "wal-00000004.jsonl").exists()
        assert rotated.records() == [_record(i) for i in range(5)]
        rotated.close()

    def test_torn_tail_is_tolerated_only_in_the_newest_segment(self, tmp_path):
        backend = JsonlBackend(tmp_path, rotate_every_records=2)
        for i in range(5):
            backend.append(_record(i))
        backend.close()
        newest = tmp_path / "wal-00000004.jsonl"
        newest.write_bytes(newest.read_bytes()[:-5])
        reopened = JsonlBackend(tmp_path, rotate_every_records=2)
        assert reopened.record_count == 4  # the torn record is dropped
        reopened.close()
        # The same corruption in a sealed segment is unrecoverable: those
        # records were acknowledged and later state may depend on them.
        sealed = tmp_path / "wal-00000002.jsonl"
        sealed.write_bytes(sealed.read_bytes()[:-5])
        with pytest.raises(DurabilityError, match="newest segment"):
            JsonlBackend(tmp_path, rotate_every_records=2)

    def test_segment_gap_is_rejected(self, tmp_path):
        backend = JsonlBackend(tmp_path, rotate_every_records=2)
        for i in range(6):
            backend.append(_record(i))
        backend.close()
        (tmp_path / "wal-00000002.jsonl").unlink()
        with pytest.raises(DurabilityError, match="gap"):
            JsonlBackend(tmp_path, rotate_every_records=2)

    def test_duplicate_segment_start_is_rejected(self, tmp_path):
        (tmp_path / "wal.jsonl").write_text(
            json.dumps(_record(0)) + "\n", encoding="utf-8"
        )
        (tmp_path / "wal-00000000.jsonl").write_text(
            json.dumps(_record(0)) + "\n", encoding="utf-8"
        )
        with pytest.raises(DurabilityError, match="both"):
            JsonlBackend(tmp_path)

    def test_segment_discovery_is_shared_with_the_summary(self, tmp_path):
        assert wal_segment_files(tmp_path / "missing") == []
        plain = JsonlBackend(tmp_path)
        for i in range(3):
            plain.append(_record(i))
        plain.close()
        rotated = JsonlBackend(tmp_path, rotate_every_records=3)
        for i in range(3, 5):
            rotated.append(_record(i))
        rotated.close()
        segments = wal_segment_files(tmp_path)
        assert [(first, path.name) for first, path in segments] == [
            (0, "wal.jsonl"),
            (3, "wal-00000003.jsonl"),
        ]
        summary = durable_summary(tmp_path)
        assert summary["wal_segments"] == len(segments)
        assert summary["wal_records"] == 5

    def test_truncate_only_drops_sealed_covered_segments(self, tmp_path):
        backend = JsonlBackend(tmp_path, rotate_every_records=2)
        for i in range(5):
            backend.append(_record(i))
        assert backend.truncate_before(3) == 2  # only segment [0, 2) goes
        assert not (tmp_path / "wal-00000000.jsonl").exists()
        assert (tmp_path / "wal-00000002.jsonl").exists()
        # The active segment is never truncated, even when fully covered.
        assert backend.truncate_before(99) == 2
        assert (tmp_path / "wal-00000004.jsonl").exists()
        assert backend.records() == [_record(4)]
        backend.close()

    def test_append_after_close_raises_even_when_a_rotation_is_due(self, tmp_path):
        backend = JsonlBackend(tmp_path, rotate_every_records=1)
        backend.append(_record(0))
        backend.close()
        with pytest.raises(DurabilityError, match="closed"):
            backend.append(_record(1))
        assert backend.closed
        assert [path.name for path in tmp_path.glob("wal-*.jsonl")] == [
            "wal-00000000.jsonl"
        ]

    def test_rotation_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlBackend(tmp_path, rotate_every_records=0)

    def test_fsync_rotation_and_snapshot_save(self, tmp_path):
        """The fsync paths (segment seal, snapshot rename) stay functional."""
        backend = JsonlBackend(tmp_path, fsync=True, rotate_every_records=2)
        for i in range(3):
            backend.append(_record(i))
        assert backend.segment_count == 2
        backend.truncate_before(0)
        backend.save_snapshot(_snapshot_payload(0, wal_records=3))
        backend.close()
        assert [path.name for path in (tmp_path / "snapshots").iterdir()] == [
            "snapshot-000000-00000003.json"
        ]  # renamed into place: no temporary file is left
        assert backend.load_snapshot(0).wal_records == 3

    def test_sqlite_single_file_layout(self, tmp_path):
        backend = SqliteBackend(tmp_path, rotate_every_records=2)
        for i in range(7):
            backend.append(_record(i))
        backend.save_snapshot(_snapshot_payload(0, wal_records=7))
        assert backend.segment_count == 1  # rotation knob is a no-op
        backend.close()
        files = [p.name for p in tmp_path.iterdir()]
        assert files == [SqliteBackend.FILENAME]


class TestDurableSessionBoundedStorage:
    """Session-level properties: GC safety and cross-backend equivalence."""

    @staticmethod
    def _policy(schema):
        return TCrowdAssigner(
            schema,
            model=TCrowdModel(max_iterations=2, m_step_iterations=4),
            refit_every=1,
            warm_start=True,
        )

    def _fill(self, session, rows):
        # observe=True (the default) keeps the policy fitted, so the cut
        # snapshots carry a model and are standalone — the GC precondition.
        for row in range(rows):
            session.append_answers(
                f"w{row % 3}", [(row, 0, "red"), (row, 2, 10.0 + row)]
            )

    def test_gc_prunes_the_log_but_recovery_stays_identical(
        self, tmp_path, mixed_schema
    ):
        session = DurableSession(
            mixed_schema,
            self._policy(mixed_schema),
            directory=tmp_path,
            snapshot_every=2,
            rotate_every_records=2,
            keep_snapshots=2,
        )
        self._fill(session, mixed_schema.num_rows)
        answers_before = [
            (a.worker, int(a.row), int(a.col), a.value) for a in session.answers
        ]
        total = session.wal_records
        session.close()

        # GC actually pruned a prefix...
        backend = JsonlBackend(tmp_path, rotate_every_records=2)
        assert backend.first_record_index > 0
        assert backend.snapshot_count <= 2
        # ...and every record at or above the GC cover survived.
        assert backend.first_record_index <= backend.gc_cover()
        backend.close()

        recovered = DurableSession(
            mixed_schema,
            self._policy(mixed_schema),
            directory=tmp_path,
            snapshot_every=2,
            rotate_every_records=2,
            keep_snapshots=2,
        )
        assert recovered.wal_records == total
        assert [
            (a.worker, int(a.row), int(a.col), a.value)
            for a in recovered.answers
        ] == answers_before
        recovered.close()

    def test_pruned_prefix_without_a_usable_snapshot_is_fatal(
        self, tmp_path, mixed_schema
    ):
        session = DurableSession(
            mixed_schema,
            self._policy(mixed_schema),
            directory=tmp_path,
            snapshot_every=2,
            rotate_every_records=2,
            keep_snapshots=2,
        )
        self._fill(session, mixed_schema.num_rows)
        session.close()
        for path in (tmp_path / "snapshots").glob("snapshot-*.json"):
            path.unlink()
        with pytest.raises(DurabilityError, match="pruned"):
            DurableSession(
                mixed_schema,
                self._policy(mixed_schema),
                directory=tmp_path,
                snapshot_every=2,
                rotate_every_records=2,
            )

    def test_scripted_replay_with_rotation_matches_unrotated(self, tmp_path):
        baseline = run_scripted_session("plain")
        rotated = run_scripted_session(
            "plain",
            directory=tmp_path,
            snapshot_every=6,
            rotate_every_records=5,
            keep_snapshots=2,
        )
        assert rotated["decisions"] == baseline["decisions"]
        assert rotated["estimates"] == baseline["estimates"]
        summary = durable_summary(tmp_path)
        # More records than one segment holds, yet the GC kept the disk
        # bounded and pruned the first segment.
        assert summary["wal_records"] > 5
        assert summary["wal_segments"] <= 2
        assert summary["snapshots"] <= 2
        assert not (tmp_path / "wal-00000000.jsonl").exists()

    @pytest.mark.parametrize("backend", list(DURABILITY_BACKENDS))
    def test_recovery_identical_under_rotation(self, backend, tmp_path):
        summary = verify_recovery_identical(
            mode="plain",
            directory=tmp_path,
            crash_after_steps=3,
            truncate_bytes=7,
            snapshot_every=7,
            backend=backend,
            rotate_every_records=5,
        )
        assert summary["recovery_identical"], summary
        assert summary["recovery_backend"] == backend
        if backend == "sqlite":
            # Transactional appends: there is never a torn tail to drop.
            assert summary["recovery_truncated_bytes"] == 0

    @pytest.mark.parametrize("backend", list(DURABILITY_BACKENDS))
    def test_rotation_with_gc_survives_a_restart_disk_bounded(
        self, backend, tmp_path
    ):
        summary = verify_recovery_rotation(
            mode="plain", backend=backend, directory=tmp_path
        )
        assert summary["rotation_identical"], summary
        assert summary["rotation_disk_bounded"], summary
        assert summary["rotation_restarted"], summary

    def test_jsonl_and_sqlite_runs_are_equivalent(self, tmp_path):
        jsonl = run_scripted_session(
            "plain", directory=tmp_path / "jsonl", backend="jsonl"
        )
        sqlite = run_scripted_session(
            "plain", directory=tmp_path / "sqlite", backend="sqlite"
        )
        assert jsonl["decisions"] == sqlite["decisions"]
        assert jsonl["estimates"] == sqlite["estimates"]
        # The sqlite directory holds exactly one file; both summaries agree
        # on the logical state.
        js = durable_summary(tmp_path / "jsonl")
        sq = durable_summary(tmp_path / "sqlite")
        assert js["wal_records"] == sq["wal_records"]
        assert js["answers_logged"] == sq["answers_logged"]
        assert sq["wal_segments"] == 1

    def test_wal_records_survive_the_sqlite_round_trip(self, tmp_path):
        """Records stored via sqlite deserialize to the exact JSONL dicts."""
        jsonl = JsonlBackend(tmp_path / "a")
        sqlite = SqliteBackend(tmp_path / "b")
        records = [
            {"t": "answers", "w": "w0", "a": [[0, 2, 10.5]], "o": False},
            {"t": "select", "w": "w1", "k": 3},
            {"t": "estimates"},
        ]
        for record in records:
            jsonl.append(record)
            sqlite.append(record)
        assert jsonl.records() == sqlite.records() == records
        jsonl.close()
        sqlite.close()
        assert read_wal(tmp_path / "a" / "wal.jsonl")[0] == records


class TestDurabilitySpecFields:
    def test_backends_stay_in_sync_with_storage(self):
        assert set(STORAGE_BACKENDS) == set(DURABILITY_BACKENDS)

    def test_spec_round_trips_the_new_knobs(self):
        spec = (
            SessionSpec.builder()
            .durable(
                "/tmp/d",
                backend="sqlite",
                rotate_every_records=256,
                keep_snapshots=3,
            )
            .build()
        )
        rebuilt = SessionSpec.from_dict(spec.to_dict())
        assert rebuilt.durability.backend == "sqlite"
        assert rebuilt.durability.rotate_every_records == 256
        assert rebuilt.durability.keep_snapshots == 3

    def test_spec_validation_rejects_bad_values(self):
        builder = SessionSpec.builder()
        with pytest.raises(SpecValidationError, match="durability.backend"):
            builder.durable("/tmp/d", backend="papyrus").build()
        for field, value in [
            ("rotate_every_records", 0),
            ("keep_snapshots", 0),
            ("rotate_every_records", True),
        ]:
            fresh = SessionSpec.builder()
            with pytest.raises(SpecValidationError, match=f"durability.{field}"):
                fresh.durable("/tmp/d", **{field: value}).build()
