"""Durable crowd sessions: write-ahead answer log + engine-state snapshots.

A live serving session must survive its process.  The durability model is
the classic pair:

* **Write-ahead log** — one record per session *event*, appended (and
  flushed) before the event is applied to the in-memory engine.  Four
  event types exist: ``answers`` (a batch of collected answers,
  optionally followed by a model ``observe``), ``select`` (a task
  request — logged because selects can trigger refits, which are part of
  the warm-start EM chain), ``estimates`` (a full catch-up fit — same
  reason) and ``decision`` (the select's audit record, written *after*
  the select by the attached
  :class:`~repro.engine.provenance.DecisionRecorder` and replayed with
  hash verification on recovery).  Storage is pluggable (:mod:`repro.service.storage`): the
  JSONL backend keeps rotated ``wal-<first_record>.jsonl`` segments, the
  SQLite backend one ``durable.sqlite3`` database.  A torn final write
  (process killed mid-append) is detected and dropped on recovery.

* **Snapshots** — periodic engine-state records keyed by
  ``(epoch, answers_seen)``: the serialized
  :class:`~repro.core.inference.InferenceResult` of the latest refit, the
  answer prefix it was fitted on, and the WAL position they cover.
  Snapshots are written atomically.  Because a snapshot carries its whole
  answer prefix, it is *standalone* — the WAL records it covers are no
  longer needed for recovery, which is what makes segment GC safe.
  Recovery skips a snapshot without its answer prefix (the model-only
  format 1) and falls back to an older snapshot or a full WAL replay.

**Bounded disk.**  With ``keep_snapshots`` set, every snapshot cut prunes
the store down to the newest ``keep_snapshots`` snapshots and then asks
the backend to drop WAL storage below the *oldest retained* snapshot's
cover (only if every retained snapshot is standalone).  Record indexes
stay global across pruning, so ``discard_lost_timeline`` still composes:
a crash that loses the log tail discards exactly the snapshots past the
surviving global count, and a pruned timeline can never be resurrected.

**Replay is bit-identical.**  Everything the engine does is a
deterministic function of the event sequence: answers are append-only,
refits are deterministic EM (warm-started from the previous result), and
selection is a deterministic ranking over candidates derived from the
answers alone.  Recovery therefore rebuilds the exact session: the answer
set and the model's warm-start chain — either by re-seating a snapshot's
serialized result (:func:`serialize_result` round-trips every float
exactly) and replaying the WAL tail with full side effects, or by
replaying the whole log.  The continued assignment sequence matches an
uninterrupted run bit for bit — the ``recovery_identical`` property that
``tests/test_wal.py`` checks.
This holds in every serving mode and at every staleness bound: a
bounded-stale policy refits inline on the select path when its bound
trips, so which selects refit is itself a function of the logged events.

Snapshot-epoch protocol: epochs increase by one per snapshot and never
reuse a number, so ``snapshot-<epoch>-<answers_seen>.json`` names are
totally ordered and immutable once written, like
:class:`~repro.engine.ModelSnapshot` itself, which lets these files cross
*process* boundaries.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.answers import AnswerSet
from repro.core.codec import deserialize_result, serialize_result
from repro.core.inference import InferenceResult
from repro.core.schema import TableSchema
from repro.service.storage import (
    JsonlBackend,
    Snapshot,
    SqliteBackend,
    StorageBackend,
    create_backend,
    read_wal,
    wal_segment_files,
)
from repro.utils.exceptions import (
    AssignmentError,
    ConfigurationError,
    DataError,
    DurabilityError,
)

Cell = Tuple[int, int]

#: Bump when the WAL / snapshot record layout changes incompatibly.
#: Format 2 adds the answer prefix to snapshot payloads (making them
#: standalone, the precondition for WAL segment GC); a format-1 snapshot
#: is skipped by recovery.
FORMAT_VERSION = 2


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Turn a parse failure of ``what`` (a logged record or snapshot body)
    into a :class:`DurabilityError`.  Wraps parsing and answer validation
    only, never a policy call."""
    try:
        yield
    except (AttributeError, DataError, IndexError, KeyError, OverflowError,
            TypeError, ValueError) as exc:
        raise DurabilityError(
            f"{what} is malformed ({type(exc).__name__}: {exc}); the "
            "durable directory cannot be recovered"
        ) from exc


def _worker_id(value) -> str:
    """A logged worker id: a non-empty string, as the HTTP API accepts."""
    if not isinstance(value, str) or not value:
        raise TypeError(f"worker id {value!r} is not a non-empty string")
    return value


# -- durable session ----------------------------------------------------------


class DurableSession:
    """An answer set + serving policy behind a write-ahead log.

    All session mutations go through this wrapper: events are logged
    *before* they are applied (WAL discipline), and a snapshot of the
    engine state is cut every ``snapshot_every`` answers.  Constructing a
    session over a directory that already holds a log **recovers** it:
    the newest usable snapshot is re-seated into the (freshly built,
    identically configured) ``policy`` and the WAL tail is replayed with
    full side effects; without a usable snapshot the whole log replays.

    Parameters
    ----------
    schema:
        Table schema of the session.
    policy:
        The serving policy.  Bit-identical recovery requires a
        deterministic policy (see the module docs); snapshot acceleration
        additionally requires the ``snapshot_state`` / ``restore_state``
        protocol (all T-Crowd serving modes implement it).
    directory:
        Where the log and snapshots live.  ``None`` runs fully in memory —
        the same code path with durability disabled, which is how the
        non-durable HTTP sessions and simulator runs are served.  The
        session holds the directory until :meth:`close` (see
        :mod:`repro.service.storage`).
    snapshot_every:
        Cut a snapshot after this many newly collected answers.
    fsync:
        Force every append (and snapshot) to disk — power-loss
        durability; the default flush-only mode survives process crashes.
    fresh:
        Refuse to attach to a directory that already holds a log (used by
        the platform simulator, where silently resuming a previous run
        would corrupt the experiment).
    backend:
        Storage backend name (``"jsonl"`` or ``"sqlite"``, see
        :mod:`repro.service.storage`).
    rotate_every_records:
        JSONL backend: seal the active WAL segment after this many
        records and open a new one.  ``None`` keeps the whole log in one
        ``wal.jsonl``.  Ignored by the SQLite backend.
    keep_snapshots:
        Retain only the newest N snapshots; after each prune, WAL storage
        fully covered by the oldest *retained* snapshot is dropped.
        ``None`` (the default) retains everything, exactly as before.
    """

    def __init__(
        self,
        schema: TableSchema,
        policy,
        directory=None,
        snapshot_every: int = 200,
        fsync: bool = False,
        fresh: bool = False,
        backend: str = "jsonl",
        rotate_every_records: Optional[int] = None,
        keep_snapshots: Optional[int] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if keep_snapshots is not None and keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.schema = schema
        self.policy = policy
        self.snapshot_every = int(snapshot_every)
        self.keep_snapshots = keep_snapshots
        self.answers = AnswerSet(schema)
        #: The policy's :class:`~repro.engine.provenance.DecisionRecorder`
        #: (None when auditing is off).  Live records are persisted through
        #: :meth:`_log_decision`; recovery replays them with verification.
        self.recorder = getattr(policy, "recorder", None)
        if self.recorder is not None:
            self.recorder.sink = self._log_decision
        self.replayed_records = 0
        self.recovered_epoch: Optional[int] = None
        self.snapshots_written = 0
        self._snapshot_epoch = 0
        self._answers_at_last_snapshot = 0
        self._storage: Optional[StorageBackend] = None
        if directory is not None:
            directory = pathlib.Path(directory)
            self._storage = create_backend(
                directory,
                backend=backend,
                fsync=fsync,
                rotate_every_records=rotate_every_records,
            )
            if self._storage.record_count:
                if fresh:
                    self._storage.close()
                    raise ConfigurationError(
                        f"durable directory {directory} already holds a "
                        f"write-ahead log with {self._storage.record_count} "
                        "records; recover it with DurableSession(...) on a "
                        "fresh policy instead of starting a new run over it"
                    )
                try:
                    self._recover()
                except BaseException:
                    self._storage.close()  # a failed recovery frees the directory
                    raise

    # -- properties ----------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when events are being logged to disk."""
        return self._storage is not None

    @property
    def wal_records(self) -> int:
        """Global record count of the log, pruned prefix included."""
        return self._storage.record_count if self._storage is not None else 0

    @property
    def wal_segments(self) -> int:
        """On-disk log pieces (0 when in-memory; always 1 for SQLite)."""
        return self._storage.segment_count if self._storage is not None else 0

    @property
    def snapshots_retained(self) -> int:
        """Snapshots currently on disk (after any GC)."""
        return self._storage.snapshot_count if self._storage is not None else 0

    @property
    def backend_name(self) -> Optional[str]:
        """Name of the storage backend (``None`` when in-memory)."""
        return self._storage.name if self._storage is not None else None

    @property
    def events(self) -> List[dict]:
        """Copy of the *surviving* logged events, oldest first.

        Empty when in-memory; with GC enabled the pruned prefix is gone,
        so this starts at the backend's ``first_record_index``.
        """
        return self._storage.records() if self._storage is not None else []

    def loop_decisions(self) -> List[Tuple[str, Tuple[Cell, ...]]]:
        """The logged assignment outcomes ``(worker, cells)``, oldest first.

        Reconstructed from the surviving ``answers`` events with
        ``observe=True`` (each one is the collected batch of exactly one
        assignment), so a recovery driver can compare the prefix a crashed
        process completed against an uninterrupted run.
        """
        if self._storage is None:
            return []
        decisions = []
        for record in self._storage.records():
            if record.get("t") == "answers" and record.get("o", True):
                cells = tuple(
                    (int(row), int(col)) for row, col, _value in record["a"]
                )
                decisions.append((record["w"], cells))
        return decisions

    def dangling_select(self) -> Optional[Tuple[str, int]]:
        """``(worker, k)`` if the log ends in a select whose batch was lost.

        A crash between logging a select and logging its collected answers
        leaves this marker; the recovery driver re-issues the select (the
        replayed refit made it deterministic) instead of drawing a new
        worker.
        """
        if self._storage is None:
            return None
        last = self._storage.last_record
        if last is not None and last.get("t") in ("select", "decision"):
            # A trailing ``decision`` record dangles the same way: its
            # select's answer batch never made it to the log.
            return last["w"], int(last["k"])
        return None

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> None:
        storage = self._storage
        total = storage.record_count
        first = storage.first_record_index
        # Epochs are never reused, even when the files carrying the
        # highest ones came from a timeline the crash lost; only after
        # fixing the counter are those stranded snapshots deleted (they
        # could otherwise be picked by a *later* recovery once the
        # regrown log passes their record count).
        self._snapshot_epoch = storage.next_epoch()
        storage.discard_lost_timeline(total)
        records = storage.records()
        # The fast path needs a policy that re-seats a model and a
        # standalone snapshot (model plus answer prefix) within the log.
        snapshot = None
        if hasattr(self.policy, "restore_state"):
            snapshot = storage.latest_snapshot(total, standalone=True)
        if snapshot is None:
            # Replaying from an older start still resumes the snapshot
            # cadence from the newest readable snapshot.
            latest = storage.latest_snapshot(total)
            if latest is not None:
                self._answers_at_last_snapshot = latest.answers_seen
        start = first
        if self.recorder is not None:
            self.recorder.begin_replay()
        try:
            if snapshot is not None:
                self._restore_snapshot(snapshot)
                start = snapshot.wal_records
            elif first > 0:
                raise DurabilityError(
                    f"the WAL prefix below record {first} was pruned but no "
                    "retained snapshot is standalone (model + answer prefix); "
                    "the durable directory cannot be recovered"
                )
            for index, record in enumerate(records[start - first:], start):
                self._apply(index, record)
        finally:
            if self.recorder is not None:
                self.recorder.end_replay()
        self.replayed_records = total - start

    def _restore_snapshot(self, snapshot: Snapshot) -> None:
        """Re-seat one snapshot: answer prefix without side effects + model.

        The body is parsed before anything reaches the policy; a malformed
        one is a :class:`DurabilityError` naming the snapshot's epoch.
        """
        payload = snapshot.payload
        with _malformed(f"snapshot epoch {snapshot.epoch}"):
            for worker, row, col, value in payload["answers"]:
                self.answers.add_answer(_worker_id(worker), int(row), int(col), value)
            model = payload["model"]
            result = deserialize_result(model["result"], self.schema)
            answers_seen = int(model["answers_seen"])
            audit = payload.get("audit")
            if self.recorder is not None and audit:
                self.recorder.restore(audit)
        if len(self.answers) != snapshot.answers_seen:
            raise DurabilityError(
                f"snapshot epoch {snapshot.epoch} covers "
                f"{snapshot.answers_seen} answers but its answer prefix "
                f"holds {len(self.answers)}; the durable directory is "
                "inconsistent"
            )
        self.policy.restore_state(result, answers_seen)
        self.recovered_epoch = snapshot.epoch
        self._answers_at_last_snapshot = snapshot.answers_seen

    def _apply(self, index: int, record: dict) -> None:
        """Re-execute the logged event at global ``index`` with full side effects.

        Its fields are parsed before they reach the policy; a malformed
        record of a known type is a :class:`DurabilityError` naming
        ``index``.  Unknown record types are skipped (forward compatibility).
        """
        with _malformed(f"WAL record {index}"):
            kind = record.get("t")
            if kind == "answers":
                worker = _worker_id(record["w"])
                for row, col, value in record["a"]:
                    self.answers.add_answer(worker, int(row), int(col), value)
            elif kind in ("select", "decision"):
                worker, k = _worker_id(record["w"]), int(record["k"])
                if kind == "decision" and self.recorder is not None:
                    # Audit record: restore it verbatim, verifying it against
                    # the record the preceding replayed select recomputed.
                    self.recorder.apply_logged(record["d"])
        if kind == "answers":
            if record.get("o", True):
                self.policy.observe(self.answers)
        elif kind == "select":
            try:
                self.policy.select(worker, self.answers, k)
            except AssignmentError:
                pass  # the live call failed too; the refit side effect stands
        elif kind == "estimates":
            if len(self.answers):
                self.policy.final_result(self.answers)

    # -- session events -------------------------------------------------------

    def _log_decision(self, record) -> None:
        """Persist one live audit record (the recorder's ``sink``).

        Rides the WAL as ``{"t": "decision", "w": ..., "k": ..., "d":
        <record dict>}`` — ``w``/``k`` duplicated at the top level so
        :meth:`dangling_select` can re-issue a select whose answers were
        lost even when the trailing record is the decision, not the
        select.  In-memory sessions keep the recorder but skip the log.
        """
        if self._storage is not None:
            self._storage.append({
                "t": "decision",
                "w": record.worker,
                "k": int(record.k),
                "d": record.to_dict(),
            })

    def select(self, worker: str, k: int = 1):
        """Log and run one assignment request."""
        if self._storage is not None:
            self._storage.append({"t": "select", "w": worker, "k": int(k)})
        return self.policy.select(worker, self.answers, k)

    def append_answers(
        self, worker: str, items: Sequence[Tuple[int, int, object]],
        observe: bool = True,
    ) -> int:
        """Log and ingest one batch of collected answers.

        ``items`` is a sequence of ``(row, col, value)``.  The batch is
        validated against the schema *before* it is logged, so a malformed
        request can never poison the log.  Returns the new answer count.
        """
        items = [(int(row), int(col), value) for row, col, value in items]
        for row, col, value in items:
            self.schema.validate_cell(row, col)
            self.schema.validate_value(col, value)
        if self._storage is not None:
            record = {"t": "answers", "w": worker, "a": [list(i) for i in items]}
            if not observe:
                record["o"] = False
            self._storage.append(record)
        for row, col, value in items:
            self.answers.add_answer(worker, row, col, value)
        if observe:
            self.policy.observe(self.answers)
        self.maybe_snapshot()
        return len(self.answers)

    def estimates(self) -> InferenceResult:
        """Run a full catch-up fit, logged if it fits; return its result.

        The request is logged only when the served model does not cover
        every answer yet, which is exactly when ``final_result`` fits: a
        read of a caught-up model changes no state, so replay needs no
        record of it.
        """
        if len(self.answers) == 0:
            raise ConfigurationError(
                "Cannot estimate truths before any answer was collected"
            )
        if not hasattr(self.policy, "final_result"):
            raise ConfigurationError(
                f"policy {type(self.policy).__name__} does not support "
                "estimate requests (no final_result method)"
            )
        if self._storage is not None and not self._model_covers_answers():
            self._storage.append({"t": "estimates"})
        return self.policy.final_result(self.answers)

    def _model_covers_answers(self) -> bool:
        """True if the served model was fitted over every collected answer."""
        state = None
        if hasattr(self.policy, "snapshot_state"):
            state = self.policy.snapshot_state()
        return state is not None and state[1] >= len(self.answers)

    # -- snapshots ------------------------------------------------------------

    def maybe_snapshot(self) -> Optional[bool]:
        """Cut a snapshot if ``snapshot_every`` answers arrived since the last."""
        if self._storage is None:
            return None
        if len(self.answers) - self._answers_at_last_snapshot < self.snapshot_every:
            return None
        return self.snapshot()

    def snapshot(self) -> Optional[bool]:
        """Cut one engine-state snapshot now (no-op when in-memory).

        The payload carries the serialized model *and* the full answer
        prefix, so the snapshot recovers standalone; with
        ``keep_snapshots`` set, older snapshots are pruned afterwards and
        WAL storage below the oldest retained snapshot's cover is dropped.
        """
        if self._storage is None:
            return None
        state = None
        if hasattr(self.policy, "snapshot_state"):
            state = self.policy.snapshot_state()
        model = None
        if state is not None:
            result, answers_seen = state
            model = {
                "answers_seen": int(answers_seen),
                "result": serialize_result(result),
            }
        payload = {
            "format": FORMAT_VERSION,
            "epoch": self._snapshot_epoch,
            "answers_seen": len(self.answers),
            "wal_records": self._storage.record_count,
            "answers": [
                [answer.worker, int(answer.row), int(answer.col), answer.value]
                for answer in self.answers
            ],
            "model": model,
            # Full audit history rides every snapshot, so the decision
            # chain survives WAL segment GC exactly like the answer prefix
            # (a retained snapshot is standalone, audit included).
            "audit": None if self.recorder is None else self.recorder.state(),
        }
        self._storage.save_snapshot(payload)
        self._snapshot_epoch += 1
        self._answers_at_last_snapshot = len(self.answers)
        self.snapshots_written += 1
        self._collect_garbage()
        return True

    def _collect_garbage(self) -> None:
        """Prune snapshots past ``keep_snapshots``, then covered WAL storage."""
        if self.keep_snapshots is None:
            return
        self._storage.prune_snapshots(self.keep_snapshots)
        cover = self._storage.gc_cover()
        if cover:
            self._storage.truncate_before(cover)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Cut a final snapshot and close the log."""
        if self._storage is not None and not self._storage.closed:
            if len(self.answers) > self._answers_at_last_snapshot:
                self.snapshot()
            self._storage.close()

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- introspection ------------------------------------------------------------


def durable_summary(directory) -> Dict[str, object]:
    """Cheap, read-only summary of a durable directory (tests/inspection).

    Takes no lock and writes nothing (a missing directory is not created),
    so it also reads a directory a live session holds.  The log is read by
    layout: JSONL segments are found by
    :func:`~repro.service.storage.wal_segment_files` and scanned with
    :func:`read_wal` (no truncation), SQLite rows are read through
    :meth:`~repro.service.storage.SqliteBackend.open_read_only`.  The
    newest snapshot within the log is picked by
    :meth:`~repro.service.storage.StorageBackend.latest_snapshot` on the
    backend's read-only view, on both layouts.
    """
    directory = pathlib.Path(directory)
    database = directory / SqliteBackend.FILENAME
    sqlite = database.exists()
    backend = (SqliteBackend if sqlite else JsonlBackend).open_read_only(directory)
    try:
        if sqlite:
            records = backend.records()
            wal_records = backend.record_count
            wal_segments = 1
            wal_bytes = database.stat().st_size
        else:
            segments = wal_segment_files(directory)
            records = []
            wal_bytes = 0
            for _first, path in segments:
                part, valid_bytes = read_wal(path)
                records.extend(part)
                wal_bytes += valid_bytes
            wal_records = (segments[-1][0] + len(part)) if segments else 0
            wal_segments = len(segments)
        snapshot = backend.latest_snapshot(max_wal_records=wal_records)
        snapshots = backend.snapshot_count
    finally:
        backend.close()
    answers = sum(len(r["a"]) for r in records if r.get("t") == "answers")
    return {
        "wal_records": wal_records,
        "wal_bytes": wal_bytes,
        "wal_segments": wal_segments,
        "answers_logged": answers,
        "snapshots": snapshots,
        "latest_snapshot_epoch": None if snapshot is None else snapshot.epoch,
        "latest_snapshot_answers_seen": (
            None if snapshot is None else snapshot.answers_seen
        ),
    }
