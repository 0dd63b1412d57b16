"""Pluggable durability storage backends: segmented JSONL and SQLite.

:class:`~repro.service.wal.DurableSession` stores its write-ahead log and
snapshots through :class:`StorageBackend` — append / iterate /
truncate-before for the log, save / list / load / delete for snapshots —
with two implementations:

* :class:`JsonlBackend` — local JSONL files with optional **segment
  rotation**: without rotation the log is one ``wal.jsonl`` file; with it
  the log is a sequence of ``wal-<first_record:08d>.jsonl`` files (a
  ``wal.jsonl`` is the segment starting at record 0, see
  :func:`wal_segment_files`), a new segment opens after
  ``rotate_every_records`` appends, and only the *newest* segment may
  carry a torn tail — an older segment that does not parse to EOF is a
  hard :class:`~repro.utils.exceptions.DurabilityError`, because the
  records after the corruption were already acknowledged.

* :class:`SqliteBackend` — a single ``durable.sqlite3`` file (stdlib
  ``sqlite3``).  Appends are transactions, so torn tails cannot exist;
  ``truncate_before`` is a ``DELETE``; rotation is meaningless (the knob
  is accepted and ignored).  ``fsync=True`` maps to
  ``PRAGMA synchronous=FULL``, the default to ``OFF`` (process-crash
  safe, the failure model the recovery benchmark exercises).

Record indexes are **global and immortal**: ``append`` returns the index
the record has in the full event history, and ``record_count`` keeps
counting past pruned prefixes.  ``truncate_before(n)`` may drop storage
for records ``< n`` (the JSONL backend only drops whole segments, so it
keeps a little more; SQLite drops exactly) — the session layer only calls
it with a bound proven covered by every retained snapshot, so a pruned
record is never needed again, not even by ``discard_lost_timeline``:
snapshots are discarded against the *global* count, which a lost tail can
shrink back to — but never below — the pruned prefix.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.utils.exceptions import ConfigurationError, DurabilityError

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d+)-(\d+)\.json$")
_SEGMENT_NAME = re.compile(r"^wal-(\d+)\.jsonl$")

#: Durability backend names accepted by :func:`create_backend` (and by
#: ``DurabilitySpec.backend`` — keep ``repro.config.spec`` in sync).
BACKEND_NAMES = ("jsonl", "sqlite")


def _fsync_directory(directory: pathlib.Path) -> None:
    """fsync a directory so a rename/create inside it survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- write-ahead log (single JSONL file) --------------------------------------


def read_wal(path: pathlib.Path) -> Tuple[List[dict], int]:
    """Read every complete record of a WAL file.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the offset
    one past the last complete record.  A torn tail — a final line without
    its newline, or one that no longer parses as JSON — is dropped, as is
    everything after it (a corrupt middle record invalidates the rest of
    the log: later records may depend on the lost event).
    """
    records: List[dict] = []
    valid_bytes = 0
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return records, valid_bytes
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: record written without its terminator
        line = data[offset:newline]
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break  # corrupt record: drop it and everything after
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = newline + 1
        valid_bytes = offset
    return records, valid_bytes


class WriteAheadLog:
    """Append-only JSONL event log with torn-tail recovery.

    Opening an existing file truncates it back to its last complete record
    (so a torn write can never merge with the next append) and resumes the
    record count from there.  ``fsync=True`` forces every append to disk —
    full power-loss durability at a heavy per-event cost; the default
    flush-only mode survives process crashes, which is the failure model
    the recovery benchmark exercises.

    The on-disk file is the source of truth: only the record count and the
    newest record are held in memory, so a long-lived session's log costs
    O(1) memory regardless of how many events it serves.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.fsync = bool(fsync)
        records, valid_bytes = read_wal(self.path)
        self._count = len(records)
        self._last_record: Optional[dict] = records[-1] if records else None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        if self._file.tell() != valid_bytes:
            self._file.truncate(valid_bytes)
            self._file.seek(valid_bytes)
        self._closed = False

    @property
    def record_count(self) -> int:
        """Number of complete records in the log."""
        return self._count

    @property
    def last_record(self) -> Optional[dict]:
        """The newest complete record (``None`` on an empty log)."""
        return self._last_record

    @property
    def records(self) -> List[dict]:
        """All complete records, oldest first — re-read from disk.

        Every append was flushed before it was counted, so the read always
        sees at least ``record_count`` records.
        """
        return read_wal(self.path)[0]

    def append(self, record: dict) -> int:
        """Durably append one record; return its index."""
        if self._closed:
            raise DurabilityError(f"WAL {self.path} is closed")
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._file.write(line.encode("utf-8"))
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._count += 1
        self._last_record = record
        return self._count - 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._closed:
            self._closed = True
            self._file.close()


# -- snapshots (JSONL layout) -------------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    """One loaded snapshot (see :mod:`repro.service.wal` for the protocol)."""

    epoch: int
    answers_seen: int
    wal_records: int
    payload: dict
    path: Optional[pathlib.Path] = None

    @property
    def standalone(self) -> bool:
        """True when this snapshot can recover without any WAL prefix.

        Requires both the serialized model state and the answer prefix in
        the payload — the precondition for pruning the WAL records it
        covers.  Recovery skips a snapshot that is not standalone.
        """
        return (
            self.payload.get("model") is not None
            and self.payload.get("answers") is not None
        )


class SnapshotStore:
    """Atomic, epoch-ordered engine-state snapshot files in one directory."""

    def __init__(self, directory, fsync: bool = False) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)

    def save(self, payload: dict) -> pathlib.Path:
        """Write one snapshot atomically; return its path.

        With ``fsync=True`` the file content is fsynced before the rename
        and the directory after it, so the snapshot either exists complete
        or not at all even across power loss — matching the WAL's
        durability level (a flushed-but-unsynced snapshot could otherwise
        vanish while the log it covers survives).
        """
        epoch = int(payload["epoch"])
        answers_seen = int(payload["answers_seen"])
        name = f"snapshot-{epoch:06d}-{answers_seen:08d}.json"
        path = self.directory / name
        tmp = path.with_suffix(".json.tmp")
        data = (json.dumps(payload) + "\n").encode("utf-8")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            _fsync_directory(self.directory)
        return path

    def _entries(self) -> List[Tuple[int, int, pathlib.Path]]:
        found = []
        for path in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(path.name)
            if match:
                found.append((int(match.group(1)), int(match.group(2)), path))
        return sorted(found, key=lambda entry: (entry[0], entry[1]))

    def paths(self) -> List[pathlib.Path]:
        """Snapshot files, oldest epoch first."""
        return [path for _epoch, _seen, path in self._entries()]

    def epochs(self) -> List[int]:
        """Epoch numbers present, ascending."""
        return [epoch for epoch, _seen, _path in self._entries()]

    def next_epoch(self) -> int:
        """One past the highest epoch number any file has ever used here.

        Epochs must never be reused — not even those of snapshots that a
        recovery later discards — so a file name, once observed, always
        refers to the same immutable content.
        """
        entries = self._entries()
        return entries[-1][0] + 1 if entries else 0

    def load(self, epoch: int) -> Optional[Snapshot]:
        """Load one snapshot by epoch (``None`` if absent or unreadable)."""
        for found, _seen, path in self._entries():
            if found != epoch:
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                return Snapshot(
                    epoch=int(payload["epoch"]),
                    answers_seen=int(payload["answers_seen"]),
                    wal_records=int(payload["wal_records"]),
                    payload=payload,
                    path=path,
                )
            except (OSError, ValueError, KeyError):
                return None
        return None

    def delete(self, epoch: int) -> None:
        """Delete one snapshot file by epoch (idempotent)."""
        for found, _seen, path in self._entries():
            if found == epoch:
                path.unlink(missing_ok=True)

    def discard_lost_timeline(self, max_wal_records: int) -> List[pathlib.Path]:
        """Delete snapshots covering more WAL records than survive on disk.

        A crash that loses the WAL tail can strand snapshots describing
        events that no longer exist; they can never become valid again (the
        regrown log diverges from the lost one), and leaving them around
        would let a *later* recovery pick one once the new log grows past
        their record count.  Recovery calls this before replaying.
        """
        removed = []
        for _epoch, _seen, path in self._entries():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                stale = int(payload["wal_records"]) > max_wal_records
            except (OSError, ValueError, KeyError):
                continue  # unreadable files are merely skipped, never chosen
            if stale:
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    def latest(self, max_wal_records: Optional[int] = None) -> Optional[Snapshot]:
        """Newest loadable snapshot covering at most ``max_wal_records``.

        Unreadable files and snapshots that claim more WAL records than
        survive on disk (possible when the log lost its tail after the
        snapshot was cut) are skipped — recovery then falls back to an
        older snapshot or to a full replay.
        """
        for path in reversed(self.paths()):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                snapshot = Snapshot(
                    epoch=int(payload["epoch"]),
                    answers_seen=int(payload["answers_seen"]),
                    wal_records=int(payload["wal_records"]),
                    payload=payload,
                    path=path,
                )
            except (OSError, ValueError, KeyError):
                continue
            if max_wal_records is not None and snapshot.wal_records > max_wal_records:
                continue
            return snapshot
        return None


# -- the backend contract -----------------------------------------------------


class StorageBackend:
    """Log + snapshot storage for one durable session directory.

    The write-ahead log side speaks **global record indexes** (0-based
    over the full event history, surviving pruning); the snapshot side
    speaks the ``(epoch, answers_seen, wal_records)`` protocol of
    :class:`Snapshot`.  Concrete backends implement the primitive methods;
    the selection/GC policies (:meth:`latest_snapshot`,
    :meth:`discard_lost_timeline`, :meth:`prune_snapshots`,
    :meth:`gc_cover`) are shared.
    """

    name = "abstract"

    # log primitives ----------------------------------------------------------

    def append(self, record: dict) -> int:
        """Durably append one record; return its global index."""
        raise NotImplementedError

    def records(self) -> List[dict]:
        """Surviving records, oldest first (global index ``first_record_index``)."""
        raise NotImplementedError

    @property
    def record_count(self) -> int:
        """Global record count — pruned prefix included."""
        raise NotImplementedError

    @property
    def first_record_index(self) -> int:
        """Global index of the oldest surviving record (== count when empty)."""
        raise NotImplementedError

    @property
    def last_record(self) -> Optional[dict]:
        """The newest surviving record (``None`` on an empty log)."""
        raise NotImplementedError

    @property
    def segment_count(self) -> int:
        """On-disk log pieces (JSONL: files; SQLite: always 1)."""
        raise NotImplementedError

    def truncate_before(self, index: int) -> int:
        """Drop storage for records below the global ``index`` where cheap.

        Backends may keep more than asked (JSONL only drops whole sealed
        segments) but must never drop a record at or above ``index``.
        Returns the number of records actually dropped.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    # snapshot primitives -----------------------------------------------------

    def save_snapshot(self, payload: dict) -> None:
        raise NotImplementedError

    def snapshot_epochs(self) -> List[int]:
        """Epochs of the retained snapshots, ascending."""
        raise NotImplementedError

    def load_snapshot(self, epoch: int) -> Optional[Snapshot]:
        """Load one snapshot (``None`` if missing or unreadable)."""
        raise NotImplementedError

    def delete_snapshot(self, epoch: int) -> None:
        raise NotImplementedError

    def next_epoch(self) -> int:
        """One past the highest epoch ever used (deleted snapshots included)."""
        raise NotImplementedError

    # shared policies ---------------------------------------------------------

    @property
    def snapshot_count(self) -> int:
        return len(self.snapshot_epochs())

    def latest_snapshot(
        self, max_wal_records: Optional[int] = None
    ) -> Optional[Snapshot]:
        """Newest loadable snapshot covering at most ``max_wal_records``."""
        for epoch in reversed(self.snapshot_epochs()):
            snapshot = self.load_snapshot(epoch)
            if snapshot is None:
                continue
            if max_wal_records is not None and snapshot.wal_records > max_wal_records:
                continue
            return snapshot
        return None

    def discard_lost_timeline(self, max_wal_records: int) -> List[int]:
        """Delete snapshots covering more WAL records than survive.

        ``max_wal_records`` is the *global* record count, which a lost
        tail can shrink back to — but never below — the pruned prefix, so
        GC and lost-timeline discard compose: a pruned timeline stays
        pruned.  Returns the deleted epochs.
        """
        removed = []
        for epoch in self.snapshot_epochs():
            snapshot = self.load_snapshot(epoch)
            if snapshot is None:
                continue  # unreadable snapshots are skipped, never chosen
            if snapshot.wal_records > max_wal_records:
                self.delete_snapshot(epoch)
                removed.append(epoch)
        return removed

    def prune_snapshots(self, keep: int) -> List[int]:
        """Keep only the newest ``keep`` snapshots; return the deleted epochs."""
        if keep < 1:
            raise ConfigurationError(f"keep_snapshots must be >= 1, got {keep}")
        epochs = self.snapshot_epochs()
        removed = []
        for epoch in epochs[:-keep]:
            self.delete_snapshot(epoch)
            removed.append(epoch)
        return removed

    def gc_cover(self) -> int:
        """Highest global record index that no retained snapshot needs.

        Every retained snapshot must be *standalone* (model + answer
        prefix in the payload) for its covered records to be prunable; if
        any is not — or any is unreadable — the cover is 0 and nothing is
        pruned.  The cover is the **oldest** retained snapshot's record
        count: should recovery ever skip the newest snapshots (e.g. a lost
        tail discarded them), an older one plus its surviving tail must
        still reach the same state.
        """
        epochs = self.snapshot_epochs()
        if not epochs:
            return 0
        cover: Optional[int] = None
        for epoch in epochs:
            snapshot = self.load_snapshot(epoch)
            if snapshot is None or not snapshot.standalone:
                return 0
            cover = (
                snapshot.wal_records
                if cover is None
                else min(cover, snapshot.wal_records)
            )
        return cover or 0


# -- JSONL backend (segment rotation) -----------------------------------------


def wal_segment_files(directory) -> List[Tuple[int, pathlib.Path]]:
    """``(first_record, path)`` of every JSONL WAL segment, oldest first.

    An unrotated log's ``wal.jsonl`` is the segment starting at record 0.
    Read-only (a missing directory has no segments); two segments claiming
    the same first record are a :class:`DurabilityError`.
    """
    directory = pathlib.Path(directory)
    if not directory.exists():
        return []
    found: List[Tuple[int, pathlib.Path]] = []
    single = directory / "wal.jsonl"
    if single.exists():
        found.append((0, single))
    for path in directory.iterdir():
        match = _SEGMENT_NAME.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort(key=lambda item: item[0])
    for (first, path), (other, other_path) in zip(found, found[1:]):
        if first == other:
            raise DurabilityError(
                f"WAL segments {path.name} and {other_path.name} both "
                f"start at record {first}; the durable directory is "
                "inconsistent"
            )
    return found


@dataclass
class _Segment:
    """One sealed (read-only) WAL segment file."""

    first: int
    count: int
    path: pathlib.Path


class JsonlBackend(StorageBackend):
    """Segmented JSONL files + one snapshot file per epoch.

    Without ``rotate_every_records`` the log is one ``wal.jsonl`` file.
    With rotation, the active
    segment seals once it holds ``rotate_every_records`` records and a new
    ``wal-<first_record:08d>.jsonl`` opens; sealed segments are immutable,
    so only the active (newest) one can carry a torn tail — an older
    segment that does not parse to its end, or a gap between consecutive
    segments, is a hard :class:`DurabilityError`.
    """

    name = "jsonl"

    def __init__(
        self,
        directory,
        fsync: bool = False,
        rotate_every_records: Optional[int] = None,
    ) -> None:
        if rotate_every_records is not None and rotate_every_records < 1:
            raise ConfigurationError(
                f"rotate_every_records must be >= 1, got {rotate_every_records}"
            )
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.rotate_every_records = rotate_every_records
        self.snapshots = SnapshotStore(self.directory / "snapshots", fsync=fsync)
        self._sealed: List[_Segment] = []
        self._open_log()

    def _open_log(self) -> None:
        segments = wal_segment_files(self.directory)
        if not segments:
            if self.rotate_every_records is None:
                path = self.directory / "wal.jsonl"
            else:
                path = self.directory / "wal-00000000.jsonl"
            first = 0
        else:
            first, path = segments[-1]
            for seg_first, seg_path in segments[:-1]:
                records, valid_bytes = read_wal(seg_path)
                if valid_bytes != seg_path.stat().st_size:
                    raise DurabilityError(
                        f"sealed WAL segment {seg_path.name} is corrupt "
                        "(only the newest segment may carry a torn tail)"
                    )
                self._sealed.append(_Segment(seg_first, len(records), seg_path))
            expected = first
            for segment in reversed(self._sealed):
                if segment.first + segment.count != expected:
                    raise DurabilityError(
                        f"WAL segment {segment.path.name} holds records "
                        f"[{segment.first}, {segment.first + segment.count}) "
                        f"but the next segment starts at {expected}; the "
                        "log has a gap"
                    )
                expected = segment.first
        self._active_first = first
        self._active = WriteAheadLog(path, fsync=self.fsync)
        self._last: Optional[dict] = self._active.last_record
        if self._last is None and self._sealed:
            tail = read_wal(self._sealed[-1].path)[0]
            self._last = tail[-1] if tail else None

    # log primitives ----------------------------------------------------------

    def append(self, record: dict) -> int:
        if (
            self.rotate_every_records is not None
            and self._active.record_count >= self.rotate_every_records
        ):
            self._rotate()
        index = self._active_first + self._active.append(record)
        self._last = record
        return index

    def _rotate(self) -> None:
        sealed_first = self._active_first
        sealed_count = self._active.record_count
        sealed_path = self._active.path
        if self.fsync:
            os.fsync(self._active._file.fileno())
        self._active.close()
        self._sealed.append(_Segment(sealed_first, sealed_count, sealed_path))
        first = sealed_first + sealed_count
        self._active_first = first
        self._active = WriteAheadLog(
            self.directory / f"wal-{first:08d}.jsonl", fsync=self.fsync
        )
        if self.fsync:
            _fsync_directory(self.directory)

    def records(self) -> List[dict]:
        out: List[dict] = []
        for segment in self._sealed:
            out.extend(read_wal(segment.path)[0])
        out.extend(self._active.records)
        return out

    @property
    def record_count(self) -> int:
        return self._active_first + self._active.record_count

    @property
    def first_record_index(self) -> int:
        if self._sealed:
            return self._sealed[0].first
        return self._active_first

    @property
    def last_record(self) -> Optional[dict]:
        return self._last

    @property
    def segment_count(self) -> int:
        return len(self._sealed) + 1

    def truncate_before(self, index: int) -> int:
        dropped = 0
        keep: List[_Segment] = []
        for segment in self._sealed:
            if segment.first + segment.count <= index:
                segment.path.unlink(missing_ok=True)
                dropped += segment.count
            else:
                keep.append(segment)
        if dropped and self.fsync:
            _fsync_directory(self.directory)
        self._sealed = keep
        return dropped

    def close(self) -> None:
        self._active.close()

    @property
    def closed(self) -> bool:
        return self._active._closed

    # snapshot primitives -----------------------------------------------------

    def save_snapshot(self, payload: dict) -> None:
        self.snapshots.save(payload)

    def snapshot_epochs(self) -> List[int]:
        return self.snapshots.epochs()

    def load_snapshot(self, epoch: int) -> Optional[Snapshot]:
        return self.snapshots.load(epoch)

    def delete_snapshot(self, epoch: int) -> None:
        self.snapshots.delete(epoch)

    def next_epoch(self) -> int:
        return self.snapshots.next_epoch()


# -- SQLite backend -----------------------------------------------------------


class SqliteBackend(StorageBackend):
    """Log + snapshots in one stdlib ``sqlite3`` database file.

    Every append commits a transaction, so a crash can never leave a torn
    record — the torn-tail machinery of the JSONL layout simply does not
    apply.  ``rotate_every_records`` is accepted for interface parity and
    ignored (``segment_count`` is always 1); ``truncate_before`` deletes
    rows exactly.  The pruned-prefix bookkeeping (global count / first
    index) persists in a ``meta`` table, as does the epoch
    high-water-mark so epochs are never reused even after snapshots are
    deleted.
    """

    name = "sqlite"
    FILENAME = "durable.sqlite3"

    def __init__(
        self,
        directory,
        fsync: bool = False,
        rotate_every_records: Optional[int] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.rotate_every_records = rotate_every_records
        self.path = self.directory / self.FILENAME
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._closed = False
        self._conn.execute(
            "PRAGMA synchronous = %s" % ("FULL" if self.fsync else "OFF")
        )
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS wal ("
                "idx INTEGER PRIMARY KEY, record TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS snapshots ("
                "epoch INTEGER PRIMARY KEY, answers_seen INTEGER NOT NULL, "
                "wal_records INTEGER NOT NULL, payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
            )
        self._count = self._next_index()

    def _meta(self, key: str, default: int = 0) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row is not None else default

    def _set_meta(self, key: str, value: int) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, int(value)),
        )

    def _next_index(self) -> int:
        row = self._conn.execute("SELECT MAX(idx) FROM wal").fetchone()
        if row is not None and row[0] is not None:
            return int(row[0]) + 1
        return self._meta("pruned_before")

    # log primitives ----------------------------------------------------------

    def append(self, record: dict) -> int:
        if self._closed:
            raise DurabilityError(f"storage {self.path} is closed")
        index = self._count
        with self._conn:
            self._conn.execute(
                "INSERT INTO wal (idx, record) VALUES (?, ?)",
                (index, json.dumps(record, separators=(",", ":"))),
            )
        self._count = index + 1
        return index

    def records(self) -> List[dict]:
        rows = self._conn.execute("SELECT record FROM wal ORDER BY idx").fetchall()
        return [json.loads(row[0]) for row in rows]

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def first_record_index(self) -> int:
        row = self._conn.execute("SELECT MIN(idx) FROM wal").fetchone()
        if row is not None and row[0] is not None:
            return int(row[0])
        return self._count

    @property
    def last_record(self) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT record FROM wal ORDER BY idx DESC LIMIT 1"
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    @property
    def segment_count(self) -> int:
        return 1

    def truncate_before(self, index: int) -> int:
        bound = min(int(index), self._count)
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM wal WHERE idx < ?", (bound,)
            )
            self._set_meta(
                "pruned_before", max(self._meta("pruned_before"), bound)
            )
        return cursor.rowcount

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # snapshot primitives -----------------------------------------------------

    def save_snapshot(self, payload: dict) -> None:
        epoch = int(payload["epoch"])
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots "
                "(epoch, answers_seen, wal_records, payload) VALUES (?, ?, ?, ?)",
                (
                    epoch,
                    int(payload["answers_seen"]),
                    int(payload["wal_records"]),
                    json.dumps(payload),
                ),
            )
            self._set_meta("epoch_next", max(self._meta("epoch_next"), epoch + 1))

    def snapshot_epochs(self) -> List[int]:
        rows = self._conn.execute(
            "SELECT epoch FROM snapshots ORDER BY epoch"
        ).fetchall()
        return [int(row[0]) for row in rows]

    def load_snapshot(self, epoch: int) -> Optional[Snapshot]:
        row = self._conn.execute(
            "SELECT payload FROM snapshots WHERE epoch = ?", (int(epoch),)
        ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
            return Snapshot(
                epoch=int(payload["epoch"]),
                answers_seen=int(payload["answers_seen"]),
                wal_records=int(payload["wal_records"]),
                payload=payload,
                path=None,
            )
        except (ValueError, KeyError):
            return None

    def delete_snapshot(self, epoch: int) -> None:
        with self._conn:
            self._conn.execute(
                "DELETE FROM snapshots WHERE epoch = ?", (int(epoch),)
            )

    def next_epoch(self) -> int:
        epochs = self.snapshot_epochs()
        floor = epochs[-1] + 1 if epochs else 0
        return max(self._meta("epoch_next"), floor)


# -- factory ------------------------------------------------------------------


STORAGE_BACKENDS: Dict[str, Type[StorageBackend]] = {
    JsonlBackend.name: JsonlBackend,
    SqliteBackend.name: SqliteBackend,
}


def create_backend(
    directory,
    backend: str = "jsonl",
    fsync: bool = False,
    rotate_every_records: Optional[int] = None,
) -> StorageBackend:
    """Build the named storage backend over ``directory``."""
    cls = STORAGE_BACKENDS.get(backend)
    if cls is None:
        raise ConfigurationError(
            f"Unknown durability backend {backend!r}; expected one of "
            f"{sorted(STORAGE_BACKENDS)}"
        )
    return cls(directory, fsync=fsync, rotate_every_records=rotate_every_records)
