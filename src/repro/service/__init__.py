"""Crowd-serving service layer: HTTP API, durability, session registry.

The engine packages give the online loop two serving paths (the
incremental assigner and async refit); this package is the layer that
serves them to live workers instead of in-process simulation loops:

* :mod:`repro.service.wal` — a durable session: an append-only
  write-ahead answer log plus periodic engine-state snapshots, replayable to
  a **bit-identical** rebuild of the session (answers and the warm-start
  EM chain).
* :mod:`repro.service.storage` — the pluggable storage backends under it:
  rotated JSONL segments or a single stdlib ``sqlite3`` database, both with
  snapshot retention / WAL GC so long-lived sessions stay disk-bounded.
* :mod:`repro.service.registry` — multi-tenant session registry with a
  per-session lock discipline, plus the JSON codecs for schemas and session
  configurations.
* :mod:`repro.service.app` — a stdlib-only WSGI application (no runtime
  dependencies beyond the scientific stack the engine already uses)
  exposing session creation, task routing, answer ingestion, estimates, a
  health probe and Prometheus-text metrics.
* :mod:`repro.service.client` — a stdlib HTTP client for the API, used
  by the tests and ``scripts/service_smoke.py``.

Crash recovery is checked bit for bit against an uninterrupted run by
``tests/test_wal.py`` and ``tests/test_storage.py`` (``recovery_identical``
and its rotation variant) and the recovered audit ledger by
``tests/test_provenance.py`` (``audit_replay_identical``).

Run a server with ``python -m repro.service --port 8080`` (see
``src/repro/service/README.md`` for the endpoint reference and the
durability/replay model).
"""

from repro.service.registry import ServedSession, SessionRegistry
from repro.service.storage import (
    JsonlBackend,
    SnapshotStore,
    SqliteBackend,
    StorageBackend,
    WriteAheadLog,
    create_backend,
)
from repro.service.wal import DurableSession

__all__ = [
    "DurableSession",
    "JsonlBackend",
    "ServedSession",
    "SessionRegistry",
    "SnapshotStore",
    "SqliteBackend",
    "StorageBackend",
    "WriteAheadLog",
    "create_backend",
]
