"""Multi-tenant session registry and the JSON codecs of the service API.

The registry owns every live :class:`ServedSession` of one server process.
Concurrency discipline:

* the **registry lock** guards only the id → session map (create / get /
  remove are O(1) critical sections);
* each session carries its **own** re-entrant lock, taken around every
  session operation (select, ingest, estimates, worker lookup).  The
  engine policies are single-session objects and not thread-safe against
  concurrent mutation, so the per-session lock serialises requests *within*
  a session while different sessions proceed fully in parallel.

Sessions are described by a **version-1 spec body** (see
:mod:`repro.config`): the envelope names where the rows live (an inline
``schema`` or a named ``dataset``, plus ``session_id`` / ``durable``),
the spec sections pick the policy, the serving mode and the durability
settings.  The ``version`` key is required: a body without it is a 400
with ``"path": "version"``.  Durable sessions pin the
*canonical* spec to ``session.json`` inside the durable directory;
:meth:`SessionRegistry.create` with such a directory *recovers* the
session (write-ahead-log replay, see :mod:`repro.service.wal`) instead of
creating a fresh one, and ``GET /sessions/{id}/config`` serves the
canonical spec back.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pathlib
import threading
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ModelSpec, SessionSpec, SpecValidationError, split_envelope
from repro.config.factory import build_durable_session, build_policy
from repro.core.schema import Column, TableSchema
from repro.engine.provenance import AUDIT_FORMAT, DEFAULT_PAGE_LIMIT
from repro.service.wal import DurableSession
from repro.utils.exceptions import ConfigurationError, ReproError

_log = logging.getLogger("repro.service.registry")

#: Strict JSON encoder of every response body, built once (``json.dumps``
#: with keyword arguments would build a new encoder per request).
_ENCODER = json.JSONEncoder(allow_nan=False)


class ResponseEncodingError(ReproError):
    """A response body that cannot be encoded as strict JSON (the API's 500)."""


def encode_response(body) -> bytes:
    """``body`` as strict JSON plus a newline, in UTF-8.

    A non-finite number raises :class:`ResponseEncodingError`, which the
    API answers with a 500: it is a server fault, never the 400 that a
    bare ``ValueError`` maps to.
    """
    try:
        text = _ENCODER.encode(body)
    except ValueError as exc:
        raise ResponseEncodingError(f"Response is not valid JSON: {exc}") from None
    return (text + "\n").encode("utf-8")


#: Version of the durable ``session.json`` manifest.  Format 2 pins the
#: canonical v1 spec under ``"spec"``; a manifest without one (format 1)
#: is unrecoverable.  The manifest also pins the session's audit format
#: under ``"audit_format"``; a manifest without it predates audit format 2
#: and chains at format 1 (see :mod:`repro.engine.provenance`).
MANIFEST_FORMAT = 2


def _spec_as_written(spec: dict) -> dict:
    """A manifest's spec, pinned to how its session ran, so replay repeats
    every fit.  A spec without ``policy.model.warm_iterations`` predates the
    warm budget: its warm refits ran ``max_iterations``.  A non-null
    ``serving.refit_tol`` stopped warm refits on an objective test that no
    longer exists, so that session cannot replay and is refused."""
    refit_tol = (spec.get("serving") or {}).get("refit_tol")
    if refit_tol is not None:
        raise SpecValidationError(
            "serving.refit_tol",
            f"is {refit_tol!r} in this manifest: its warm refits stopped on the "
            "retired objective test, so the session cannot replay as written",
        )
    policy = spec.get("policy") or {}
    model = policy.get("model") or {}
    if "warm_iterations" in model:
        return spec
    budget = model.get("max_iterations", ModelSpec.max_iterations)
    model = {**model, "warm_iterations": budget}
    return {**spec, "policy": {**policy, "model": model}}


#: Loaders a ``{"dataset": {"name": ...}}`` spec may reference.
_DATASET_LOADERS = {
    "celebrity": "load_celebrity",
    "emotion": "load_emotion",
    "restaurant": "load_restaurant",
    "synthetic": "generate_synthetic",
}


# -- schema codec -------------------------------------------------------------


def schema_to_dict(schema: TableSchema) -> dict:
    """JSON-safe description of a :class:`TableSchema`."""
    columns = []
    for column in schema.columns:
        if column.is_categorical:
            columns.append(
                {
                    "name": column.name,
                    "type": "categorical",
                    "labels": list(column.labels),
                }
            )
        else:
            columns.append(
                {
                    "name": column.name,
                    "type": "continuous",
                    "domain": list(column.domain) if column.domain else None,
                }
            )
    return {
        "entity_attribute": schema.entity_attribute,
        "num_rows": schema.num_rows,
        "columns": columns,
    }


def schema_from_dict(payload: dict) -> TableSchema:
    """Rebuild the :class:`TableSchema` described by :func:`schema_to_dict`."""
    try:
        columns = []
        for spec in payload["columns"]:
            kind = spec.get("type")
            if kind == "categorical":
                columns.append(
                    Column.categorical(spec["name"], tuple(spec["labels"]))
                )
            elif kind == "continuous":
                domain = spec.get("domain") or ()
                columns.append(Column.continuous(spec["name"], tuple(domain)))
            else:
                raise ConfigurationError(
                    f"Unknown column type {kind!r} (expected 'categorical' "
                    "or 'continuous')"
                )
        return TableSchema.build(
            payload["entity_attribute"], columns, int(payload["num_rows"])
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"Malformed schema payload: {exc}") from exc


def resolve_schema(config: dict) -> TableSchema:
    """Schema of a session config: inline ``schema`` or a named ``dataset``."""
    if "schema" in config:
        return schema_from_dict(config["schema"])
    if "dataset" in config:
        spec = dict(config["dataset"])
        name = spec.pop("name", None)
        loader_name = _DATASET_LOADERS.get(name)
        if loader_name is None:
            raise ConfigurationError(
                f"Unknown dataset {name!r}; expected one of "
                f"{sorted(_DATASET_LOADERS)}"
            )
        import repro.datasets as datasets

        try:
            return getattr(datasets, loader_name)(**spec).schema
        except TypeError as exc:
            raise ConfigurationError(
                f"Invalid options for dataset {name!r}: {exc}"
            ) from exc
    raise ConfigurationError(
        "A session config needs either 'schema' (inline columns) or "
        "'dataset' (a named loader)"
    )


# -- config parsing / policy construction -------------------------------------


def parse_config(config: dict) -> Tuple[dict, SessionSpec]:
    """Parse a ``POST /sessions`` body into ``(envelope, spec)``.

    The body is a v1 spec document (strict, path-qualified errors; a
    missing ``version`` is one of them) plus the service-side envelope
    keys (``schema`` / ``dataset`` / ``session_id`` / ``durable``).
    """
    if not isinstance(config, dict):
        raise ConfigurationError("The session config must be a JSON object")
    envelope, payload = split_envelope(config)
    return envelope, SessionSpec.from_dict(payload)


# -- served session -----------------------------------------------------------


class ServedSession:
    """One live session: policy + answers + WAL behind a per-session lock."""

    def __init__(
        self,
        session_id: str,
        schema: TableSchema,
        spec: SessionSpec,
        durable: DurableSession,
    ) -> None:
        self.session_id = session_id
        self.schema = schema
        self.spec = spec
        self.durable = durable
        self.lock = threading.RLock()
        self.selects_served = 0
        self.answers_ingested = 0
        self.estimate_requests = 0
        # The encoded GET /estimates body and the (result, answer count) it
        # was built from; read and written under the session lock.
        self._estimates_key: Optional[Tuple[object, int]] = None
        self._estimates_body: Optional[bytes] = None
        self._cell_keys: Optional[List[str]] = None

    def config_payload(self) -> Dict[str, object]:
        """The canonical v1 spec body (``GET /sessions/{id}/config``).

        Exactly what :meth:`SessionRegistry.create` would need to rebuild
        this session: the spec's canonical ``to_dict`` form plus the
        schema/session-id envelope.
        """
        payload: Dict[str, object] = {
            "session_id": self.session_id,
            "schema": schema_to_dict(self.schema),
        }
        payload.update(self.spec.to_dict())
        return payload

    # -- operations (each one critical-sectioned on the session lock) --------

    def select(self, worker: str, k: int = 1):
        """Assign the next ``k`` cells to ``worker``."""
        with self.lock:
            assignment = self.durable.select(worker, k=k)
            self.selects_served += 1
            return assignment

    def ingest(self, worker: str, items: Sequence[Tuple[int, int, object]]) -> int:
        """Record a batch of collected answers; return the new total."""
        with self.lock:
            total = self.durable.append_answers(worker, items)
            self.answers_ingested += len(items)
            return total

    def estimates(self) -> bytes:
        """The encoded ``GET /estimates`` body: every cell's truth estimate.

        :meth:`DurableSession.estimates` runs on every call, so catch-up
        fits and their WAL records are unchanged.  The body depends only on
        the result that call returns and on the answer count, so it is
        cached on that pair (the result object itself, not its ``id``) and
        rebuilt only when either changes.  Raises
        :class:`ResponseEncodingError` for a non-finite estimate.
        """
        with self.lock:
            result = self.durable.estimates()
            self.estimate_requests += 1
            answers = self.durable.answers
            count = len(answers)
            key = self._estimates_key
            if key is None or key[0] is not result or key[1] != count:
                if self._cell_keys is None:
                    self._cell_keys = [
                        f"{row},{col}"
                        for row in range(self.schema.num_rows)
                        for col in range(self.schema.num_columns)
                    ]
                # Drop the stale body first: a failed encode keeps none, and
                # at most one body is ever held.
                self._estimates_key = self._estimates_body = None
                self._estimates_body = encode_response({
                    "session_id": self.session_id,
                    "answers_collected": count,
                    "mean_answers_per_cell": answers.mean_answers_per_cell(),
                    "estimates": dict(zip(self._cell_keys, result.estimate_table())),
                })
                self._estimates_key = (result, count)
            return self._estimates_body

    def worker_info(self, worker: str) -> Dict[str, object]:
        """Answer count and estimated quality of one known worker.

        Raises :class:`KeyError` for a worker that never contributed an
        answer to this session (the API's 404).
        """
        with self.lock:
            answers = self.durable.answers
            if worker not in answers.workers:
                raise KeyError(worker)
            result = getattr(self.durable.policy, "last_result", None)
            quality = None
            variance = None
            if result is not None and result.has_worker(worker):
                quality = float(result.worker_quality(worker))
                variance = float(result.worker_variance(worker))
            return {
                "session_id": self.session_id,
                "worker": worker,
                "answers": len(answers.answers_by_worker(worker)),
                "quality": quality,
                "variance": variance,
            }

    # -- decisions API (audit layer) ------------------------------------------

    def _recorder(self):
        recorder = self.durable.recorder
        if recorder is None:
            raise ConfigurationError(
                "this session was created with serving.audit=false; "
                "no decision records exist"
            )
        return recorder

    def decision(self, decision_id: int) -> Dict[str, object]:
        """One audit record (``GET /sessions/{id}/decisions/{n}``).

        Raises :class:`KeyError` for an unknown decision id (the API's
        404) and :class:`ConfigurationError` when auditing is off.
        """
        with self.lock:
            record = self._recorder().get(int(decision_id))
        return {"session_id": self.session_id, **record.to_dict()}

    def decisions(
        self, since: int = 0, limit: int = DEFAULT_PAGE_LIMIT
    ) -> Dict[str, object]:
        """A page of audit records (``GET /sessions/{id}/decisions``)."""
        with self.lock:
            recorder = self._recorder()
            records = recorder.page(since, limit)
            total = recorder.count
            head = recorder.chain_head
        next_since = records[-1].decision_id + 1 if records else int(since)
        return {
            "session_id": self.session_id,
            "total": total,
            "chain_head": head,
            "next_since": next_since if next_since < total else None,
            "decisions": [record.to_dict() for record in records],
        }

    def _served_model(self) -> Optional[Dict[str, object]]:
        """The served fit, read without running one (``None`` before the
        first fit).  The caller holds the session lock."""
        state = self.durable.policy.snapshot_state()
        if state is None:
            return None
        result, answers_seen = state
        trace = result.objective_trace
        return {
            "answers_seen": int(answers_seen),
            "iterations_run": int(result.iterations_run),
            "stopped_by": result.stopped_by,
            "objective": float(trace[-1]) if trace else None,
        }

    def stats(self) -> Dict[str, object]:
        """Status summary (the session resource representation)."""
        with self.lock:
            answers = self.durable.answers
            recorder = self.durable.recorder
            audit = {
                "decisions_recorded": (
                    None if recorder is None else recorder.count
                ),
                "decision_chain_hash": (
                    None if recorder is None else recorder.chain_head
                ),
                "audit_replay_verified": (
                    None if recorder is None else recorder.replay_verified
                ),
                "audit_replay_mismatches": (
                    None if recorder is None else recorder.replay_mismatches
                ),
            }
            return {
                "session_id": self.session_id,
                "policy": self.durable.policy.name,
                "num_rows": self.schema.num_rows,
                "num_columns": self.schema.num_columns,
                "answers_collected": len(answers),
                "workers": answers.num_workers,
                "mean_answers_per_cell": answers.mean_answers_per_cell(),
                "selects_served": self.selects_served,
                "answers_ingested": self.answers_ingested,
                "estimate_requests": self.estimate_requests,
                "durable": self.durable.durable,
                "wal_records": self.durable.wal_records,
                "wal_segments": self.durable.wal_segments,
                "snapshots_written": self.durable.snapshots_written,
                "snapshots_retained": self.durable.snapshots_retained,
                "durability_backend": self.durable.backend_name,
                "recovered_epoch": self.durable.recovered_epoch,
                "model": self._served_model(),
                **audit,
            }

    def close(self) -> None:
        """Cut a final snapshot and close the log."""
        with self.lock:
            self.durable.close()


# -- registry -----------------------------------------------------------------


class SessionRegistry:
    """The id → :class:`ServedSession` map of one server process.

    Parameters
    ----------
    durable_root:
        Optional directory under which sessions created with
        ``{"durable": true}`` get their per-session subdirectory.  Explicit
        ``{"durable_dir": ...}`` configs work without it.
    durable_backend:
        Optional server-wide default storage backend (``"jsonl"`` /
        ``"sqlite"``) applied to durable sessions whose config does not
        set ``durability.backend`` explicitly.  Recovered sessions always
        use the backend pinned in their manifest.
    """

    def __init__(self, durable_root=None, durable_backend=None) -> None:
        self.durable_root = (
            None if durable_root is None else pathlib.Path(durable_root)
        )
        self.durable_backend = durable_backend
        self._sessions: Dict[str, ServedSession] = {}
        self._lock = threading.Lock()
        #: Optional :class:`~repro.engine.HotPathProfile` attached to every
        #: policy built by this registry that supports ``set_profile``
        #: (the engine serving wrappers).  The service sets this to the
        #: profile behind ``/metrics`` so per-stage hot-path histograms
        #: aggregate across sessions.
        self.hotpath_profile = None

    # -- lookup --------------------------------------------------------------

    def ids(self) -> List[str]:
        """Ids of every live session."""
        with self._lock:
            return sorted(self._sessions)

    def sessions(self) -> List[ServedSession]:
        """Snapshot of every live session (for metrics aggregation)."""
        with self._lock:
            return list(self._sessions.values())

    def get(self, session_id: str) -> ServedSession:
        """The live session with this id (raises :class:`KeyError`)."""
        with self._lock:
            return self._sessions[session_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- creation / recovery -------------------------------------------------

    def create(self, config: dict) -> ServedSession:
        """Create (or recover) a session from its v1 JSON config."""
        envelope, spec = parse_config(config)
        durable_dir = self._resolve_durable_dir(envelope, spec)
        if durable_dir is not None and (durable_dir / "session.json").exists():
            return self._register(self._recover(durable_dir))
        session_id = envelope.get("session_id") or uuid.uuid4().hex[:12]
        if durable_dir is None and envelope.get("durable"):
            raise ConfigurationError(
                "durable=true needs the server's --durable-root (or an "
                "explicit durability.durable_dir in the session spec)"
            )
        if durable_dir is not None:
            # Pin the resolved directory so the manifest spec is the full,
            # self-contained truth (a later create() on just that directory
            # recovers the identical session).
            spec = spec.with_durable_dir(str(durable_dir))
            spec = self._apply_default_backend(config, spec)
        session = self._build(session_id, envelope, spec, durable_dir)
        if durable_dir is not None:
            manifest = {
                "format": MANIFEST_FORMAT,
                "audit_format": AUDIT_FORMAT,
                "session_id": session_id,
                "schema": schema_to_dict(session.schema),
                "spec": spec.to_dict(),
            }
            (durable_dir / "session.json").write_text(
                json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
            )
        return self._register(session)

    def recover_all(self) -> List[str]:
        """Recover every durable session found under ``durable_root``.

        One corrupt directory must not take the healthy sessions (or the
        whole server boot) down with it: per-directory failures are
        reported to stderr and skipped.
        """
        if self.durable_root is None or not self.durable_root.exists():
            return []
        recovered = []
        for path in sorted(self.durable_root.iterdir()):
            if not (path / "session.json").exists():
                continue
            try:
                recovered.append(self._register(self._recover(path)).session_id)
            except ReproError as exc:
                _log.warning(
                    "skipping unrecoverable session directory %s: %s",
                    path, exc,
                    extra={"session_id": path.name},
                )
        return recovered

    def _apply_default_backend(self, config, spec: SessionSpec) -> SessionSpec:
        """Fill in the server-wide default backend when the config left it out.

        Only an *explicit* ``durability.backend`` in the request body wins
        over the server default; the spec-level default (``jsonl``) does
        not, or ``--durable-backend`` could never take effect.
        """
        if self.durable_backend is None:
            return spec
        requested = None
        if isinstance(config, dict):
            durability = config.get("durability")
            if isinstance(durability, dict):
                requested = durability.get("backend")
        if requested is not None:
            return spec
        return dataclasses.replace(
            spec,
            durability=dataclasses.replace(
                spec.durability, backend=self.durable_backend
            ),
        )

    def _resolve_durable_dir(
        self, envelope: dict, spec: SessionSpec
    ) -> Optional[pathlib.Path]:
        explicit = spec.durability.durable_dir
        if explicit:
            return pathlib.Path(explicit)
        if envelope.get("durable"):
            if self.durable_root is None:
                return None  # create() raises the descriptive error
            session_id = envelope.get("session_id") or uuid.uuid4().hex[:12]
            envelope["session_id"] = session_id
            return self.durable_root / session_id
        return None

    def _recover(self, durable_dir: pathlib.Path) -> ServedSession:
        try:
            manifest = json.loads(
                (durable_dir / "session.json").read_text(encoding="utf-8")
            )
            session_id = manifest["session_id"]
            envelope = {"schema": manifest["schema"]}
            spec = SessionSpec.from_dict(_spec_as_written(manifest["spec"]))
            audit_format = int(manifest.get("audit_format", 1))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(
                f"Cannot recover session manifest in {durable_dir}: {exc}"
            ) from exc
        # The directory may have moved since the manifest was written (the
        # operator relocated --durable-root); trust where we found it.
        spec = spec.with_durable_dir(str(durable_dir))
        with self._lock:
            if session_id in self._sessions:
                return self._sessions[session_id]
        return self._build(
            session_id, envelope, spec, durable_dir, audit_format=audit_format
        )

    def _build(
        self,
        session_id: str,
        envelope: dict,
        spec: SessionSpec,
        durable_dir: Optional[pathlib.Path],
        audit_format: int = AUDIT_FORMAT,
    ) -> ServedSession:
        schema = resolve_schema(envelope)
        policy = build_policy(schema, spec, audit_format=audit_format)
        if self.hotpath_profile is not None and hasattr(policy, "set_profile"):
            policy.set_profile(self.hotpath_profile)
        durable = build_durable_session(
            schema, policy, spec, directory=durable_dir
        )
        return ServedSession(session_id, schema, spec, durable)

    def _register(self, session: ServedSession) -> ServedSession:
        with self._lock:
            existing = self._sessions.get(session.session_id)
            if existing is not None and existing is not session:
                session.close()
                raise ConfigurationError(
                    f"Session id {session.session_id!r} is already live"
                )
            self._sessions[session.session_id] = session
        _log.info(
            "session registered: %s (%s)",
            session.session_id, session.durable.policy.name,
            extra={"session_id": session.session_id},
        )
        return session

    # -- teardown ------------------------------------------------------------

    def remove(self, session_id: str) -> None:
        """Close one session and drop it (raises :class:`KeyError`)."""
        with self._lock:
            session = self._sessions.pop(session_id)
        session.close()
        _log.info(
            "session removed: %s", session_id,
            extra={"session_id": session_id},
        )

    def close_all(self) -> None:
        """Close every session (server shutdown)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
