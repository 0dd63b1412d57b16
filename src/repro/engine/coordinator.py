"""Process-level sharded serving: a coordinator over shard-group workers.

The in-process serving policies — the bare assigner and the async refit
wrapper — run in one Python process, so the GIL caps throughput no matter
how fast the hot path gets.  This module moves the scoring/refit work out
of process:

* :class:`ShardGroupScorer` — everything **one worker process** does, as a
  plain in-process object (so the logic is unit-testable without spawning
  anything): it trails the coordinator's answer WAL, rebuilds the
  :class:`~repro.core.assignment.TCrowdAssigner` from a JSON-safe spec
  payload, keeps a :class:`~repro.engine.sharding.ShardedSessionState`
  restricted to its contiguous shard group, refits on the exact cadence of
  the single-process path, and answers ``select`` requests with its local
  stable top-K.
* :class:`ProcessShardCoordinator` — the
  :class:`~repro.core.assignment.AssignmentPolicy` the factory returns for
  ``ServingSpec.processes >= 1``.  It spawns one worker process per shard
  group, routes every ingested answer to the shared answer WAL (each
  answer's row has exactly one owning worker for candidate accounting;
  the refit stream is global because the paper's EM couples all rows
  through the worker-quality estimates), fans each select out to all
  workers and merges the per-worker top-Ks with
  :func:`~repro.core.assignment.merge_top_k_stable`.

Wire protocol
-------------
Transport is one ``multiprocessing.Pipe`` per worker.  Messages are UTF-8
JSON objects framed by ``Connection.send_bytes`` / ``recv_bytes`` — i.e. a
4-byte little-endian length prefix followed by the JSON payload.  Requests
carry an ``"op"`` key; replies are either the op's result object or
``{"error": {"type": ..., "message": ...}}``, which the coordinator
re-raises as the matching :mod:`repro.utils.exceptions` class.

===========  ==================================================  =========================================
op           request fields                                      reply fields
===========  ==================================================  =========================================
``sync``     ``count`` (WAL records to trail up to)              ``epoch``, ``answers_seen``
``select``   ``worker``, ``k``, ``audit``?, ``decision``?        ``n`` (candidates), ``top`` ``[[gain,row,col],…]``, ``prov``?
``final``    —                                                   ``result`` (codec of :func:`serialize_result`)
``snapshot``  —                                                  ``state`` (``null`` or result+``answers_seen``)
``restore``  ``result``, ``answers_seen``                        ``epoch``, ``answers_seen``
``stats``    —                                                   ``epoch``, ``answers_seen``, ``shards``, …
``shutdown``  —                                                  ``{"ok": true}`` then the process exits
===========  ==================================================  =========================================

Answers never ride the pipe: the coordinator appends them to an append-only
JSONL WAL (the same torn-tail-safe format as :mod:`repro.service.wal`) and
``sync`` only names the record count to trail up to.  Each record is
``{"a": [[worker, row, col, value], …], "o": bool}`` — one record per
ingest/observe event, with ``"o"`` carrying whether the event was an
``observe`` so workers replay the refit cadence faithfully.  A restarted
worker replays the WAL from record zero, rebuilding the warm-start chain
bit for bit — the same replay contract the service layer's durable WAL
pins.

Equivalence
-----------
Every worker applies the full answer stream through an identical,
deterministic assigner, so all workers hold bit-identical models at every
point of the session, and each one's refit chain equals the single-process
chain.  Selects score each worker's contiguous candidate block with that
model; shipping only the per-worker stable top-K preserves the global
stable order because within-block order survives compression and
cross-block ties still resolve by block order.  The merged sequence is
therefore bit-identical to the single-process path — recorded as
``identical_assignments_multiprocess`` by the benchmark and replayed
against the golden trace in ``tests/test_coordinator.py``.

Failure model
-------------
``Connection`` errors, a reply timeout, or a dead process all raise
:class:`~repro.utils.exceptions.ServiceUnavailableError`, which the HTTP
layer maps to a 503 — a crashed shard worker is an explicit, fast error,
never a hang.  :meth:`ProcessShardCoordinator.restart_worker` respawns a
worker and replays it back to the current WAL position;
:meth:`ProcessShardCoordinator.close` shuts the fleet down gracefully
(``shutdown`` op, then join, then terminate/kill stragglers).

Worker stdout/stderr is redirected to ``worker-<i>.log`` under
``$REPRO_WORKER_LOG_DIR`` (or the spool directory) so CI can upload the
logs of a failed multi-process run as an artifact.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import pathlib
import shutil
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.assignment import (
    AssignmentPolicy,
    BatchAssignment,
    TCrowdAssigner,
    merge_top_k_stable,
    top_k_stable,
)
from repro.core.schema import TableSchema
from repro.engine.sharding import ShardedSessionState
from repro.utils.exceptions import (
    AssignmentError,
    ConfigurationError,
    DataError,
    InferenceError,
    ReproError,
    ServiceUnavailableError,
)

Cell = Tuple[int, int]

_log = logging.getLogger("repro.engine.coordinator")

#: Where worker processes write their ``worker-<i>.log`` files.
LOG_DIR_ENV = "REPRO_WORKER_LOG_DIR"
#: Per-request reply timeout override (seconds, float).
TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"
_DEFAULT_TIMEOUT = 60.0

_MODEL_FIELDS = (
    "epsilon", "max_iterations", "tolerance", "m_step_iterations",
    "difficulty_regularization", "phi_regularization", "use_difficulty",
    "standardize_continuous", "m_step",
)
_POLICY_FIELDS = (
    "use_structure", "refit_every", "continuous_samples",
    "max_answers_per_cell", "min_pairs", "warm_start", "vectorized",
    "incremental", "refit_tol",
)
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        AssignmentError, ConfigurationError, DataError, InferenceError,
        ServiceUnavailableError,
    )
}


def _json_seed(seed) -> Optional[int]:
    """A JSON-safe seed: plain non-negative ints survive, anything else is None."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        return None
    return int(seed)


def worker_spec_from_assigner(assigner: TCrowdAssigner) -> dict:
    """JSON-safe payload from which a worker rebuilds an equivalent assigner.

    Reconstructed from the *live* assigner rather than a
    :class:`~repro.config.SessionSpec` because the factory's
    :func:`~repro.config.factory.wrap_policy` seam only sees the serving
    section — benchmark matrix overrides (``warm_start`` / ``vectorized`` /
    ``incremental`` per timed path) live on the assigner itself.
    """
    model = {name: getattr(assigner.model, name) for name in _MODEL_FIELDS}
    model["seed"] = _json_seed(assigner.model.seed)
    policy = {name: getattr(assigner, name) for name in _POLICY_FIELDS}
    policy["seed"] = _json_seed(assigner.seed)
    strategy = None if assigner.strategy is None else assigner.strategy.spec.to_dict()
    return {"model": model, "policy": policy, "strategy": strategy}


def build_worker_assigner(schema: TableSchema, payload: dict) -> TCrowdAssigner:
    """The worker-side twin of the coordinator's assigner."""
    from repro.config.spec import StrategySpec
    from repro.core.inference import TCrowdModel
    from repro.strategies import build_strategy

    strategy_payload = payload.get("strategy")
    strategy = (
        None
        if strategy_payload is None
        else build_strategy(StrategySpec.from_dict(strategy_payload))
    )
    return TCrowdAssigner(
        schema,
        model=TCrowdModel(**payload["model"]),
        strategy=strategy,
        **payload["policy"],
    )


def _mp_context():
    """A fork-free multiprocessing context.

    ``fork`` under a threaded parent (the WSGI server) is deprecated on
    Python 3.12 and genuinely unsafe; ``forkserver`` keeps spawn cost low
    where available, ``spawn`` is the portable fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _read_new_records(path: pathlib.Path, offset: int) -> Tuple[List[dict], int]:
    """Complete JSONL records appearing at or after byte ``offset``.

    The coordinator flushes every append before naming its count in a
    ``sync``, so a torn tail here would mean a corrupted spool — surfaced
    as an error by the caller when the record count falls short.
    """
    records: List[dict] = []
    with open(path, "rb") as handle:
        handle.seek(offset)
        for line in handle:
            if not line.endswith(b"\n"):
                break
            records.append(json.loads(line.decode("utf-8")))
            offset += len(line)
    return records, offset


class ShardGroupScorer:
    """One worker's state machine, runnable in-process (tests) or out (serving).

    Parameters
    ----------
    schema:
        The table schema (workers rebuild it from the coordinator's
        JSON codec).
    spec_payload:
        :func:`worker_spec_from_assigner` output.
    num_shards:
        The *global* shard count — every worker partitions rows
        identically, so the concatenation of per-worker candidate blocks
        is the global row-major candidate list.
    shard_lo, shard_hi:
        Half-open range of shard indices this worker owns (contiguous, so
        the owned rows are one contiguous block).
    wal_path:
        The coordinator's answer WAL to trail.
    """

    def __init__(
        self,
        schema: TableSchema,
        spec_payload: dict,
        num_shards: int,
        shard_lo: int,
        shard_hi: int,
        wal_path,
    ) -> None:
        self.schema = schema
        self.assigner = build_worker_assigner(schema, spec_payload)
        self.shards = range(int(shard_lo), int(shard_hi))
        self._state = ShardedSessionState(
            schema,
            num_shards=num_shards,
            max_answers_per_cell=self.assigner.max_answers_per_cell,
        )
        self.answers = AnswerSet(schema)
        self._wal_path = pathlib.Path(wal_path)
        self._wal_offset = 0
        self.records_applied = 0
        #: Published refit epoch: +1 per completed fit, exactly the
        #: ``(epoch, answers_seen)`` protocol of ``AsyncRefitEngine``.
        self.epoch = 0
        self._fit_marker = self.assigner.answers_at_last_fit
        # Model-state hash for audit provenance, cached per fit: the state
        # only changes when answers_at_last_fit moves.
        self._hash_marker: Optional[int] = None
        self._hash_value: Optional[str] = None

    # -- the (epoch, answers_seen) snapshot the worker publishes -----------

    def published_state(self) -> Dict[str, int]:
        """``(epoch, answers_seen)`` of the newest completed fit."""
        return {
            "epoch": self.epoch,
            "answers_seen": self.assigner.answers_at_last_fit,
        }

    def _bump_epoch(self) -> None:
        marker = self.assigner.answers_at_last_fit
        if marker != self._fit_marker:
            self._fit_marker = marker
            self.epoch += 1

    # -- WAL trailing --------------------------------------------------------

    def sync_to(self, count: int) -> Dict[str, int]:
        """Apply WAL records until ``records_applied == count``."""
        if count < self.records_applied:
            raise ServiceUnavailableError(
                f"answer WAL went backwards: have {self.records_applied} "
                f"records, coordinator names {count}"
            )
        if count > self.records_applied:
            records, self._wal_offset = _read_new_records(
                self._wal_path, self._wal_offset
            )
            for record in records:
                self.apply_record(record)
            if self.records_applied < count:
                raise ServiceUnavailableError(
                    f"answer WAL is short: coordinator names {count} "
                    f"records, spool holds {self.records_applied}"
                )
        return self.published_state()

    def apply_record(self, record: dict) -> None:
        """One ingest/observe event: add the answers, observe if flagged."""
        for worker, row, col, value in record.get("a", ()):
            self.answers.add_answer(worker, int(row), int(col), value)
        if record.get("o"):
            self.assigner.observe(self.answers)
            self._bump_epoch()
        self.records_applied += 1

    # -- ops -----------------------------------------------------------------

    def select(
        self, worker: str, k: int, audit: bool = False
    ) -> Tuple[int, List[list], Optional[dict]]:
        """Local stable top-``k`` over this worker's candidate block.

        Returns ``(candidate_count, [[gain, row, col], ...], provenance)``.
        The refit (via ``prepare_scoring``) runs unconditionally — the
        coordinator only sends ``select`` when the *global* candidate list
        is non-empty, which is exactly when the single-process path would
        refit, so every worker's chain tracks it even on selects where its
        own block is empty.

        With ``audit`` the reply also carries this worker's provenance
        block: the ``answers_seen`` marker and model-state hash of the fit
        that scored the select, plus per-shard candidate counts for the
        owned shard range.  Every worker holds the bit-identical fit chain,
        so the coordinator can let worker 0's hash speak for the fleet.
        """
        calculator = self.assigner.prepare_scoring(self.answers)
        self._bump_epoch()
        state = self._state.sync(self.answers)
        cells: List[Cell] = []
        per_shard: List[int] = []
        for shard in self.shards:
            shard_cells = state.shard_candidate_cells(shard, worker)
            per_shard.append(len(shard_cells))
            cells.extend(shard_cells)
        provenance = self._provenance(per_shard) if audit else None
        if not cells:
            return 0, [], provenance
        gains = calculator.gains_batch(worker, cells)
        order = top_k_stable(gains, k)
        top = [
            [float(gains[i]), int(cells[i][0]), int(cells[i][1])]
            for i in order
        ]
        return len(cells), top, provenance

    def _provenance(self, per_shard: List[int]) -> dict:
        """Audit block for the fit that just scored (hash cached per fit)."""
        from repro.core.codec import model_state_hash

        marker = self.assigner.answers_at_last_fit
        if marker != self._hash_marker or self._hash_value is None:
            self._hash_marker = marker
            self._hash_value = model_state_hash(self.assigner.last_result)
        return {
            "answers_seen": int(marker),
            "model_hash": self._hash_value,
            "shards": [
                {"shard": int(shard), "candidates": int(count)}
                for shard, count in zip(self.shards, per_shard)
            ],
        }

    def final(self) -> dict:
        """Serialized full-catch-up fit (see ``TCrowdAssigner.final_result``)."""
        from repro.core.codec import serialize_result

        result = self.assigner.final_result(self.answers)
        self._bump_epoch()
        return {"result": serialize_result(result), **self.published_state()}

    def snapshot(self) -> dict:
        """Serialized ``snapshot_state`` (``{"state": None}`` before a fit)."""
        from repro.core.codec import serialize_result

        state = self.assigner.snapshot_state()
        if state is None:
            return {"state": None}
        result, answers_seen = state
        return {
            "state": {
                "result": serialize_result(result),
                "answers_seen": int(answers_seen),
            }
        }

    def restore(self, payload: dict) -> Dict[str, int]:
        """Re-seat the warm-start chain from a serialized snapshot."""
        from repro.core.codec import deserialize_result

        result = deserialize_result(payload["result"], self.schema)
        self.assigner.restore_state(result, int(payload["answers_seen"]))
        self._fit_marker = self.assigner.answers_at_last_fit
        self.epoch += 1
        return self.published_state()

    def stats(self) -> dict:
        """Topology and progress counters (the ``stats`` op)."""
        return {
            **self.published_state(),
            "shards": [self.shards.start, self.shards.stop],
            "answers_applied": len(self.answers),
            "wal_records": self.records_applied,
        }


def handle_request(scorer: ShardGroupScorer, message: dict) -> dict:
    """Dispatch one request message to the scorer; the worker loop's body."""
    op = message.get("op")
    if op == "sync":
        return scorer.sync_to(int(message["count"]))
    if op == "select":
        count, top, provenance = scorer.select(
            message["worker"], int(message["k"]),
            audit=bool(message.get("audit")),
        )
        if "decision" in message:
            _log.debug(
                "select served: %d candidates",
                count,
                extra={"decision_id": int(message["decision"])},
            )
        reply = {"n": count, "top": top}
        if provenance is not None:
            reply["prov"] = provenance
        return reply
    if op == "final":
        return scorer.final()
    if op == "snapshot":
        return scorer.snapshot()
    if op == "restore":
        return scorer.restore(message)
    if op == "stats":
        return scorer.stats()
    raise ConfigurationError(f"unknown worker op {op!r}")


def _serve(scorer: ShardGroupScorer, conn) -> None:  # pragma: no cover - subprocess loop
    """The worker's request loop: one JSON reply per JSON request.

    Runs only inside the worker process (exercised end to end by every
    coordinator test, but invisible to the parent's coverage tracer);
    the dispatch itself is :func:`handle_request`, which is unit-tested
    in-process.
    """
    while True:
        message = json.loads(conn.recv_bytes().decode("utf-8"))
        if message.get("op") == "shutdown":
            conn.send_bytes(b'{"ok": true}')
            return
        try:
            reply = handle_request(scorer, message)
        except Exception as exc:  # marshalled, never fatal to the loop
            _log.warning(
                "op %r failed: %s: %s",
                message.get("op"), type(exc).__name__, exc,
            )
            reply = {
                "error": {"type": type(exc).__name__, "message": str(exc)}
            }
        conn.send_bytes(json.dumps(reply).encode("utf-8"))


def _worker_main(conn, init_json: str) -> None:  # pragma: no cover - subprocess entry
    """Process entry point: build the scorer, signal readiness, serve."""
    init = json.loads(init_json)
    log_dir = init.get("log_dir")
    if log_dir:
        path = pathlib.Path(log_dir) / f"worker-{init['worker_index']}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
    from repro.utils.logging import configure_logging

    configure_logging(
        level=init.get("log_level", "INFO"),
        json_lines=True,
        worker_id=int(init["worker_index"]),
        session_id=init.get("session_label"),
    )
    try:
        from repro.service.registry import schema_from_dict

        scorer = ShardGroupScorer(
            schema_from_dict(init["schema"]),
            init["spec"],
            num_shards=init["num_shards"],
            shard_lo=init["shard_lo"],
            shard_hi=init["shard_hi"],
            wal_path=init["wal_path"],
        )
        scorer.sync_to(int(init["sync_to"]))
    except Exception as exc:
        conn.send_bytes(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        ).encode("utf-8"))
        return
    conn.send_bytes(json.dumps(
        {"ok": True, **scorer.published_state()}
    ).encode("utf-8"))
    _log.info(
        "worker ready: shards [%d, %d), %d WAL records",
        scorer.shards.start, scorer.shards.stop, scorer.records_applied,
    )
    try:
        _serve(scorer, conn)
    except (EOFError, OSError):
        pass  # coordinator went away; nothing left to serve
    finally:
        _log.info("worker shutting down")
        conn.close()


class _WorkerHandle:
    """Coordinator-side record of one worker process."""

    __slots__ = ("index", "shard_lo", "shard_hi", "process", "conn", "alive")

    def __init__(self, index: int, shard_lo: int, shard_hi: int) -> None:
        self.index = index
        self.shard_lo = shard_lo
        self.shard_hi = shard_hi
        self.process = None
        self.conn = None
        self.alive = False


class ProcessShardCoordinator(AssignmentPolicy):
    """Serve a :class:`TCrowdAssigner` through shard-group worker processes.

    Parameters
    ----------
    inner:
        The assigner describing the model, gain configuration and refit
        cadence; workers rebuild their own twin from it (see
        :func:`worker_spec_from_assigner`).  The coordinator never scores
        with ``inner`` itself — it only consults its candidate accounting
        for the global no-candidates check and answer routing.
    processes:
        Number of worker processes (clipped to the number of rows).
    num_shards:
        Global shard count, default ``max(processes, 1)``; clipped like
        :class:`~repro.engine.sharding.ShardedSessionState` and split over
        the workers in contiguous groups (the first ``num_shards %
        processes`` workers own one extra shard).
    request_timeout:
        Seconds to wait for any single worker reply before declaring the
        worker unavailable; default ``$REPRO_WORKER_TIMEOUT`` or 60.
    spool_dir:
        Directory for the answer WAL and (absent ``$REPRO_WORKER_LOG_DIR``)
        the worker logs; a private temporary directory by default, removed
        on :meth:`close`.
    """

    def __init__(
        self,
        inner: TCrowdAssigner,
        processes: int = 2,
        num_shards: Optional[int] = None,
        request_timeout: Optional[float] = None,
        spool_dir=None,
    ) -> None:
        if not isinstance(inner, TCrowdAssigner):
            raise ConfigurationError(
                "ProcessShardCoordinator requires a TCrowdAssigner, got "
                f"{type(inner).__name__}"
            )
        if inner.continuous_samples:
            raise ConfigurationError(
                "ProcessShardCoordinator requires the closed-form gain path "
                "(continuous_samples=0); worker processes cannot share the "
                "Monte-Carlo estimator's ordered sample stream"
            )
        if processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        super().__init__(
            inner.schema,
            max_answers_per_cell=inner.max_answers_per_cell,
            incremental=True,
        )
        from repro.service.registry import schema_to_dict
        from repro.service.storage import WriteAheadLog

        rows = max(inner.schema.num_rows, 1)
        self.inner = inner
        self.processes = min(int(processes), rows)
        self.num_shards = min(
            int(num_shards) if num_shards is not None
            else max(self.processes, 1),
            rows,
        )
        if self.num_shards < self.processes:
            self.num_shards = self.processes
        if request_timeout is None:
            request_timeout = float(
                os.environ.get(TIMEOUT_ENV, _DEFAULT_TIMEOUT)
            )
        self.request_timeout = float(request_timeout)
        self._owns_spool = spool_dir is None
        self._spool = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-shard-workers-")
            if spool_dir is None else spool_dir
        )
        self._spool.mkdir(parents=True, exist_ok=True)
        self._log_dir = os.environ.get(LOG_DIR_ENV) or str(self._spool)
        self._wal = WriteAheadLog(self._spool / "answers.wal")
        self._shipped = 0
        self._last_result = None
        self._closed = False
        self._ctx = _mp_context()
        self._init_common = {
            "schema": schema_to_dict(inner.schema),
            "spec": worker_spec_from_assigner(inner),
            "num_shards": self.num_shards,
            "wal_path": str(self._wal.path),
            "log_dir": self._log_dir,
        }
        base, extra = divmod(self.num_shards, self.processes)
        self._workers: List[_WorkerHandle] = []
        lo = 0
        for index in range(self.processes):
            hi = lo + base + (1 if index < extra else 0)
            self._workers.append(_WorkerHandle(index, lo, hi))
            lo = hi
        try:
            for handle in self._workers:
                self._spawn(handle)
        except BaseException:
            self.close()
            raise

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.inner.name} [processes x{self.processes}]"

    @property
    def last_result(self):
        """The newest inference result fetched from worker 0 (may be None)."""
        return self._last_result

    # -- topology ------------------------------------------------------------

    def session_state(self, answers: AnswerSet) -> ShardedSessionState:
        """The coordinator's own candidate accounting, synced to ``answers``."""
        if self._state is None:
            self._state = ShardedSessionState(
                self.schema,
                num_shards=self.num_shards,
                max_answers_per_cell=self.max_answers_per_cell,
            )
        return self._state.sync(answers)

    def candidate_cells(self, worker: str, answers: AnswerSet) -> List[Cell]:
        """Global row-major candidate list (concatenation of worker blocks)."""
        return self.session_state(answers).candidate_cells(worker)

    def worker_of_shard(self, shard: int) -> int:
        """Index of the worker process owning ``shard``."""
        for handle in self._workers:
            if handle.shard_lo <= shard < handle.shard_hi:
                return handle.index
        raise ConfigurationError(
            f"shard {shard} outside 0..{self.num_shards - 1}"
        )

    def owner_of_row(self, row: int) -> int:
        """Index of the worker process whose candidate block owns ``row``.

        The answer-routing table: every ingested answer updates exactly
        this worker's open-candidate accounting (all workers still apply
        the answer to their EM stream — the model is global).
        """
        if self._state is None:
            self._state = ShardedSessionState(
                self.schema,
                num_shards=self.num_shards,
                max_answers_per_cell=self.max_answers_per_cell,
            )
        return self.worker_of_shard(self._state.shard_of_row(row))

    def worker_states(self) -> List[Optional[dict]]:
        """Liveness + ``(epoch, answers_seen)`` snapshot per worker.

        Dead workers report ``None`` — this probe never raises, so the
        service stats endpoint stays available while a shard is down.
        """
        states: List[Optional[dict]] = []
        for handle in self._workers:
            try:
                states.append(self._request(handle, {"op": "stats"}))
            except ServiceUnavailableError:
                states.append(None)
        return states

    # -- transport -----------------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        init = dict(
            self._init_common,
            worker_index=handle.index,
            shard_lo=handle.shard_lo,
            shard_hi=handle.shard_hi,
            sync_to=self._wal.record_count,
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, json.dumps(init)),
            name=f"repro-shard-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.alive = True
        ready = self._recv(handle)
        if "error" in ready:
            self._mark_dead(handle)
            raise self._unmarshal_error(ready["error"])

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    @staticmethod
    def _unmarshal_error(error: dict) -> Exception:
        cls = _ERROR_TYPES.get(error.get("type", ""), ReproError)
        return cls(error.get("message", "worker error"))

    def _recv(self, handle: _WorkerHandle) -> dict:
        try:
            if not handle.conn.poll(self.request_timeout):
                if handle.process is not None and not handle.process.is_alive():
                    self._mark_dead(handle)
                    raise ServiceUnavailableError(
                        f"shard worker {handle.index} died "
                        f"(exitcode={handle.process.exitcode})"
                    )
                self._mark_dead(handle)
                raise ServiceUnavailableError(
                    f"shard worker {handle.index} did not reply within "
                    f"{self.request_timeout:.1f}s"
                )
            return json.loads(handle.conn.recv_bytes().decode("utf-8"))
        except (EOFError, OSError) as exc:
            self._mark_dead(handle)
            raise ServiceUnavailableError(
                f"shard worker {handle.index} connection lost: {exc}"
            ) from exc

    def _send(self, handle: _WorkerHandle, message: dict) -> None:
        if self._closed:
            raise ServiceUnavailableError("coordinator is closed")
        if not handle.alive:
            raise ServiceUnavailableError(
                f"shard worker {handle.index} is down "
                "(restart_worker() to respawn it)"
            )
        try:
            handle.conn.send_bytes(json.dumps(message).encode("utf-8"))
        except (OSError, ValueError) as exc:
            self._mark_dead(handle)
            raise ServiceUnavailableError(
                f"shard worker {handle.index} connection lost: {exc}"
            ) from exc

    def _request(self, handle: _WorkerHandle, message: dict) -> dict:
        self._send(handle, message)
        reply = self._recv(handle)
        if "error" in reply:
            raise self._unmarshal_error(reply["error"])
        return reply

    def _broadcast(self, message: dict) -> List[dict]:
        """Send to every worker, then collect every reply (pipelined).

        A dead worker does not abort the fan-out half way: the message
        still goes to every live worker and every queued reply is drained
        before the failure is raised.  Otherwise the survivors would be
        left one reply ahead of the coordinator and every later request
        would read the previous op's answer (protocol desync).
        """
        error: Optional[Exception] = None
        sent: List[_WorkerHandle] = []
        for handle in self._workers:
            try:
                self._send(handle, message)
                sent.append(handle)
            except ServiceUnavailableError as exc:
                error = error or exc
        replies = []
        for handle in sent:
            try:
                replies.append(self._recv(handle))
            except ServiceUnavailableError as exc:
                error = error or exc
        if error is not None:
            raise error
        for reply in replies:
            if "error" in reply:
                raise self._unmarshal_error(reply["error"])
        return replies

    # -- answer shipping -------------------------------------------------------

    def _ship(self, answers: AnswerSet, observe: bool) -> None:
        """Append new answers to the WAL and have every worker trail it."""
        count = len(answers)
        if count < self._shipped:
            raise ConfigurationError(
                "answer set shrank: the coordinator requires the append-only "
                f"AnswerSet contract ({count} < {self._shipped})"
            )
        if count == self._shipped and not observe:
            return
        delta = [
            [a.worker, a.row, a.col,
             a.value if isinstance(a.value, str) else float(a.value)]
            for a in (answers[i] for i in range(self._shipped, count))
        ]
        self._wal.append({"a": delta, "o": bool(observe)})
        self._shipped = count
        self._broadcast({"op": "sync", "count": self._wal.record_count})

    # -- policy ----------------------------------------------------------------

    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        """Fan the select out, merge the per-worker stable top-Ks.

        Each worker returns its block's candidate count and local stable
        top-``k``; :func:`merge_top_k_stable` over the compressed blocks
        reproduces the single-process stable global top-``k`` bit for bit
        (within-block order survives compression; cross-block ties resolve
        by block order either way).
        """
        if k < 1:
            raise AssignmentError(f"k must be >= 1, got {k}")
        state = self.session_state(answers)
        if not state.candidate_cells(worker):
            raise AssignmentError(
                f"No candidate cells left for worker {worker!r}"
            )
        self._ship(answers, observe=False)
        message = {"op": "select", "worker": worker, "k": int(k)}
        if self._recorder is not None:
            message["audit"] = True
            message["decision"] = self._recorder.count
        replies = self._broadcast(message)
        part_gains: List[np.ndarray] = []
        part_cells: List[List[Cell]] = []
        for reply in replies:
            top = reply["top"]
            part_gains.append(np.array([g for g, _r, _c in top], dtype=float))
            part_cells.append([(int(r), int(c)) for _g, r, c in top])
        stops = np.cumsum([len(g) for g in part_gains])
        order = merge_top_k_stable(part_gains, k)
        cells: List[Cell] = []
        values: List[float] = []
        for global_index in order.tolist():
            part = int(np.searchsorted(stops, global_index, side="right"))
            local = global_index - (stops[part - 1] if part else 0)
            cells.append(part_cells[part][int(local)])
            values.append(float(part_gains[part][int(local)]))
        assignment = BatchAssignment(worker, tuple(cells), tuple(values))
        if self._recorder is not None:
            self._record_from_replies(state, replies, assignment, len(answers))
        return assignment

    def _record_from_replies(
        self,
        state: ShardedSessionState,
        replies: List[dict],
        assignment: BatchAssignment,
        answers_total: int,
    ) -> None:
        """Merge the workers' provenance blocks into one audit record.

        Every worker trails the identical answer WAL through an identical
        deterministic assigner, so the fit chains — and therefore the
        model-state hashes — are bit-identical across the fleet; worker 0's
        block speaks for all of them.  Winner cells are mapped back to
        their shard through the coordinator's own row partition, and each
        per-shard lineage entry is annotated with the owning process (the
        one deployment fact the single-process modes cannot have — it rides
        outside the hashed core, like all ``shards`` lineage).
        """
        winners: List[List[list]] = [[] for _ in range(self.num_shards)]
        for (row, col), gain in zip(assignment.cells, assignment.gains):
            winners[state.shard_of_row(row)].append(
                [int(row), int(col), float(gain)]
            )
        shard_blocks = []
        for handle, reply in zip(self._workers, replies):
            for block in (reply.get("prov") or {}).get("shards", ()):
                shard = int(block["shard"])
                shard_blocks.append({
                    "shard": shard,
                    "candidates": int(block["candidates"]),
                    "winners": winners[shard],
                    "process": handle.index,
                })
        head = replies[0].get("prov") or {}
        self._record_decision(
            assignment,
            answers_seen=int(head.get("answers_seen", -1)),
            answers_total=answers_total,
            candidates=sum(int(reply["n"]) for reply in replies),
            model_hash=head.get("model_hash"),
            shards=tuple(shard_blocks),
        )

    def observe(self, answers: AnswerSet) -> None:
        """Ship the new answers with the observe flag (workers refit on cadence)."""
        self._ship(answers, observe=True)

    def final_result(self, answers: AnswerSet):
        """Full catch-up fit on *every* worker; worker 0's result comes back.

        Broadcast (not worker-0-only) because ``final_result`` is an event
        in the warm-start chain — all workers must record it or their
        chains would diverge from the single-process replay.
        """
        from repro.core.codec import deserialize_result

        self._ship(answers, observe=False)
        replies = self._broadcast({"op": "final"})
        self._last_result = deserialize_result(replies[0]["result"], self.schema)
        return self._last_result

    # -- durability ------------------------------------------------------------

    def snapshot_state(self):
        """Worker 0's ``(result, answers_seen)`` — identical on every worker."""
        from repro.core.codec import deserialize_result

        reply = self._request(self._workers[0], {"op": "snapshot"})
        state = reply["state"]
        if state is None:
            return None
        result = deserialize_result(state["result"], self.schema)
        self._last_result = result
        return result, int(state["answers_seen"])

    def restore_state(self, result, answers_seen: int) -> None:
        """Re-seat every worker's warm-start chain from a durable snapshot."""
        from repro.core.codec import serialize_result

        self._last_result = result
        self._broadcast({
            "op": "restore",
            "result": serialize_result(result),
            "answers_seen": int(answers_seen),
        })

    # -- lifecycle -------------------------------------------------------------

    def restart_worker(self, index: int) -> None:
        """Respawn worker ``index`` and replay it to the current WAL position.

        The WAL replay recovers the answers and the observe cadence, but
        not the select-time refits (those are not logged) — so after the
        replay the fresh worker's warm-start chain is re-seated from a
        surviving peer's ``(result, answers_seen)`` snapshot.  Every worker
        holds the identical chain, so any live donor restores the respawned
        worker to bit-identical state.  With no live peer (or before any
        fit) the replayed chain stands as-is.
        """
        if self._closed:
            raise ServiceUnavailableError("coordinator is closed")
        handle = self._workers[index]
        self._reap(handle, graceful=False)
        self._spawn(handle)
        donor = next(
            (h for h in self._workers if h.alive and h is not handle), None
        )
        if donor is None:
            return
        state = self._request(donor, {"op": "snapshot"})["state"]
        if state is not None:
            self._request(handle, {"op": "restore", **state})

    def _reap(self, handle: _WorkerHandle, graceful: bool) -> None:
        if handle.alive and graceful:
            try:
                self._request(handle, {"op": "shutdown"})
            except ServiceUnavailableError:
                pass
        self._mark_dead(handle)
        process = handle.process
        if process is None:
            return
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - last-resort kill
            process.kill()
            process.join(timeout=5.0)
        handle.process = None

    def close(self) -> None:
        """Shut the fleet down and remove the spool (idempotent)."""
        if self._closed:
            return
        for handle in self._workers:
            self._reap(handle, graceful=True)
        self._closed = True
        self._wal.close()
        if self._owns_spool:
            shutil.rmtree(self._spool, ignore_errors=True)

    def __enter__(self) -> "ProcessShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
