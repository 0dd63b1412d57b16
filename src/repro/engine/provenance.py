"""Decision provenance: per-select lineage records and a chained audit hash.

The equivalence benchmarks prove every serving mode replays the paper
path's assignment sequence bit for bit — but only in CI.  This module
turns that guarantee into a production feature: a
:class:`DecisionRecorder` attached to a serving policy captures, for every
``select``, a canonical audit record answering "why was worker *w* given
task *t*?" after the fact:

* a monotonically numbered ``decision_id``;
* the serving model state behind the decision — ``(epoch, answers_seen)``
  plus an exact hash of the full
  :class:`~repro.core.inference.InferenceResult`
  (:func:`~repro.core.codec.model_state_hash`), and the staleness at
  decision time (``answers_total - answers_seen``);
* candidate-set provenance — the worker's open candidate-pool size;
* a session-level **chained reproducibility hash**: each record's
  ``record_hash`` covers the previous record's hash ledger-style, so the
  chain head alone pins the whole decision history of a session.

``record_hash`` covers the decision and the model state that produced
it.  Those fields are identical across serving modes (plain, and async at
``max_stale_answers=0``), which is exactly the equivalence guarantee; the
audit matrix asserts the chain head matches across them.  Ledgers written
while process-level serving existed also carry a per-record ``shards``
lineage outside the hash; :meth:`DecisionRecord.from_dict` accepts and
drops it, so those ledgers keep replaying.

``epoch`` here is the audit epoch: the index of the distinct model state
serving the decision stream (it increments whenever ``answers_seen``
changes between records).  It is derived from the record stream itself,
not read from any engine's internal counter, so it cannot drift between
serving modes that take identical decisions.

**Replay verification.**  During WAL recovery the recorder is put in
replay mode: each replayed ``select`` *recomputes* its record (without
committing it), and the logged ``decision`` record that follows is
compared hash-for-hash (``replay_verified`` / ``replay_mismatches``)
before being restored verbatim.  Every recovery therefore re-proves the
audit chain over the replayed suffix — the ``audit_replay_identical``
property that ``tests/test_provenance.py`` checks in both serving modes
on both storage backends.

**Audit formats.**  The format fixes how ``model_hash`` is computed:
format 1 hashes the canonical JSON of the serialized result, format 2
(the current :data:`AUDIT_FORMAT`) hashes its arrays as raw buffers
(:func:`~repro.core.codec.model_state_hash`).  A recorder takes its
format at construction and keeps it for the life of the session's chain:
a durable session pins it in its manifest, so a ledger written at format
1 keeps verifying — and extending — at format 1 after an upgrade.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.codec import model_state_hash, payload_hash
from repro.utils.exceptions import ConfigurationError, DurabilityError

Cell = Tuple[int, int]

#: ``prev_hash`` of the first record in a session's chain (the default,
#: paper-strategy genesis; see :func:`strategy_genesis`).
GENESIS_HASH = "0" * 64

#: Audit format of new chains; bump when the record layout or the
#: model-hash scheme changes.  Format 2 hashes model states as raw buffers.
AUDIT_FORMAT = 2

#: Formats a recorder can chain and verify.
AUDIT_FORMATS = (1, 2)

#: Default / maximum page size of the decisions API.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: The core-payload fields covered by ``record_hash`` (sorted-key
#: canonical JSON over exactly these).
CORE_FIELDS = (
    "decision_id",
    "worker",
    "k",
    "cells",
    "gains",
    "epoch",
    "answers_seen",
    "answers_total",
    "staleness",
    "candidates",
    "model_hash",
    "prev_hash",
)


def strategy_genesis(strategy: Optional[str]) -> str:
    """The chain genesis hash a strategy binds.

    ``None`` / ``"paper"`` keep the historic all-zeros
    :data:`GENESIS_HASH`, so every pre-strategy chain head stays
    bit-identical.  Any other strategy derives its genesis from its name,
    which places the strategy *under* the hash chain: the first record's
    ``prev_hash`` (and therefore every later ``record_hash``) commits to
    which strategy served the session, without touching
    :data:`CORE_FIELDS` or any individual record layout.
    """
    if strategy in (None, "paper"):
        return GENESIS_HASH
    return payload_hash({"audit_genesis": str(strategy)})


def record_core(payload: dict) -> dict:
    """The hash-covered core of a record dict (drops ``record_hash``).

    Also the client-side recompute helper: an external auditor rebuilds
    ``record_hash`` as ``payload_hash(record_core(fetched_record))`` with
    no repro imports beyond this function's definition.
    """
    return {name: payload[name] for name in CORE_FIELDS}


@dataclass(frozen=True)
class DecisionRecord:
    """One select's canonical audit record (see the module docs)."""

    decision_id: int
    worker: str
    k: int
    cells: Tuple[Cell, ...]
    gains: Tuple[float, ...]
    epoch: int
    answers_seen: int
    answers_total: int
    staleness: int
    candidates: int
    model_hash: str
    prev_hash: str
    record_hash: str

    def core_payload(self) -> dict:
        """The JSON-safe payload ``record_hash`` is computed over."""
        return {
            "decision_id": int(self.decision_id),
            "worker": self.worker,
            "k": int(self.k),
            "cells": [[int(row), int(col)] for row, col in self.cells],
            "gains": [float(gain) for gain in self.gains],
            "epoch": int(self.epoch),
            "answers_seen": int(self.answers_seen),
            "answers_total": int(self.answers_total),
            "staleness": int(self.staleness),
            "candidates": int(self.candidates),
            "model_hash": self.model_hash,
            "prev_hash": self.prev_hash,
        }

    def to_dict(self) -> dict:
        payload = self.core_payload()
        payload["record_hash"] = self.record_hash
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionRecord":
        """Parse :meth:`to_dict`'s form; any other key (the ``shards``
        lineage of older ledgers) is ignored."""
        return cls(
            decision_id=int(payload["decision_id"]),
            worker=str(payload["worker"]),
            k=int(payload["k"]),
            cells=tuple(
                (int(row), int(col)) for row, col in payload["cells"]
            ),
            gains=tuple(float(gain) for gain in payload["gains"]),
            epoch=int(payload["epoch"]),
            answers_seen=int(payload["answers_seen"]),
            answers_total=int(payload["answers_total"]),
            staleness=int(payload["staleness"]),
            candidates=int(payload["candidates"]),
            model_hash=str(payload["model_hash"]),
            prev_hash=str(payload["prev_hash"]),
            record_hash=str(payload["record_hash"]),
        )


class DecisionRecorder:
    """Builds and chains :class:`DecisionRecord`\\ s for one session.

    Thread-safe; one instance per session, attached to the *outermost*
    serving policy via ``set_recorder`` (inner wrappers never record, so
    each select yields exactly one record).  ``sink`` — when set by a
    durable session — receives every live record for WAL persistence.
    ``audit_format`` picks the model-hash scheme (see the module docs).
    """

    def __init__(
        self, strategy: Optional[str] = None, audit_format: int = AUDIT_FORMAT
    ) -> None:
        if audit_format not in AUDIT_FORMATS:
            raise ConfigurationError(
                f"Unknown audit format {audit_format!r}; expected one of "
                f"{list(AUDIT_FORMATS)}"
            )
        #: The assignment strategy this chain is bound to (``None`` and
        #: ``"paper"`` are the default selector; see :func:`strategy_genesis`).
        self.strategy = None if strategy in (None, "paper") else str(strategy)
        #: The audit format of this chain (fixed for its lifetime).
        self.audit_format = int(audit_format)
        self._genesis = strategy_genesis(strategy)
        self._lock = threading.Lock()
        self._records: List[DecisionRecord] = []
        self._head = self._genesis
        self._epoch = -1
        self._last_answers_seen: Optional[int] = None
        self._hash_cache: Tuple[Optional[int], Optional[str]] = (None, None)
        self._replaying = False
        self._pending: Optional[DecisionRecord] = None
        self.sink: Optional[Callable[[DecisionRecord], None]] = None
        self.replay_verified = 0
        self.replay_mismatches = 0

    # -- introspection --------------------------------------------------------

    @property
    def count(self) -> int:
        """Records chained so far."""
        with self._lock:
            return len(self._records)

    @property
    def chain_head(self) -> str:
        """Hex digest pinning the whole decision history (genesis if empty)."""
        with self._lock:
            return self._head

    def get(self, decision_id: int) -> DecisionRecord:
        """Record ``decision_id`` (raises :class:`KeyError` when absent)."""
        with self._lock:
            if 0 <= decision_id < len(self._records):
                return self._records[decision_id]
        raise KeyError(f"no decision record {decision_id}")

    def page(
        self, since: int = 0, limit: int = DEFAULT_PAGE_LIMIT
    ) -> List[DecisionRecord]:
        """Up to ``limit`` records with ``decision_id >= since``."""
        since = max(0, int(since))
        limit = max(0, min(int(limit), MAX_PAGE_LIMIT))
        with self._lock:
            return list(self._records[since:since + limit])

    # -- recording ------------------------------------------------------------

    def model_hash_for(self, answers_seen: int, result) -> str:
        """Model-state hash at this chain's format, cached per ``answers_seen``.

        Within one session a given ``answers_seen`` maps to exactly one
        model state (the warm-start chain is deterministic), so the hash
        only needs recomputing when the serving state advances.
        """
        cached_seen, cached_hash = self._hash_cache
        if cached_seen == answers_seen and cached_hash is not None:
            return cached_hash
        digest = model_state_hash(result, self.audit_format)
        self._hash_cache = (answers_seen, digest)
        return digest

    def record(
        self,
        assignment,
        *,
        answers_seen: int,
        answers_total: int,
        candidates: int,
        result=None,
    ) -> Optional[DecisionRecord]:
        """Chain one select's record (``assignment`` is a BatchAssignment).

        ``result`` is the serving model state, hashed here (cached per
        ``answers_seen``).  In replay mode the record is computed but *not*
        committed — it is held for comparison against the logged record
        that follows.
        """
        with self._lock:
            model_hash = self.model_hash_for(int(answers_seen), result)
            epoch = self._epoch
            if self._last_answers_seen != int(answers_seen):
                epoch += 1
            core = {
                "decision_id": len(self._records),
                "worker": assignment.worker,
                "k": len(assignment.cells),
                "cells": [[int(row), int(col)] for row, col in assignment.cells],
                "gains": [float(gain) for gain in assignment.gains],
                "epoch": int(epoch),
                "answers_seen": int(answers_seen),
                "answers_total": int(answers_total),
                "staleness": int(answers_total) - int(answers_seen),
                "candidates": int(candidates),
                "model_hash": model_hash,
                "prev_hash": self._head,
            }
            record = DecisionRecord.from_dict(
                {**core, "record_hash": payload_hash(core)}
            )
            if self._replaying:
                self._pending = record
                return record
            self._commit(record)
        if self.sink is not None:
            self.sink(record)
        return record

    def _commit(self, record: DecisionRecord) -> None:
        self._records.append(record)
        self._head = record.record_hash
        self._epoch = record.epoch
        self._last_answers_seen = record.answers_seen

    # -- WAL replay -----------------------------------------------------------

    def begin_replay(self) -> None:
        """Enter replay mode: recomputed records are held, not committed."""
        with self._lock:
            self._replaying = True
            self._pending = None

    def end_replay(self) -> None:
        """Leave replay mode, dropping any uncommitted recompute.

        A dangling recompute (a replayed select whose logged decision
        record never made it to disk) is discarded: the decision never
        committed, and the recovery driver's re-issued select will record
        it fresh under the same id.
        """
        with self._lock:
            self._replaying = False
            self._pending = None

    def apply_logged(self, payload: dict) -> None:
        """Restore one logged decision record, verifying the recompute.

        Called by the durable session for every replayed ``decision`` WAL
        record.  If the preceding replayed select recomputed a record for
        the same id, the two hashes are compared (``replay_verified`` /
        ``replay_mismatches``); chain-continuity breaks (wrong id or
        ``prev_hash``) also count as mismatches.  The *logged* record is
        then committed verbatim, so a mismatch is visible, not fatal.
        """
        record = DecisionRecord.from_dict(payload)
        with self._lock:
            pending, self._pending = self._pending, None
            if pending is not None and pending.decision_id == record.decision_id:
                if pending.record_hash == record.record_hash:
                    self.replay_verified += 1
                else:
                    self.replay_mismatches += 1
            if (
                record.decision_id != len(self._records)
                or record.prev_hash != self._head
            ):
                self.replay_mismatches += 1
            self._commit(record)

    # -- durability -----------------------------------------------------------

    def state(self) -> dict:
        """JSON-safe audit state for snapshot embedding (full history)."""
        with self._lock:
            return {
                "format": self.audit_format,
                "strategy": self.strategy,
                "chain_head": self._head,
                "epoch": self._epoch,
                "answers_seen": self._last_answers_seen,
                "records": [record.to_dict() for record in self._records],
            }

    def restore(self, state: dict) -> None:
        """Re-seat the audit state captured by :meth:`state`.

        The strategy binding (and with it the chain genesis) is a
        construction-time property — recovery rebuilds the recorder from
        the same pinned spec, so a restored empty chain re-heads at this
        recorder's own genesis, never the persisted one.  The audit format
        is one too: a state persisted at another format raises
        :class:`DurabilityError` instead of forking the chain's hash
        scheme.
        """
        persisted = int(state.get("format", self.audit_format))
        if persisted != self.audit_format:
            raise DurabilityError(
                f"audit state was written at format {persisted} but this "
                f"session chains at format {self.audit_format}"
            )
        with self._lock:
            self._records = [
                DecisionRecord.from_dict(payload)
                for payload in state.get("records", [])
            ]
            self._head = str(state.get("chain_head", self._genesis))
            self._epoch = int(state.get("epoch", -1))
            seen = state.get("answers_seen")
            self._last_answers_seen = None if seen is None else int(seen)
            self._hash_cache = (None, None)
            self._pending = None
