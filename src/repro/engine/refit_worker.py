"""Bounded-staleness truth-inference refits for the online assignment loop.

The synchronous engine refits :class:`~repro.core.inference.TCrowdModel`
whenever new answers arrive, so every answer batch pays for an EM refit.
This module serves assignments from the latest fitted model instead and
refits it only once it has fallen too far behind the collected answers:

* :class:`ModelSnapshot` — an immutable, epoch-numbered
  :class:`~repro.core.inference.InferenceResult` plus the number of answers
  it has seen.
* :class:`AsyncRefitEngine` — owns the refit schedule.
  :meth:`~AsyncRefitEngine.snapshot_for` returns the snapshot the select
  path should score with, refitting inline first when the snapshot is
  missing or too stale.
* :class:`AsyncRefitPolicy` — the policy wrapper plugging the engine behind
  the same :class:`~repro.core.assignment.AssignmentPolicy` seam the
  platform loop already drives, with a scoring cache that reuses one gain
  calculator across selects served from the same snapshot and answer
  prefix.

The ``async`` names (this module's classes and ``serving.async_refit``) are
kept for clients and benchmark tooling; no thread is involved.  EM simply
runs on the select path instead of the answer path.

The bounded-staleness contract: a select refits inline when the snapshot
trails the collected answers by more than ``max(max_stale_answers,
refit_every - 1)`` and otherwise scores the snapshot it has.  With
``max_stale_answers=0`` that reproduces the synchronous engine's fit chain,
and therefore its assignment sequence, bit for bit at any ``refit_every``
(the golden-trace tests pin this).  With a positive bound a select serves
a stale snapshot until the bound trips, then one catch-up refit runs.
``None`` means unbounded staleness: once a snapshot exists, only
:meth:`AsyncRefitPolicy.final_result` advances the model.  Which selects
refit is a deterministic function of the request sequence at every bound,
so a durable session replays exactly at any bound (with closed-form gains;
see :mod:`repro.service.wal`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.answers import AnswerSet
from repro.core.assignment import (
    AssignmentPolicy,
    BatchAssignment,
    TCrowdAssigner,
    rank_candidates,
    refit_model,
)
from repro.core.inference import InferenceResult
from repro.core.schema import TableSchema
from repro.engine.profiling import HotPathProfile
from repro.engine.profiling import stage as _stage
from repro.utils.exceptions import AssignmentError, ConfigurationError

Cell = Tuple[int, int]


@dataclass(frozen=True)
class ModelSnapshot:
    """An immutable, epoch-numbered truth-inference result.

    ``epoch`` increases by one per published refit; ``answers_seen`` is the
    size of the answer set the fit ran over, which is what staleness is
    measured against (answers are append-only, so the count identifies the
    exact prefix the model has seen).  Immutability lets a durable session
    persist a snapshot and re-seat it after a restart unchanged.
    """

    epoch: int
    result: InferenceResult
    answers_seen: int

    def staleness(self, answers: AnswerSet) -> int:
        """Number of collected answers this snapshot has not seen."""
        return len(answers) - self.answers_seen


class AsyncRefitEngine:
    """Serve truth-inference results as snapshots, refitting when too stale.

    Parameters
    ----------
    model:
        The truth-inference model (any object accepted by
        :func:`~repro.core.assignment.refit_model`).
    schema:
        Table schema the answers refer to.
    refit_every:
        The refit cadence (mirrors
        :class:`~repro.core.assignment.TCrowdAssigner`'s): a snapshot up to
        ``refit_every - 1`` answers behind is always fresh enough.
    max_stale_answers:
        The bounded-staleness knob.  ``0`` — every select refits until the
        model is within the refit cadence of the collected answers (the
        synchronous-equivalent mode).  A positive bound — selects serve
        the latest snapshot until it falls more than this many answers
        behind, then one inline catch-up refit runs.  ``None`` —
        unbounded; selects never refit once a first snapshot exists.
    warm_start:
        Warm-start every refit from the previous snapshot's result.  A
        warm-started :class:`~repro.core.inference.TCrowdModel` runs its
        ``warm_iterations`` budget; the first fit is cold and runs
        ``max_iterations``.
    """

    def __init__(
        self,
        model,
        schema: TableSchema,
        refit_every: int = 1,
        max_stale_answers: Optional[int] = 0,
        warm_start: bool = True,
    ) -> None:
        if refit_every < 1:
            raise ConfigurationError(f"refit_every must be >= 1, got {refit_every}")
        if max_stale_answers is not None and max_stale_answers < 0:
            raise ConfigurationError(
                f"max_stale_answers must be >= 0 or None, got {max_stale_answers}"
            )
        self.model = model
        self.schema = schema
        self.refit_every = int(refit_every)
        self.max_stale_answers = (
            None if max_stale_answers is None else int(max_stale_answers)
        )
        self.warm_start = bool(warm_start)
        self._snapshot: Optional[ModelSnapshot] = None
        # Refits and restores publish under this lock; its wait is the
        # ``lock_wait`` stage.
        self._fit_lock = threading.Lock()
        self.blocking_refits = 0
        self.profile: Optional[HotPathProfile] = None

    def set_profile(self, profile: Optional[HotPathProfile]) -> None:
        """Attach a :class:`HotPathProfile` recording ``lock_wait`` /
        ``em_refit`` stage timings for every refit this engine runs."""
        self.profile = profile

    # -- reads ---------------------------------------------------------------

    @property
    def snapshot(self) -> Optional[ModelSnapshot]:
        """Latest published snapshot (``None`` before any fit)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Epoch of the latest snapshot (-1 before any fit)."""
        snapshot = self._snapshot
        return -1 if snapshot is None else snapshot.epoch

    def staleness(self, answers: AnswerSet) -> int:
        """Answers collected that the latest snapshot has not seen."""
        snapshot = self._snapshot
        if snapshot is None:
            return len(answers)
        return snapshot.staleness(answers)

    # -- serving -------------------------------------------------------------

    def snapshot_for(self, answers: AnswerSet) -> ModelSnapshot:
        """The snapshot the select path should score ``answers`` with.

        Returns the latest snapshot unless it is missing or too stale, in
        which case one inline catch-up refit runs first.  "Too stale"
        honours both knobs: the staleness bound *and* the refit cadence —
        the synchronous assigner itself serves a model up to
        ``refit_every - 1`` answers old between cadence refits, so the
        refit threshold is ``max(max_stale_answers, refit_every - 1)``.
        That is what makes ``max_stale_answers=0`` reproduce the
        synchronous fit chain at any ``refit_every``, not just 1.

        Returning the whole :class:`ModelSnapshot` (rather than just its
        result) gives callers a consistent ``(epoch, result,
        answers_seen)`` triple — the key :class:`AsyncRefitPolicy`'s
        scoring cache is indexed by.
        """
        snapshot = self._snapshot
        if snapshot is not None:
            if self.max_stale_answers is None:
                return snapshot
            threshold = max(self.max_stale_answers, self.refit_every - 1)
            if snapshot.staleness(answers) <= threshold:
                return snapshot
        return self.refit_now(answers)

    def restore(
        self, result: InferenceResult, answers_seen: int, epoch: Optional[int] = None
    ) -> ModelSnapshot:
        """Publish a previously persisted result as the served snapshot.

        The durable-recovery entry point: the service layer's write-ahead
        log deserialises the model state it snapshotted and re-seats it
        here, after which selects and catch-up refits continue the very
        same warm-start chain the crashed process was on.  ``epoch``
        defaults to one past the current epoch (0 on a fresh engine).
        """
        with self._fit_lock:
            if epoch is None:
                epoch = self.epoch + 1
            self._snapshot = ModelSnapshot(
                epoch=int(epoch),
                result=result,
                answers_seen=int(answers_seen),
            )
            return self._snapshot

    def refit_now(self, answers: AnswerSet) -> ModelSnapshot:
        """Refit now, bringing the snapshot fully up to date."""
        count = len(answers)
        with _stage(self.profile, "lock_wait"):
            self._fit_lock.acquire()
        try:
            snapshot = self._snapshot
            if snapshot is not None and snapshot.answers_seen >= count:
                return snapshot
            with _stage(self.profile, "em_refit"):
                result = self._fit(answers, snapshot)
            self.blocking_refits += 1
            self._publish(result, count)
            return self._snapshot
        finally:
            self._fit_lock.release()

    # -- internals -----------------------------------------------------------

    def _fit(
        self, answers: AnswerSet, previous: Optional[ModelSnapshot]
    ) -> InferenceResult:
        """One refit, warm-started per the knob."""
        return refit_model(
            self.model,
            self.schema,
            answers,
            previous=previous.result if previous is not None else None,
            warm_start=self.warm_start,
        )

    def _publish(self, result: InferenceResult, answers_seen: int) -> None:
        """Swap in a new immutable snapshot (caller holds ``_fit_lock``)."""
        previous = self._snapshot
        epoch = 0 if previous is None else previous.epoch + 1
        self._snapshot = ModelSnapshot(
            epoch=epoch, result=result, answers_seen=answers_seen
        )


class AsyncRefitPolicy(AssignmentPolicy):
    """Serve a :class:`TCrowdAssigner`'s policy from bounded-stale snapshots.

    Candidate filtering is the shared :class:`AssignmentPolicy` one; scoring
    uses the wrapped assigner's gain calculators, built over whatever
    :class:`ModelSnapshot` the engine serves — the only behavioural
    difference to the synchronous policy is *which* inference result scores
    a select, exactly as bounded by ``max_stale_answers``.  Answers arriving
    fit nothing: :meth:`observe` is the inherited no-op, and EM runs on the
    select path when the bound trips or in :meth:`final_result`.

    **Scoring cache.**  A gain calculator is a pure function of the
    snapshot's result and the answer prefix it scores over; with answers
    append-only, ``(epoch, len(answers))`` identifies both.  The policy
    keeps the last calculator under that key and rebuilds it only when a
    refit publishes a new epoch or new answers arrive, so repeat selects
    against an unchanged state (several workers polling between answer
    batches) skip the structure-model fit.  A hit returns exactly the
    object a rebuild would produce; :meth:`restore_state` clears the cache
    because restored epoch numbering restarts.  Selects run under the
    caller's session lock, so the cache needs no lock of its own.

    Parameters
    ----------
    inner:
        The assigner whose model, gain configuration and refit cadence are
        reused.
    max_stale_answers:
        See :class:`AsyncRefitEngine`.
    """

    def __init__(
        self,
        inner: TCrowdAssigner,
        max_stale_answers: Optional[int] = 0,
    ) -> None:
        super().__init__(
            inner.schema, max_answers_per_cell=inner.max_answers_per_cell
        )
        self.inner = inner
        self.profile: Optional[HotPathProfile] = None
        self._cached_key: Optional[Tuple[int, int]] = None
        self._cached_calculator = None
        self.scoring_cache_hits = 0
        self.scoring_cache_misses = 0
        self.engine = AsyncRefitEngine(
            inner.model,
            inner.schema,
            refit_every=inner.refit_every,
            max_stale_answers=max_stale_answers,
            warm_start=inner.warm_start,
        )

    def set_profile(self, profile: Optional[HotPathProfile]) -> None:
        """Attach a :class:`HotPathProfile` to the policy and its engine."""
        self.profile = profile
        self.engine.set_profile(profile)

    @property
    def name(self) -> str:
        return f"{self.inner.name} [async refit]"

    @property
    def last_result(self) -> Optional[InferenceResult]:
        """The latest snapshot's inference result (None before any fit)."""
        snapshot = self.engine.snapshot
        return None if snapshot is None else snapshot.result

    # -- policy --------------------------------------------------------------

    def _scoring_calculator(self, snapshot: ModelSnapshot, answers: AnswerSet):
        """The calculator scoring ``answers`` with ``snapshot``, cached."""
        key = (snapshot.epoch, len(answers))
        if key == self._cached_key:
            self.scoring_cache_hits += 1
            return self._cached_calculator
        # Release the stale calculator before building its successor, so
        # at most one is alive at a time.
        self._cached_key = self._cached_calculator = None
        with _stage(self.profile, "calculator_build"):
            calculator = self.inner.calculator_for(snapshot.result, answers)
        self.scoring_cache_misses += 1
        self._cached_key = key
        self._cached_calculator = calculator
        return calculator

    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        """Assign the top-``k`` cells, scored with the served snapshot."""
        if k < 1:
            raise AssignmentError(f"k must be >= 1, got {k}")
        if len(answers) == 0:
            raise AssignmentError(
                "T-Crowd assignment needs at least one collected answer; "
                "seed each task with initial answers first (Algorithm 2, line 1)"
            )
        candidates = self.candidate_array(worker, answers)
        if not len(candidates):
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        with _stage(self.profile, "snapshot_acquire"):
            snapshot = self.engine.snapshot_for(answers)
        calculator = self._scoring_calculator(snapshot, answers)
        assignment = rank_candidates(calculator, worker, candidates, k, self.profile)
        if self._recorder is not None:
            self._record_decision(
                assignment,
                answers_seen=snapshot.answers_seen,
                answers_total=len(answers),
                candidates=len(candidates),
                result=snapshot.result,
            )
        return assignment

    def final_result(self, answers: AnswerSet) -> InferenceResult:
        """Catch-up fit over all answers (end-of-session estimates)."""
        return self.engine.refit_now(answers).result

    # -- durability ----------------------------------------------------------

    def snapshot_state(self) -> Optional[Tuple[InferenceResult, int]]:
        """``(result, answers_seen)`` of the served snapshot (durable protocol)."""
        snapshot = self.engine.snapshot
        if snapshot is None:
            return None
        return snapshot.result, snapshot.answers_seen

    def restore_state(self, result: InferenceResult, answers_seen: int) -> None:
        """Re-seat a persisted snapshot (see :meth:`AsyncRefitEngine.restore`).

        Drops the scoring cache: the restored epoch numbering restarts, so
        a stale ``(epoch, answers_seen)`` key could otherwise collide.
        """
        self._cached_key = self._cached_calculator = None
        self.engine.restore(result, answers_seen)
