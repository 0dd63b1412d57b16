"""Asynchronous truth-inference refits for the online assignment loop.

The synchronous engine refits :class:`~repro.core.inference.TCrowdModel` on
the select path: every worker arrival pays for an EM refit before any cell
can be scored.  Production task-assignment servers instead run inference in
a background worker and serve assignments from the latest completed model,
accepting bounded staleness in exchange for a select path that never blocks
on EM.  This module is that worker:

* :class:`ModelSnapshot` — an immutable, epoch-numbered
  :class:`~repro.core.inference.InferenceResult` plus the number of answers
  it has seen.  Snapshots are published by a single atomic reference swap,
  so the serving path reads them lock-free (CPython guarantees the
  reference read is atomic; immutability guarantees what it points at never
  changes underneath the reader).
* :class:`AsyncRefitEngine` — owns the refit schedule.  ``notify`` requests
  a background refit (requests coalesce: only the newest answer count is
  fitted), ``result_for`` returns the model the select path should score
  with, blocking for a catch-up refit only when the snapshot has fallen
  more than ``max_stale_answers`` answers behind.
* :class:`VirtualClock` — a deterministic, synchronous drop-in for the
  background thread: submitted refits run inline, exactly when a test calls
  :meth:`VirtualClock.run_pending`, so async tests are reproducible without
  sleeps or races.
* :class:`AsyncRefitPolicy` — the policy wrapper plugging the engine behind
  the same :class:`~repro.core.assignment.AssignmentPolicy` seam the
  platform loop already drives, with a scoring cache that reuses one gain
  calculator across selects served from the same snapshot and answer
  prefix.

The bounded-staleness contract: with ``max_stale_answers=0`` no background
refit is ever scheduled and every select blocks until the model is within
the refit cadence of the collected answers — reproducing the synchronous
engine's fit chain, and therefore its assignment sequence, bit for bit at
any ``refit_every`` (the golden-trace tests and the benchmark's
``identical_assignments_async`` bit pin this).  With a positive bound the
select path serves stale snapshots lock-free while the worker catches up,
and only a snapshot more than ``max_stale_answers`` answers behind forces a
blocking refit.  ``None`` means unbounded staleness.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.answers import AnswerSet
from repro.core.assignment import (
    AssignmentPolicy,
    BatchAssignment,
    TCrowdAssigner,
    refit_model,
    top_k_stable,
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
    exact prefix the model has seen).
    """

    epoch: int
    result: InferenceResult
    answers_seen: int

    def staleness(self, answers: AnswerSet) -> int:
        """Number of collected answers this snapshot has not seen."""
        return len(answers) - self.answers_seen


class VirtualClock:
    """Deterministic synchronous scheduler used by async tests.

    Jobs submitted by the engine queue up instead of running on a thread;
    :meth:`run_pending` executes them inline, in submission order, at the
    exact point the test chooses.  This makes every async scenario —
    snapshot published late, staleness bound tripping, requests coalescing —
    a plain sequential program.
    """

    def __init__(self) -> None:
        self._pending: deque = deque()
        self._closed = False

    @property
    def pending_jobs(self) -> int:
        """Number of submitted jobs not yet run."""
        return len(self._pending)

    def submit(self, job: Callable[[], None]) -> None:
        """Queue ``job`` to run at the next :meth:`run_pending`."""
        if self._closed:
            raise ConfigurationError("Cannot submit to a closed VirtualClock")
        self._pending.append(job)

    def run_pending(self) -> int:
        """Run every queued job inline; return how many ran."""
        ran = 0
        while self._pending:
            job = self._pending.popleft()
            job()
            ran += 1
        return ran

    # The engine drives real and virtual schedulers through one protocol.
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Synchronous alias of :meth:`run_pending`; always 'drains'."""
        self.run_pending()
        return True

    def close(self) -> None:
        """Drop queued jobs and refuse further submissions."""
        self._pending.clear()
        self._closed = True


class _RefitWorker:
    """One daemon thread executing submitted jobs in submission order."""

    def __init__(self, name: str = "refit-worker") -> None:
        self._cond = threading.Condition()
        self._jobs: deque = deque()
        self._busy = False
        self._closed = False
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    def submit(self, job: Callable[[], None]) -> None:
        with self._cond:
            if self._closed:
                raise ConfigurationError("Cannot submit to a closed refit worker")
            self._jobs.append(job)
            self._cond.notify_all()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._jobs and not self._closed:
                    self._cond.wait()
                if not self._jobs and self._closed:
                    return
                job = self._jobs.popleft()
                self._busy = True
            try:
                job()
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no job is running."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._jobs or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
            return True

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)


class AsyncRefitEngine:
    """Run truth-inference refits off the select path, behind snapshots.

    Parameters
    ----------
    model:
        The truth-inference model (any object accepted by
        :func:`~repro.core.assignment.refit_model`).
    schema:
        Table schema the answers refer to.
    refit_every:
        A background refit is requested once the snapshot is at least this
        many answers behind (mirrors
        :class:`~repro.core.assignment.TCrowdAssigner`'s cadence).
    max_stale_answers:
        The bounded-staleness knob.  ``0`` — background refits are disabled
        and every select blocks until the model is within the refit
        cadence of the collected answers (the synchronous-equivalent
        mode).  A positive bound — selects serve the
        latest snapshot lock-free until it falls more than this many
        answers behind, then one blocking catch-up refit runs.  ``None`` —
        unbounded; selects never block once a first snapshot exists.
    warm_start:
        Warm-start every refit from the previous snapshot's result.
    tol:
        Objective-based early-stopping tolerance for warm-started refits
        (see :meth:`~repro.core.inference.TCrowdModel.fit`); applied only
        when a previous snapshot exists, so the first (cold) fit keeps the
        full iteration budget.
    clock:
        ``None`` starts a private background worker thread.  Pass a
        :class:`VirtualClock` to make every background refit run
        synchronously at :meth:`VirtualClock.run_pending` time (the
        deterministic test mode).  The engine closes a clock it created;
        an injected clock stays open.
    """

    def __init__(
        self,
        model,
        schema: TableSchema,
        refit_every: int = 1,
        max_stale_answers: Optional[int] = 0,
        warm_start: bool = True,
        tol: Optional[float] = None,
        clock=None,
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
        self.tol = None if tol is None else float(tol)
        self._owns_clock = clock is None
        self._clock = _RefitWorker() if clock is None else clock
        # The snapshot reference is the one piece of shared state the serving
        # path touches: published by assignment under _fit_lock, read without
        # any lock (atomic reference load of an immutable object).
        self._snapshot: Optional[ModelSnapshot] = None
        self._fit_lock = threading.Lock()
        self._request_lock = threading.Lock()
        self._pending: Optional[Tuple[AnswerSet, int]] = None
        self._background_error: Optional[BaseException] = None
        self.blocking_refits = 0
        self.background_refits = 0
        self.profile: Optional[HotPathProfile] = None
        self._closed = False

    def set_profile(self, profile: Optional[HotPathProfile]) -> None:
        """Attach a :class:`HotPathProfile` recording ``lock_wait`` /
        ``em_refit`` stage timings for every refit this engine runs."""
        self.profile = profile

    # -- lock-free reads -----------------------------------------------------

    @property
    def snapshot(self) -> Optional[ModelSnapshot]:
        """Latest published snapshot (lock-free; ``None`` before any fit)."""
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

    # -- scheduling ----------------------------------------------------------

    def notify(self, answers: AnswerSet) -> None:
        """Request a background refit if the snapshot is ``refit_every`` behind.

        Requests coalesce: however many arrive while a fit is running, the
        worker fits the newest answer count once.  In the
        ``max_stale_answers=0`` mode this is a no-op — every refit happens
        blocking on the select path, preserving the synchronous fit chain.
        """
        self._raise_background_error()
        if self._closed or self.max_stale_answers == 0:
            return
        snapshot = self._snapshot
        if snapshot is not None and snapshot.staleness(answers) < self.refit_every:
            return
        with self._request_lock:
            first = self._pending is None
            # Keep a reference to the live answer set plus the count to fit;
            # the worker freezes that prefix itself, off the serving path
            # (answers are append-only, so indexes < count are stable).
            self._pending = (answers, len(answers))
        if first:
            self._clock.submit(self._run_pending)

    def _run_pending(self) -> None:
        """Worker-side job: freeze the newest requested prefix and fit it."""
        with self._request_lock:
            request, self._pending = self._pending, None
        if request is None:
            return
        answers, count = request
        snapshot = self._snapshot
        if snapshot is not None and count <= snapshot.answers_seen:
            return
        try:
            frozen = AnswerSet(answers.schema, [answers[i] for i in range(count)])
            with self._fit_lock:
                snapshot = self._snapshot
                if snapshot is not None and count <= snapshot.answers_seen:
                    return
                with _stage(self.profile, "em_refit"):
                    result = self._fit(frozen, snapshot)
                self.background_refits += 1
                self._publish(result, count)
        except BaseException as exc:  # surfaced on the next serving call
            self._background_error = exc

    # -- serving -------------------------------------------------------------

    def result_for(self, answers: AnswerSet) -> InferenceResult:
        """The model the select path should score ``answers`` with.

        See :meth:`snapshot_for` for the staleness contract.
        """
        return self.snapshot_for(answers).result

    def snapshot_for(self, answers: AnswerSet) -> ModelSnapshot:
        """The snapshot the select path should score ``answers`` with.

        Lock-free unless the snapshot is missing or too stale, in which
        case one blocking catch-up refit runs before returning.  "Too
        stale" honours both knobs: the staleness bound *and* the refit
        cadence — the synchronous assigner itself serves a model up to
        ``refit_every - 1`` answers old between cadence refits, so the
        blocking threshold is ``max(max_stale_answers, refit_every - 1)``.
        That is what makes ``max_stale_answers=0`` reproduce the
        synchronous fit chain at any ``refit_every``, not just 1.

        Returning the whole :class:`ModelSnapshot` (rather than just its
        result) gives callers a consistent ``(epoch, result,
        answers_seen)`` read off one atomic reference — the key
        :class:`AsyncRefitPolicy`'s scoring cache is indexed by.
        """
        self._raise_background_error()
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
        """Blocking refit bringing the snapshot fully up to date."""
        self._raise_background_error()
        count = len(answers)
        with _stage(self.profile, "lock_wait"):
            self._fit_lock.acquire()
        try:
            snapshot = self._snapshot
            if snapshot is not None and snapshot.answers_seen >= count:
                # A background fit caught us up while we waited for the lock.
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
        """One refit, warm-started and tolerance-stopped per the knobs."""
        tol = self.tol if (self.warm_start and previous is not None) else None
        return refit_model(
            self.model,
            self.schema,
            answers,
            previous=previous.result if previous is not None else None,
            warm_start=self.warm_start,
            tol=tol,
        )

    def _publish(self, result: InferenceResult, answers_seen: int) -> None:
        """Swap in a new immutable snapshot (caller holds ``_fit_lock``)."""
        previous = self._snapshot
        epoch = 0 if previous is None else previous.epoch + 1
        self._snapshot = ModelSnapshot(
            epoch=epoch, result=result, answers_seen=answers_seen
        )

    def _raise_background_error(self) -> None:
        error, self._background_error = self._background_error, None
        if error is not None:
            raise error

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for (or, with a :class:`VirtualClock`, run) pending refits."""
        done = self._clock.drain(timeout=timeout)
        self._raise_background_error()
        return done

    def close(self) -> None:
        """Shut down an engine-owned worker thread (idempotent)."""
        self._closed = True
        if self._owns_clock:
            self._clock.close()

    def __enter__(self) -> "AsyncRefitEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncRefitPolicy(AssignmentPolicy):
    """Serve a :class:`TCrowdAssigner`'s policy from async refit snapshots.

    Candidate filtering uses the same incremental
    :class:`~repro.engine.SessionState` as the wrapped assigner; scoring
    uses the wrapped assigner's gain calculators, built over whatever
    :class:`ModelSnapshot` the engine serves — the only behavioural
    difference to the synchronous policy is *which* inference result scores
    a select, exactly as bounded by ``max_stale_answers``.

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
        reused.  Monte-Carlo gain estimation (``continuous_samples > 0``)
        consumes an ordered sample stream whose draws would interleave
        nondeterministically with background refits and is rejected.
    max_stale_answers:
        See :class:`AsyncRefitEngine`.
    clock:
        See :class:`AsyncRefitEngine`; pass a :class:`VirtualClock` for
        deterministic tests.
    """

    def __init__(
        self,
        inner: TCrowdAssigner,
        max_stale_answers: Optional[int] = 0,
        clock=None,
    ) -> None:
        super().__init__(
            inner.schema,
            max_answers_per_cell=inner.max_answers_per_cell,
            incremental=True,
        )
        if inner.continuous_samples:
            raise ConfigurationError(
                "AsyncRefitPolicy requires the closed-form gain path "
                "(continuous_samples=0); the Monte-Carlo estimator consumes "
                "an ordered sample stream that async refits would reorder"
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
            tol=inner.refit_tol,
            clock=clock,
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

    def close(self) -> None:
        """Shut down the engine's background worker (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "AsyncRefitPolicy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        candidates = self.candidate_cells(worker, answers)
        if not candidates:
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        with _stage(self.profile, "snapshot_acquire"):
            snapshot = self.engine.snapshot_for(answers)
        calculator = self._scoring_calculator(snapshot, answers)
        with _stage(self.profile, "gains_batch"):
            gains = calculator.gains_batch(worker, candidates)
        with _stage(self.profile, "top_k_merge"):
            order = top_k_stable(gains, k).tolist()
        assignment = BatchAssignment(
            worker,
            tuple(candidates[index] for index in order),
            tuple(float(gains[index]) for index in order),
        )
        if self._recorder is not None:
            self._record_decision(
                assignment,
                answers_seen=snapshot.answers_seen,
                answers_total=len(answers),
                candidates=len(candidates),
                result=snapshot.result,
            )
        return assignment

    def observe(self, answers: AnswerSet) -> None:
        """Request a background refit for the newly arrived answers."""
        self.engine.notify(answers)

    def final_result(self, answers: AnswerSet) -> InferenceResult:
        """Blocking catch-up fit over all answers (end-of-session estimates)."""
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
