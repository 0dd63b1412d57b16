"""Online task assignment (Section 5, Algorithm 2).

:class:`AssignmentPolicy` is the interface shared by T-Crowd and all the
baseline assigners (CDAS, AskIt!, random, looping, entropy): given an
incoming worker and the answers collected so far, pick the next cell(s) to
assign.  :class:`TCrowdAssigner` implements the paper's policy — rank every
candidate cell by (structure-aware) information gain and greedily take the
top K (Eq. 9).

The online loop runs on the incremental engine layer
(:mod:`repro.engine`): candidate filtering consults a
:class:`~repro.engine.SessionState` updated O(1) per new answer, refits are
warm-started from the previous :class:`~repro.core.inference.InferenceResult`,
and gains are scored in one vectorised batch.  Every fast path has a
compatibility switch (``incremental`` / ``warm_start`` / ``vectorized``) that
restores the from-scratch behaviour of the seed implementation; the
benchmarks use those switches to verify that both paths take identical
assignment decisions.

One deliberate behaviour change sits outside the switches: the Monte-Carlo
gain estimator (``continuous_samples > 0``) now draws from a single
persistent generator shared by every calculator this assigner builds.  The
seed implementation re-created the generator per ``select``, which with an
integer seed replayed the *same* samples on every call — the dead-seed bug
this fixes.  The closed-form path (``continuous_samples=0``, the default and
the only path the equivalence benchmark exercises) is unaffected.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.inference import InferenceResult, TCrowdModel
from repro.core.information_gain import InformationGainCalculator
from repro.core.schema import TableSchema
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.engine.state import SessionState
from repro.utils.exceptions import AssignmentError
from repro.utils.rng import as_generator

Cell = Tuple[int, int]


def refit_model(
    model,
    schema: TableSchema,
    answers: AnswerSet,
    previous: Optional[InferenceResult] = None,
    warm_start: bool = True,
    tol: Optional[float] = None,
) -> InferenceResult:
    """Run truth inference, warm-starting from ``previous`` when supported.

    Shared by every refitting policy so the warm-start contract (capability
    check + ``init=`` keyword) lives in one place.  ``tol`` requests
    objective-based early stopping (see :meth:`TCrowdModel.fit`) and is
    forwarded only to models that advertise ``supports_objective_tol`` —
    baseline models with plain ``fit(schema, answers)`` signatures are
    untouched.
    """
    init = (
        previous
        if warm_start and getattr(model, "supports_warm_start", False)
        else None
    )
    kwargs = {}
    if tol is not None and getattr(model, "supports_objective_tol", False):
        kwargs["tol"] = tol
    if init is not None:
        return model.fit(schema, answers, init=init, **kwargs)
    return model.fit(schema, answers, **kwargs)


def top_k_stable(gains: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest gains, ties broken by ascending index.

    Matches ``sorted(gains.items(), key=value, reverse=True)[:k]`` over a
    row-major candidate list (Python's sort is stable and does not reorder
    equal elements under ``reverse=True``).  For large pools an
    ``argpartition`` pre-selects the top values so only the short head is
    fully sorted.
    """
    n = len(gains)
    if k >= n:
        return np.argsort(-gains, kind="stable")
    partition = np.argpartition(-gains, k - 1)
    threshold = gains[partition[k - 1]]
    head = np.flatnonzero(gains >= threshold)
    return head[np.argsort(-gains[head], kind="stable")][:k]


@dataclass(frozen=True)
class BatchAssignment:
    """A batch of cells assigned to one worker, with their predicted gains."""

    worker: str
    cells: Tuple[Cell, ...]
    gains: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def total_gain(self) -> float:
        """Sum of the per-cell gains (the greedy approximation of Eq. 9)."""
        return float(sum(self.gains))


class AssignmentPolicy(abc.ABC):
    """Base class for online task-assignment policies.

    Subclasses implement :meth:`select`.  The base class provides candidate
    filtering: a worker is never assigned a cell they already answered, and
    cells that already collected ``max_answers_per_cell`` answers are
    excluded (the budget mechanism used by the end-to-end experiments).

    ``incremental=True`` (default) backs the filtering with a
    :class:`~repro.engine.SessionState` kept in sync with the answer set —
    O(new answers) per call instead of a full table rescan; ``False``
    restores the seed implementation's from-scratch scan.
    """

    def __init__(
        self,
        schema: TableSchema,
        max_answers_per_cell: Optional[int] = None,
        incremental: bool = True,
    ) -> None:
        self.schema = schema
        self.max_answers_per_cell = max_answers_per_cell
        self.incremental = bool(incremental)
        self._state: Optional[SessionState] = None
        self._recorder = None

    def set_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.engine.DecisionRecorder` (None detaches).

        Attached to the *outermost* serving policy only — wrappers record
        the merged decision themselves instead of forwarding the recorder
        to their inner assigner, so each select yields exactly one record.
        """
        self._recorder = recorder

    @property
    def recorder(self):
        """The attached decision recorder (None when auditing is off)."""
        return self._recorder

    def _record_decision(
        self,
        assignment: "BatchAssignment",
        *,
        answers_seen: int,
        answers_total: int,
        candidates: int,
        result=None,
    ) -> None:
        """Chain one audit record if a recorder is attached (else no-op)."""
        if self._recorder is not None:
            self._recorder.record(
                assignment,
                answers_seen=answers_seen,
                answers_total=answers_total,
                candidates=candidates,
                result=result,
            )

    @property
    def name(self) -> str:
        """Human-readable policy name (used by the experiment harnesses)."""
        return type(self).__name__

    def session_state(self, answers: AnswerSet) -> Optional[SessionState]:
        """The policy's incremental session state, synced to ``answers``.

        Returns ``None`` for policies running with ``incremental=False``.
        """
        if not self.incremental:
            return None
        if self._state is None:
            self._state = SessionState(
                self.schema, max_answers_per_cell=self.max_answers_per_cell
            )
        return self._state.sync(answers)

    def candidate_cells(self, worker: str, answers: AnswerSet) -> List[Cell]:
        """Cells this worker may still be assigned (row-major order)."""
        state = self.session_state(answers)
        if state is not None:
            return state.candidate_cells(worker)
        counts = answers.answer_counts()
        candidates: List[Cell] = []
        for i in range(self.schema.num_rows):
            for j in range(self.schema.num_columns):
                if (
                    self.max_answers_per_cell is not None
                    and counts[i, j] >= self.max_answers_per_cell
                ):
                    continue
                if answers.has_answered(worker, i, j):
                    continue
                candidates.append((i, j))
        return candidates

    @abc.abstractmethod
    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        """Select ``k`` cells to assign to ``worker`` given current answers."""

    def observe(self, answers: AnswerSet) -> None:
        """Hook called by the platform after new answers arrive (optional)."""


class TCrowdAssigner(AssignmentPolicy):
    """T-Crowd's assignment policy: top-K cells by information gain.

    Parameters
    ----------
    schema:
        Table schema.
    model:
        Truth-inference model used to refresh posteriors and worker
        qualities; defaults to :class:`TCrowdModel` with default settings.
    use_structure:
        If True (default) rank by the structure-aware gain of Section 5.2,
        otherwise by the inherent gain of Section 5.1.
    refit_every:
        Re-run full truth inference after this many newly collected answers.
        ``1`` reproduces Algorithm 2 exactly; larger values trade a little
        accuracy for speed in large simulations.
    continuous_samples:
        Forwarded to :class:`InformationGainCalculator` (0 = closed form).
    max_answers_per_cell:
        Budget cap per cell (see :class:`AssignmentPolicy`).
    seed:
        Seed for the Monte-Carlo gain estimator; defaults to the model's
        generator so one reproducible stream is shared by every calculator
        this assigner builds.
    warm_start:
        Warm-start each refit from the previous inference result (converges
        to the cold-start fixed point within the EM tolerance).  ``False``
        restores the seed implementation's cold start.
    refit_tol:
        Optional objective-based early-stopping tolerance forwarded to
        warm-started refits (see :meth:`TCrowdModel.fit`).  ``None`` (the
        default) keeps the model's fixed iteration budget, so the
        equivalence benchmarks are unaffected.
    vectorized:
        Score all candidates through :meth:`InformationGainCalculator.gains_batch`
        with stable top-K selection instead of the per-cell scalar loop.
    incremental:
        See :class:`AssignmentPolicy`.
    strategy:
        Optional :class:`~repro.strategies.AssignmentStrategy` overriding
        *what scores candidate cells* (``None``, the default, is the
        paper's gain — byte-for-byte the pre-strategy behaviour).  The
        strategy only replaces the calculator built by
        :meth:`_build_calculator`; candidate filtering, refit cadence,
        stable top-K and provenance stay shared, which is why any strategy
        serves identically through every serving mode.
        This module never imports the strategies package — the factory
        (:func:`repro.config.factory.build_assigner`) builds the object
        from ``PolicySpec.strategy`` and injects it here.
    """

    def __init__(
        self,
        schema: TableSchema,
        model: Optional[TCrowdModel] = None,
        use_structure: bool = True,
        refit_every: int = 1,
        continuous_samples: int = 0,
        max_answers_per_cell: Optional[int] = None,
        min_pairs: int = 5,
        seed=None,
        warm_start: bool = True,
        vectorized: bool = True,
        incremental: bool = True,
        refit_tol: Optional[float] = None,
        strategy=None,
    ) -> None:
        super().__init__(
            schema,
            max_answers_per_cell=max_answers_per_cell,
            incremental=incremental,
        )
        if refit_every < 1:
            raise AssignmentError(f"refit_every must be >= 1, got {refit_every}")
        self.model = model or TCrowdModel()
        self.use_structure = bool(use_structure)
        self.refit_every = int(refit_every)
        self.continuous_samples = int(continuous_samples)
        self.min_pairs = int(min_pairs)
        self.seed = seed
        self.warm_start = bool(warm_start)
        self.refit_tol = None if refit_tol is None else float(refit_tol)
        self.vectorized = bool(vectorized)
        self.strategy = strategy
        self._rng = as_generator(
            seed if seed is not None else getattr(self.model, "rng", None)
        )
        self._result: Optional[InferenceResult] = None
        self._answers_at_last_fit = -1

    @property
    def name(self) -> str:
        base = (
            "T-Crowd (structure-aware)"
            if self.use_structure
            else "T-Crowd (inherent)"
        )
        if self.strategy is not None:
            return f"{base} [{self.strategy.name}]"
        return base

    @property
    def last_result(self) -> Optional[InferenceResult]:
        """The most recent truth-inference result (None before the first fit)."""
        return self._result

    @property
    def answers_at_last_fit(self) -> int:
        """Answer-set size at the most recent refit (-1 before the first)."""
        return self._answers_at_last_fit

    # -- policy ---------------------------------------------------------------

    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        """Assign the top-``k`` candidate cells by information gain."""
        if k < 1:
            raise AssignmentError(f"k must be >= 1, got {k}")
        candidates = self.candidate_cells(worker, answers)
        if not candidates:
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        calculator = self._build_calculator(self._ensure_result(answers), answers)
        if self.vectorized:
            gains = calculator.gains_batch(worker, candidates)
            order = top_k_stable(gains, k)
            cells = tuple(candidates[index] for index in order)
            values = tuple(float(gains[index]) for index in order)
        else:
            gains = {
                cell: calculator.gain(worker, cell[0], cell[1])
                for cell in candidates
            }
            ranked = sorted(
                gains.items(), key=lambda item: item[1], reverse=True
            )[:k]
            cells = tuple(cell for cell, _gain in ranked)
            values = tuple(gain for _cell, gain in ranked)
        assignment = BatchAssignment(worker, cells, values)
        self._record_decision(
            assignment,
            answers_seen=self._answers_at_last_fit,
            answers_total=len(answers),
            candidates=len(candidates),
            result=self._result,
        )
        return assignment

    def observe(self, answers: AnswerSet) -> None:
        """Refresh truth inference if enough new answers arrived."""
        self._ensure_result(answers)

    def calculator_for(self, result: InferenceResult, answers: AnswerSet):
        """Gain calculator scoring with an externally supplied ``result``.

        The public seam used by serving modes that bring their own inference
        result — :class:`~repro.engine.AsyncRefitPolicy` builds (and
        caches) its calculator over an async
        :class:`~repro.engine.ModelSnapshot` here, so its scores come from
        exactly the same calculator construction as :meth:`select`.
        """
        return self._build_calculator(result, answers)

    def final_result(self, answers: AnswerSet) -> InferenceResult:
        """Truth inference over *all* of ``answers`` (end-of-session estimates).

        Unlike :meth:`observe`, which honours the ``refit_every`` cadence,
        this catches the model fully up (warm-started per the knobs) and
        records the fit in the refit bookkeeping — it is a real event in the
        warm-start chain, which is what lets the service layer's WAL replay
        reproduce estimate requests deterministically.
        """
        if self._result is None or self._answers_at_last_fit < len(answers):
            tol = self.refit_tol if self.warm_start and self._result else None
            self._result = refit_model(
                self.model, self.schema, answers,
                previous=self._result, warm_start=self.warm_start, tol=tol,
            )
            self._answers_at_last_fit = len(answers)
        return self._result

    # -- durability ------------------------------------------------------------

    def snapshot_state(self) -> Optional[Tuple[InferenceResult, int]]:
        """``(result, answers_seen)`` of the last refit, for durable snapshots.

        ``None`` before the first fit.  Together with :meth:`restore_state`
        this is the contract the service layer's write-ahead log uses to
        persist and rebuild the warm-start chain bit-identically.
        """
        if self._result is None:
            return None
        return self._result, self._answers_at_last_fit

    def restore_state(self, result: InferenceResult, answers_seen: int) -> None:
        """Restore the refit bookkeeping captured by :meth:`snapshot_state`."""
        self._result = result
        self._answers_at_last_fit = int(answers_seen)

    # -- internals -------------------------------------------------------------

    def _ensure_result(self, answers: AnswerSet) -> InferenceResult:
        if len(answers) == 0:
            raise AssignmentError(
                "T-Crowd assignment needs at least one collected answer; "
                "seed each task with initial answers first (Algorithm 2, line 1)"
            )
        stale = (
            self._result is None
            or len(answers) - self._answers_at_last_fit >= self.refit_every
        )
        if stale:
            # The tolerance only makes sense once there is a previous result
            # to warm-start from; the first (cold) fit keeps the full budget.
            tol = self.refit_tol if self.warm_start and self._result else None
            self._result = refit_model(
                self.model, self.schema, answers,
                previous=self._result, warm_start=self.warm_start, tol=tol,
            )
            self._answers_at_last_fit = len(answers)
        return self._result

    def _build_calculator(self, result: InferenceResult, answers: AnswerSet):
        """The calculator scoring this state — strategy-aware dispatcher.

        Every serving mode funnels scoring through here (via
        :meth:`select` or :meth:`calculator_for`), so swapping the strategy
        swaps scoring for *all* of them at once while everything around the
        scores — candidate filtering, stable top-K, provenance — stays
        shared.
        """
        if self.strategy is not None:
            return self.strategy.build_calculator(self, result, answers)
        return self.paper_calculator(result, answers)

    def paper_calculator(self, result: InferenceResult, answers: AnswerSet):
        """The paper's gain calculator (Sections 5.1/5.2), strategy-blind.

        Public so composing strategies (``budget_voi``, ``epsilon_greedy``
        with a ``paper`` base) can reach the inner gain without recursing
        through the strategy dispatch of :meth:`_build_calculator`.
        """
        if self.use_structure:
            return StructureAwareGainCalculator(
                result,
                answers,
                continuous_samples=self.continuous_samples,
                min_pairs=self.min_pairs,
                seed=self._rng,
            )
        return InformationGainCalculator(
            result, continuous_samples=self.continuous_samples, seed=self._rng
        )
