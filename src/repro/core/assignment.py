"""Online task assignment (Section 5, Algorithm 2).

:class:`AssignmentPolicy` is the interface shared by T-Crowd and all the
baseline assigners (CDAS, AskIt!, random, looping, entropy): given an
incoming worker and the answers collected so far, pick the next cell(s) to
assign.  :class:`TCrowdAssigner` implements the paper's policy — rank every
candidate cell by (structure-aware) information gain and greedily take the
top K (Eq. 9).

In the online loop a worker's candidate cells are derived on demand from
the answer arrays (:meth:`AnswerSet.indexed`, a view of the answer set's
columns that copies no answer; the per-cell cap reads the view's cell
counts), refits are warm-started from the previous
:class:`~repro.core.inference.InferenceResult` (``warm_start=False`` refits
cold), and every select scores its candidates in one ``gains_batch`` call
and takes the stable top K (:func:`rank_candidates`, shared with
:class:`~repro.engine.AsyncRefitPolicy`).
The seed implementation's full candidate rescan and per-cell scalar gain
loop live on only as the reference ``tests/test_golden_trace.py`` replays
these paths against.
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
from repro.engine.profiling import stage as _stage
from repro.utils.exceptions import AssignmentError

Cell = Tuple[int, int]


def refit_model(
    model,
    schema: TableSchema,
    answers: AnswerSet,
    previous: Optional[InferenceResult] = None,
    warm_start: bool = True,
) -> InferenceResult:
    """Run truth inference, warm-starting from ``previous`` when supported.

    Shared by every refitting policy so the warm-start contract (capability
    check + ``init=`` keyword) lives in one place.  A warm-started
    :class:`TCrowdModel` runs its ``warm_iterations`` budget (see
    :meth:`TCrowdModel.fit`); baseline models with plain
    ``fit(schema, answers)`` signatures are fitted cold.
    """
    if previous is not None and warm_start and getattr(
        model, "supports_warm_start", False
    ):
        return model.fit(schema, answers, init=previous)
    return model.fit(schema, answers)


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


def rank_candidates(
    calculator, worker: str, candidates: np.ndarray, k: int, profile=None
) -> BatchAssignment:
    """The top-``k`` ``candidates`` by gain: the ranking tail of every select.

    Scores the ``(n, 2)`` candidate array in one ``gains_batch`` call and
    keeps the stable top ``k``, timed as the ``gains_batch`` and
    ``top_k_merge`` stages of ``profile``.
    """
    with _stage(profile, "gains_batch"):
        gains = calculator.gains_batch(worker, candidates)
    with _stage(profile, "top_k_merge"):
        order = top_k_stable(gains, k)
    # Plain-int tuples: the cells are hashed into the audit ledger.
    return BatchAssignment(
        worker,
        tuple(map(tuple, candidates[order].tolist())),
        tuple(gains[order].tolist()),
    )


class AssignmentPolicy(abc.ABC):
    """Base class for online task-assignment policies.

    Subclasses implement :meth:`select`.  The base class provides candidate
    filtering: a worker is never assigned a cell they already answered, and
    cells that already collected ``max_answers_per_cell`` answers are
    excluded (the budget mechanism used by the end-to-end experiments).
    Both are read from the answer arrays on every call, so a policy follows
    whichever :class:`AnswerSet` it is given.
    """

    def __init__(
        self,
        schema: TableSchema,
        max_answers_per_cell: Optional[int] = None,
    ) -> None:
        if max_answers_per_cell is not None and max_answers_per_cell < 1:
            raise AssignmentError(
                f"max_answers_per_cell must be >= 1, got {max_answers_per_cell}"
            )
        self.schema = schema
        self.max_answers_per_cell = max_answers_per_cell
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

    def _under_cap(self, answers: AnswerSet) -> np.ndarray:
        """Row-major flat mask of the cells below ``max_answers_per_cell``."""
        cap = self.max_answers_per_cell
        if cap is None or not len(answers):
            return np.ones(self.schema.num_cells, dtype=bool)
        return answers.indexed().cell_counts() < cap

    def has_open_cells(self, answers: AnswerSet) -> bool:
        """True while at least one cell can accept further answers."""
        return bool(self._under_cap(answers).any())

    def candidate_array(self, worker: str, answers: AnswerSet) -> np.ndarray:
        """Cells ``worker`` may still be assigned, as an ``(n, 2)`` int64
        array of ``(row, col)`` pairs, the form ``gains_batch`` scores.

        Row-major, the order of the seed implementation's full rescan, so
        the stable top K breaks ties exactly as it did.
        """
        num_columns = self.schema.num_columns
        open_cells = self._under_cap(answers)
        if len(answers):
            indexed = answers.indexed()
            index = indexed.worker_index.get(worker)
            if index is not None:
                mine = indexed.workers == index
                open_cells[indexed.rows[mine] * num_columns + indexed.cols[mine]] = False
        return np.stack(np.divmod(np.flatnonzero(open_cells), num_columns), axis=1)

    def candidate_cells(self, worker: str, answers: AnswerSet) -> List[Cell]:
        """:meth:`candidate_array` as a list of ``(row, col)`` tuples."""
        return list(map(tuple, self.candidate_array(worker, answers).tolist()))

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
    max_answers_per_cell:
        Budget cap per cell (see :class:`AssignmentPolicy`).
    min_pairs:
        Forwarded to :class:`StructureAwareGainCalculator`.
    warm_start:
        Warm-start each refit from the previous inference result, on the
        model's ``warm_iterations`` budget (see :meth:`TCrowdModel.fit`).
        ``False`` refits cold.
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
        max_answers_per_cell: Optional[int] = None,
        min_pairs: int = 5,
        warm_start: bool = True,
        strategy=None,
    ) -> None:
        super().__init__(schema, max_answers_per_cell=max_answers_per_cell)
        if refit_every < 1:
            raise AssignmentError(f"refit_every must be >= 1, got {refit_every}")
        self.model = model or TCrowdModel()
        self.use_structure = bool(use_structure)
        self.refit_every = int(refit_every)
        self.min_pairs = int(min_pairs)
        self.warm_start = bool(warm_start)
        self.strategy = strategy
        self._result: Optional[InferenceResult] = None
        self._answers_at_last_fit = -1
        self.profile = None

    def set_profile(self, profile) -> None:
        """Attach a :class:`~repro.engine.HotPathProfile` (``None`` detaches).

        Times ``em_refit`` around every fit, and ``calculator_build``,
        ``gains_batch`` and ``top_k_merge`` in :meth:`select`.
        """
        self.profile = profile

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
        candidates = self.candidate_array(worker, answers)
        if not len(candidates):
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        result = self._ensure_result(answers)
        with _stage(self.profile, "calculator_build"):
            calculator = self._build_calculator(result, answers)
        assignment = rank_candidates(calculator, worker, candidates, k, self.profile)
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
            self._refit(answers)
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
            self._refit(answers)
        return self._result

    def _refit(self, answers: AnswerSet) -> None:
        """Fit over all of ``answers`` and record it as the latest result."""
        with _stage(self.profile, "em_refit"):
            self._result = refit_model(
                self.model, self.schema, answers,
                previous=self._result, warm_start=self.warm_start,
            )
        self._answers_at_last_fit = len(answers)

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
                result, answers, min_pairs=self.min_pairs
            )
        return InformationGainCalculator(result)
