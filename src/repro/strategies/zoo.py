"""The built-in assignment strategies (baselines + adaptive controllers).

====================  =========================================================
name                  what scores a candidate cell
====================  =========================================================
``paper``             the gain-based selector of Sections 5.1/5.2 (handled by
                      the assigner itself — :func:`build_strategy` returns
                      ``None`` so the default path stays byte-for-byte intact)
``random``            a hash-derived uniform draw per ``(worker, cell,
                      answers_total)`` — the unmodelled-crowd baseline
``round_robin``       ``-answer_count(cell)`` — spread answers evenly; ties
                      resolve row-major through the shared stable top-K
``uncertainty``       the posterior entropy ``H(T_ij)`` — classic uncertainty
                      sampling over :mod:`repro.core.entropy`'s uniform
                      entropy, ignoring who is asking
``budget_voi``        the paper gain, except cells whose posterior confidence
                      cleared ``confidence`` (after ``min_answers`` answers)
                      are *retired* to :data:`~repro.strategies.base.RETIRED_GAIN`
                      — a value-of-information stopping rule that redirects
                      the remaining budget to contested cells (the
                      POMDP-style controller)
``epsilon_greedy``    with probability ``epsilon`` (one hash-derived draw per
                      calculator build), score like ``random``; otherwise
                      score with the ``base`` strategy — composable over any
                      non-composite base
====================  =========================================================

Posterior confidence (``budget_voi``) is the max posterior probability for
categorical cells and ``1 / (1 + variance)`` for continuous ones — both
monotone "how settled is this cell" measures in ``(0, 1]``, so one
threshold covers heterogeneous rows.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.inference import InferenceResult
from repro.strategies.base import (
    RETIRED_GAIN,
    AssignmentStrategy,
    Cell,
    StrategyCalculator,
    hash_unit,
)


# -- random --------------------------------------------------------------------


class _RandomCalculator(StrategyCalculator):
    """Hash-derived uniform score per ``(worker, cell)`` at one answer count."""

    def __init__(self, seed, answers_total: int) -> None:
        self._seed = seed
        self._answers_total = int(answers_total)

    def gain(self, worker: str, row: int, col: int) -> float:
        return hash_unit(
            self._seed, "score", worker, self._answers_total, row, col
        )


class RandomStrategy(AssignmentStrategy):
    """Uniform-random assignment (the paper's "Random" baseline)."""

    def build_calculator(self, assigner, result, answers):
        return _RandomCalculator(self.spec.seed, len(answers))


# -- round robin ---------------------------------------------------------------


class _RoundRobinCalculator(StrategyCalculator):
    """``-answer_count``: the least-answered cells win, ties row-major."""

    def __init__(self, counts: np.ndarray) -> None:
        self._counts = counts

    def gain(self, worker: str, row: int, col: int) -> float:
        return float(-self._counts[row, col])

    def gains_batch(self, worker: str, cells: Iterable[Cell]) -> np.ndarray:
        cells = list(cells)
        if not cells:
            return np.zeros(0, dtype=float)
        index = np.asarray(cells, dtype=np.int64)
        return -self._counts[index[:, 0], index[:, 1]].astype(float)


class RoundRobinStrategy(AssignmentStrategy):
    """Spread answers evenly across cells (the "Looping" baseline)."""

    def build_calculator(self, assigner, result, answers):
        return _RoundRobinCalculator(answers.answer_counts())


# -- uncertainty sampling ------------------------------------------------------


class _UncertaintyCalculator(StrategyCalculator):
    """Posterior entropy of the cell — worker-agnostic uncertainty sampling."""

    def __init__(self, result: InferenceResult) -> None:
        self._result = result

    def gain(self, worker: str, row: int, col: int) -> float:
        return float(self._result.posterior(row, col).entropy())


class UncertaintyStrategy(AssignmentStrategy):
    """Assign the cells whose truth posterior is most uncertain."""

    def build_calculator(self, assigner, result, answers):
        return _UncertaintyCalculator(result)


# -- value-of-information stopping ---------------------------------------------


def posterior_confidence(posterior) -> float:
    """A ``(0, 1]`` "how settled" measure across both posterior families."""
    if posterior.is_categorical:
        return float(np.max(posterior.probs))
    return 1.0 / (1.0 + float(posterior.variance))


class _VoICalculator(StrategyCalculator):
    """The paper gain, with confident cells retired to ``RETIRED_GAIN``."""

    def __init__(
        self,
        inner,
        result: InferenceResult,
        counts: np.ndarray,
        confidence: float,
        min_answers: int,
    ) -> None:
        self._inner = inner
        self._result = result
        self._counts = counts
        self._confidence = float(confidence)
        self._min_answers = int(min_answers)

    def _retired(self, row: int, col: int) -> bool:
        if self._counts[row, col] < self._min_answers:
            return False
        posterior = self._result.posterior(row, col)
        return posterior_confidence(posterior) >= self._confidence

    def gain(self, worker: str, row: int, col: int) -> float:
        if self._retired(row, col):
            return RETIRED_GAIN
        return self._inner.gain(worker, row, col)

    def gains_batch(self, worker: str, cells: Iterable[Cell]) -> np.ndarray:
        cells = list(cells)
        gains = np.asarray(
            self._inner.gains_batch(worker, cells), dtype=float
        ).copy()
        for index, (row, col) in enumerate(cells):
            if self._retired(row, col):
                gains[index] = RETIRED_GAIN
        return gains


class BudgetVoIStrategy(AssignmentStrategy):
    """Value-of-information stopping over the paper's gain.

    A cell that has collected at least ``min_answers`` answers and whose
    posterior confidence reached ``confidence`` is *retired*: it scores
    :data:`~repro.strategies.base.RETIRED_GAIN`, so the stable top-K only
    returns it once every contested cell is exhausted.  The freed budget
    flows to the rows the model is still unsure about — the adaptive
    stop/continue controller of the POMDP-style serving literature.
    """

    def build_calculator(self, assigner, result, answers):
        return _VoICalculator(
            assigner.paper_calculator(result, answers),
            result,
            answers.answer_counts(),
            confidence=self.spec.confidence,
            min_answers=self.spec.min_answers,
        )


# -- epsilon-greedy ------------------------------------------------------------


class EpsilonGreedyStrategy(AssignmentStrategy):
    """Explore/exploit wrapper: ``epsilon``-random, else the base strategy.

    The explore decision is one hash-derived draw per calculator build,
    keyed on ``(seed, answers_total)`` — every serving mode (and every
    WAL replay) takes the same branch at the same session state, which is
    what keeps the wrapper bit-identical across the serving matrix (the
    worker cannot enter the key: the calculator seam is per-state, and
    the async policy's scoring cache reuses one calculator across workers).
    """

    def __init__(self, spec, base: Optional[AssignmentStrategy]) -> None:
        super().__init__(spec)
        #: ``None`` means the base is the paper calculator itself.
        self.base = base

    def build_calculator(self, assigner, result, answers):
        explore = (
            hash_unit(self.spec.seed, "explore", len(answers))
            < self.spec.epsilon
        )
        if explore:
            return _RandomCalculator(self.spec.seed, len(answers))
        if self.base is None:
            return assigner.paper_calculator(result, answers)
        return self.base.build_calculator(assigner, result, answers)
