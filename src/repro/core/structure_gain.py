"""Structure-aware information gain (Section 5.2).

The inherent gain of Eq. 6 treats the incoming worker's quality on a cell as
independent of their previous answers.  The structure-aware extension uses
the worker's *observed errors on other cells of the same row* — combined via
the attribute error-correlation models of Tables 4-5 and the Eq. 7/8
weighting — to produce a better prediction of the error the worker would make
on the candidate cell, and feeds that prediction into the delta-entropy
computation:

* categorical candidate: the predicted probability of a *correct* answer
  replaces the worker's inherent cell quality ``q^u_ij``;
* continuous candidate: the second moment of the predicted error replaces the
  worker's inherent answer variance.

:meth:`StructureAwareGainCalculator.gains_batch` predicts every candidate's
error in one masked pass over numpy arrays, with the arithmetic of
:meth:`~repro.core.correlation.AttributeCorrelationModel.predict_error` (a
reference copy of the per-candidate loop it replaced lives in
``tests/test_structure_gain_batch.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.correlation import (
    AttributeCorrelationModel,
    BernoulliError,
    GaussianError,
    answer_error,
    python_squares,
    worker_answer_errors,
)
from repro.core.inference import InferenceResult
from repro.core.information_gain import InformationGainCalculator, as_cell_array

#: numpy sums fewer than this many terms one after another from 0.0, which
#: the batched Eq. 7 repeats; a candidate with more usable conditionals goes
#: through the scalar :meth:`AttributeCorrelationModel.predict_error`.
_SEQUENTIAL_SUM_LIMIT = 8


class StructureAwareGainCalculator:
    """Computes the structure-aware information gain for (worker, cell) pairs."""

    def __init__(
        self,
        result: InferenceResult,
        answers: AnswerSet,
        correlation_model: Optional[AttributeCorrelationModel] = None,
        min_pairs: int = 5,
    ) -> None:
        self.result = result
        self.answers = answers
        self.correlation = correlation_model or AttributeCorrelationModel.fit(
            answers, result, min_pairs=min_pairs
        )
        self._inherent = InformationGainCalculator(result)

    # -- public API -----------------------------------------------------------

    def gain(self, worker: str, row: int, col: int) -> float:
        """Structure-aware information gain of assigning (row, col) to worker.

        Falls back to the inherent gain when the worker has not answered any
        other cell of the row (no structural evidence).
        """
        observed = self._observed_errors(worker, row, col)
        if not observed:
            return self._inherent.gain(worker, row, col)
        predicted = self.correlation.predict_error(col, observed)
        column = self.result.schema.columns[col]
        if column.is_categorical:
            assert isinstance(predicted, BernoulliError)
            return self._inherent.gain(
                worker, row, col, quality_override=predicted.quality()
            )
        assert isinstance(predicted, GaussianError)
        return self._inherent.gain(
            worker, row, col, variance_override=max(predicted.second_moment(), 1e-9)
        )

    def gains_batch(self, worker: str, cells) -> np.ndarray:
        """Structure-aware gain for many candidate cells in one pass.

        ``cells`` is an ``(n, 2)`` int array of ``(row, col)`` pairs (a
        sequence of pairs is converted).  The worker's errors are taken
        once, from :meth:`AnswerSet.indexed` and the result's point
        estimates, into a row x given-slot table: a row's given columns
        follow the order in which the worker first answered them, and each
        keeps its last answer's error.  The Table 5 conditionals of every
        (candidate, usable given column) pair come from
        :meth:`AttributeCorrelationModel.conditionals_batch` and are
        combined with the Eq. 7/8 weights in a loop over the given slots,
        summed left to right as numpy sums fewer than 8 terms; a candidate
        with 8 or more usable conditionals goes through the scalar
        :meth:`~AttributeCorrelationModel.predict_error`.  The predicted
        quality / variance reach :meth:`InformationGainCalculator.gains_batch`
        as override arrays.  As in :meth:`gain`, a candidate whose row
        holds no other answer of the worker keeps a ``NaN`` override (the
        inherent gain), and one whose other answers have no usable pair
        gets the marginal error.
        """
        cells = as_cell_array(cells)
        quality_overrides = np.full(len(cells), np.nan)
        variance_overrides = np.full(len(cells), np.nan)
        given = worker_answer_errors(self.answers, self.result, worker)
        if given is not None and len(cells):
            self._predict_overrides(cells, *given, quality_overrides, variance_overrides)
        return self._inherent.gains_batch(
            worker,
            cells,
            quality_overrides=quality_overrides,
            variance_overrides=variance_overrides,
        )

    def _predict_overrides(
        self, cells, rows, cols, errors, quality_overrides, variance_overrides
    ) -> None:
        """Fill the overrides of the candidates with structural evidence."""
        num_cols = self.result.schema.num_columns
        # The worker's distinct (row, col) cells, grouped by row and ordered
        # by their first answer within it, with their last answer's error.
        keys = rows * num_cols + cols
        distinct, first = np.unique(keys, return_index=True)
        last = len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]
        order = np.lexsort((first, distinct // num_cols))
        cell_rows, cell_cols = np.divmod(distinct[order], num_cols)
        given_rows, starts, counts = np.unique(
            cell_rows, return_index=True, return_counts=True
        )
        group = np.repeat(np.arange(len(given_rows)), counts)
        slot = np.arange(len(cell_rows)) - starts[group]
        given_cols = np.full((len(given_rows), counts.max()), -1)
        given_errors = np.zeros(given_cols.shape)
        given_cols[group, slot] = cell_cols
        given_errors[group, slot] = errors[last[order]]

        # Candidates in those rows, against the other given columns.
        position = np.searchsorted(given_rows, cells[:, 0])
        position[position == len(given_rows)] = 0
        structural = np.flatnonzero(given_rows[position] == cells[:, 0])
        targets = cells[structural, 1]
        slot_cols = given_cols[position[structural]]
        slot_errors = given_errors[position[structural]]
        other = (slot_cols >= 0) & (slot_cols != targets[:, None])
        tables = self.correlation.tables()
        usable = other & tables.usable[targets[:, None], slot_cols]
        usable_count = usable.sum(axis=1)

        marginal = np.flatnonzero(other.any(axis=1) & (usable_count == 0))
        for target in np.unique(targets[marginal]).tolist():
            chosen = structural[marginal[targets[marginal] == target]]
            self._store(self.correlation.marginal_error(target), chosen,
                        quality_overrides, variance_overrides)
        for index in np.flatnonzero(usable_count >= _SEQUENTIAL_SUM_LIMIT).tolist():
            target = int(targets[index])
            observed = dict(zip(slot_cols[index][other[index]].tolist(),
                                slot_errors[index][other[index]].tolist()))
            self._store(self.correlation.predict_error(target, observed),
                        structural[index], quality_overrides, variance_overrides)

        batch = np.flatnonzero(
            (usable_count > 0) & (usable_count < _SEQUENTIAL_SUM_LIMIT)
        )
        if not len(batch):
            return
        # Usable slots moved left, in slot order: slot s holds the s-th
        # term of the candidate's Eq. 7 sums.
        usable = usable[batch]
        moved = np.argsort(~usable, axis=1, kind="stable")[:, : usable_count[batch].max()]
        mask = np.take_along_axis(usable, moved, axis=1)
        terms, term_slots = np.nonzero(mask)
        target_of = targets[batch][terms]
        given_of = np.take_along_axis(slot_cols[batch], moved, axis=1)[terms, term_slots]
        observed_of = np.take_along_axis(slot_errors[batch], moved, axis=1)[terms, term_slots]
        p_wrong, mean, variance = self.correlation.conditionals_batch(
            target_of, given_of, observed_of
        )

        def by_slot(values):
            table = np.zeros(mask.shape)
            table[terms, term_slots] = values
            return table

        def eq7_sum(table):
            total = np.zeros(len(table))
            for column in table.T:
                total += column  # padding is +0.0, which leaves a sum unchanged
            return total

        weights = by_slot(tables.weight[target_of, given_of])
        weights = by_slot(weights[terms, term_slots] / eq7_sum(weights)[terms])
        cat_target = tables.categorical[targets[batch]]
        chosen = structural[batch[cat_target]]
        p_wrong = np.clip(eq7_sum(weights * by_slot(p_wrong))[cat_target], 0.0, 1.0)
        quality_overrides[chosen] = 1.0 - p_wrong

        chosen = structural[batch[~cat_target]]
        mixture_mean = eq7_sum(weights * by_slot(mean))[~cat_target]
        mixture_second = eq7_sum(
            weights * by_slot(variance + mean * mean)
        )[~cat_target]
        mean_squared = python_squares(mixture_mean)
        variance = np.maximum(mixture_second - mean_squared, 1e-9)
        variance_overrides[chosen] = np.maximum(variance + mean_squared, 1e-9)

    @staticmethod
    def _store(predicted, chosen, quality_overrides, variance_overrides) -> None:
        """Write one predicted error's override, as :meth:`gain` uses it."""
        if isinstance(predicted, BernoulliError):
            quality_overrides[chosen] = predicted.quality()
        else:
            variance_overrides[chosen] = max(predicted.second_moment(), 1e-9)

    # -- internals ------------------------------------------------------------

    def _observed_errors(self, worker: str, row: int, col: int) -> Dict[int, float]:
        """Errors of the worker's previous answers on other cells of ``row``."""
        observed: Dict[int, float] = {}
        for answer in self.answers.worker_answers_in_row(worker, row):
            if answer.col == col:
                continue
            observed[answer.col] = answer_error(answer, self.result)
        return observed
