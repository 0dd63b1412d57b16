"""Inherent information gain (Section 5.1, Eq. 6).

The gain of assigning cell ``c_ij`` to worker ``u`` is the expected reduction
in the cell's (uniform) entropy after one more answer by ``u``:

    IG(c_ij) = H(T_ij | A) - E_a [ H(T_ij | A + {a}) ]

For a categorical cell the expectation runs over the finite label set using
the worker's predictive answer distribution.  For a continuous cell the
Gaussian posterior's updated variance does not depend on the answer's value,
so the expected differential entropy has a closed form; the paper's
``s_cont`` sampling over hypothetical answers returns that value on every
sample (``tests/test_information_gain.py`` checks it against a sampler).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.inference import (
    VARIANCE_FLOOR,
    InferenceResult,
    column_label_counts,
)
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.utils.exceptions import ConfigurationError


def _xlogx(values: np.ndarray) -> np.ndarray:
    """Elementwise ``x * ln(x)`` with the ``0 * ln(0) = 0`` convention."""
    return np.where(values > 0.0, values * np.log(np.maximum(values, 1e-300)), 0.0)


def as_cell_array(cells) -> np.ndarray:
    """Candidate cells as an ``(n, 2)`` int64 array of ``(row, col)`` pairs.

    The assigners pass that array already; a sequence of pairs is
    converted.
    """
    if isinstance(cells, np.ndarray) and cells.dtype == np.int64 and cells.ndim == 2:
        return cells
    cells = np.asarray(list(cells), dtype=np.int64)
    return cells.reshape(len(cells), 2)


class InformationGainCalculator:
    """Computes the inherent information gain of Eq. 6 for (worker, cell) pairs.

    Parameters
    ----------
    result:
        A fitted :class:`InferenceResult` providing posteriors, worker
        qualities and cell difficulties.
    """

    def __init__(self, result: InferenceResult) -> None:
        self.result = result
        # Schema-derived lookup tables used by every gains_batch call; the
        # schema is immutable, so build them once instead of per call.
        columns = result.schema.columns
        self._column_is_categorical = np.array(
            [column.is_categorical for column in columns], dtype=bool
        )
        self._num_labels_per_col = column_label_counts(result.schema)
        self._max_labels = (
            int(self._num_labels_per_col.max()) if len(columns) else 0
        )

    # -- public API -----------------------------------------------------------

    def gain(
        self,
        worker: str,
        row: int,
        col: int,
        quality_override: Optional[float] = None,
        variance_override: Optional[float] = None,
    ) -> float:
        """Information gain of assigning cell ``(row, col)`` to ``worker``.

        ``quality_override`` (categorical cells) and ``variance_override``
        (continuous cells, original scale) replace the worker's inherent
        quality; the structure-aware calculator uses them to inject the
        row-conditioned error model of Section 5.2.
        """
        posterior = self.result.posterior(row, col)
        if isinstance(posterior, CategoricalPosterior):
            quality = (
                quality_override
                if quality_override is not None
                else self.result.cell_quality(worker, row, col)
            )
            return self._categorical_gain(posterior, quality)
        if isinstance(posterior, GaussianPosterior):
            variance = (
                variance_override
                if variance_override is not None
                else self.result.answer_variance(worker, row, col)
            )
            return self._continuous_gain(posterior, variance)
        raise ConfigurationError(
            f"Unsupported posterior type {type(posterior).__name__}"
        )

    def gains_batch(
        self,
        worker: str,
        cells,
        quality_overrides: Optional[np.ndarray] = None,
        variance_overrides: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Information gain for many candidate cells in one vectorised pass.

        ``cells`` is an ``(n, 2)`` int array of ``(row, col)`` pairs (a
        sequence of pairs is converted).  Equivalent to calling :meth:`gain`
        per cell (same closed forms, same clipping) but computed with shared
        variance/quality arrays; the posteriors are gathered for the
        candidate cells only.  The optional override arrays are aligned with
        ``cells``; ``NaN`` entries mean "no override" (the structure-aware
        calculator fills them only for cells with structural evidence).
        """
        cells = as_cell_array(cells)
        gains = np.zeros(len(cells), dtype=float)
        if not len(cells):
            return gains
        result = self.result
        rows, cols = cells[:, 0], cells[:, 1]
        is_categorical = self._column_is_categorical[cols]
        phi = result.phi_for(worker)
        standardized_variance = np.maximum(
            result.alpha[rows] * result.beta[cols] * phi, VARIANCE_FLOOR
        )

        continuous_idx = np.flatnonzero(~is_categorical)
        if continuous_idx.size:
            scale = np.asarray(result.column_scale, dtype=float)[cols[continuous_idx]]
            answer_variance = standardized_variance[continuous_idx] * scale**2
            if variance_overrides is not None:
                overrides = np.asarray(variance_overrides, dtype=float)[continuous_idx]
                answer_variance = np.where(
                    np.isfinite(overrides), overrides, answer_variance
                )
            answer_variance = np.maximum(answer_variance, 1e-12)
            posterior_variance = self._posterior_variances(
                rows[continuous_idx], cols[continuous_idx]
            )
            updated = 1.0 / (1.0 / posterior_variance + 1.0 / answer_variance)
            gains[continuous_idx] = 0.5 * np.log(posterior_variance / updated)

        categorical_idx = np.flatnonzero(is_categorical)
        if categorical_idx.size:
            gains[categorical_idx] = self._categorical_gains_batch(
                rows[categorical_idx],
                cols[categorical_idx],
                standardized_variance[categorical_idx],
                None
                if quality_overrides is None
                else np.asarray(quality_overrides, dtype=float)[categorical_idx],
            )
        return gains

    def _cell_slots(self, keys: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """Positions of cells ``(rows, cols)`` in the result's sorted
        posterior ``keys``, and which of them are there (answered)."""
        wanted = rows * self.result.schema.num_columns + cols
        slots = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
        found = keys[slots] == wanted if len(keys) else np.zeros(len(wanted), bool)
        return slots, found

    def _posterior_variances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Posterior variances of continuous cells ``(rows, cols)``.

        Unanswered cells carry the prior variance used by
        :meth:`InferenceResult.posterior`.
        """
        result = self.result
        prior = np.maximum(
            np.asarray(result.column_scale, dtype=float) ** 2, VARIANCE_FLOOR
        )
        variances = prior[cols]
        slots, found = self._cell_slots(result.cont_keys, rows, cols)
        variances[found] = result.cont_var[slots[found]]
        return variances

    def _label_probs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``(n, max_labels)`` posterior label probabilities of categorical
        cells ``(rows, cols)``.

        Unanswered cells carry the uniform prior (matching
        :meth:`InferenceResult.posterior`); slots past a column's label-set
        size are zero.
        """
        result = self.result
        labels = self._num_labels_per_col[cols]
        valid = np.arange(max(self._max_labels, 1))[None, :] < labels[:, None]
        probs = np.where(valid, (1.0 / labels)[:, None], 0.0)
        slots, found = self._cell_slots(result.cat_keys, rows, cols)
        # Answered cells' padding past their label count is zero, as is the
        # prior's, so whole padded rows copy over.
        probs[found, : result.cat_probs.shape[1]] = result.cat_probs[slots[found]]
        return probs

    def _categorical_gains_batch(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        standardized_variance: np.ndarray,
        quality_overrides: Optional[np.ndarray],
    ) -> np.ndarray:
        """Closed-form categorical delta entropy over padded label arrays.

        For each hypothetical answer ``z'`` the unnormalised updated
        posterior is ``u_z = p_z * wrong`` except ``u_z' = p_z' * q``, whose
        normaliser is exactly the predictive answer probability ``a_z'``;
        summing ``a_z' * H(u / a_z')`` over ``z'`` telescopes into sums of
        ``x ln x`` terms, so no per-label posterior objects are built.
        """
        result = self.result
        labels = self._num_labels_per_col[cols]
        max_labels = self._max_labels
        probs = self._label_probs(rows, cols)

        quality = np.asarray(
            result.worker_model.quality_from_variance(standardized_variance),
            dtype=float,
        )
        if quality_overrides is not None:
            quality = np.where(
                np.isfinite(quality_overrides), quality_overrides, quality
            )
        quality = np.clip(quality, 1e-9, 1.0 - 1e-9)
        wrong = (1.0 - quality) / np.maximum(labels - 1, 1)

        valid = np.arange(max_labels)[None, :] < labels[:, None]
        predictive = quality[:, None] * probs + wrong[:, None] * (1.0 - probs)
        predictive = np.where(valid, predictive, 0.0)
        f_wrong = _xlogx(probs * wrong[:, None])
        g_correct = _xlogx(probs * quality[:, None])
        base = f_wrong.sum(axis=1)
        expected_entropy = -(
            (labels - 1.0) * base + g_correct.sum(axis=1)
        ) + _xlogx(predictive).sum(axis=1)
        current_entropy = -_xlogx(probs).sum(axis=1)
        return current_entropy - expected_entropy

    # -- categorical ------------------------------------------------------------

    @staticmethod
    def _categorical_gain(posterior: CategoricalPosterior, quality: float) -> float:
        current_entropy = posterior.entropy()
        answer_probs = posterior.predictive_answer_probs(quality)
        expected_entropy = 0.0
        for label_index, answer_prob in enumerate(answer_probs):
            if answer_prob <= 0.0:
                continue
            updated = posterior.updated_with_answer(label_index, quality)
            expected_entropy += answer_prob * updated.entropy()
        return current_entropy - expected_entropy

    # -- continuous -------------------------------------------------------------

    @staticmethod
    def _continuous_gain(posterior: GaussianPosterior, answer_variance: float) -> float:
        answer_variance = max(float(answer_variance), 1e-12)
        updated_variance = posterior.updated_variance(answer_variance)
        return 0.5 * float(np.log(posterior.variance / updated_variance))
