"""Inherent information gain (Section 5.1, Eq. 6).

The gain of assigning cell ``c_ij`` to worker ``u`` is the expected reduction
in the cell's (uniform) entropy after one more answer by ``u``:

    IG(c_ij) = H(T_ij | A) - E_a [ H(T_ij | A + {a}) ]

For a categorical cell the expectation runs over the finite label set using
the worker's predictive answer distribution.  For a continuous cell the
Gaussian posterior's updated variance does not depend on the answer's value,
so the expected differential entropy has a closed form; a Monte-Carlo
estimator (the paper's ``s_cont`` sampling) is available for validation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.inference import VARIANCE_FLOOR, InferenceResult
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_generator


def _xlogx(values: np.ndarray) -> np.ndarray:
    """Elementwise ``x * ln(x)`` with the ``0 * ln(0) = 0`` convention."""
    return np.where(values > 0.0, values * np.log(np.maximum(values, 1e-300)), 0.0)


class InformationGainCalculator:
    """Computes the inherent information gain of Eq. 6 for (worker, cell) pairs.

    Parameters
    ----------
    result:
        A fitted :class:`InferenceResult` providing posteriors, worker
        qualities and cell difficulties.
    continuous_samples:
        0 (default) uses the exact closed form for continuous cells; a
        positive value uses Monte-Carlo sampling over hypothetical answers
        with that many samples, as described in the paper.
    seed:
        Seed for the sampling estimator.
    """

    def __init__(
        self,
        result: InferenceResult,
        continuous_samples: int = 0,
        seed=None,
    ) -> None:
        if continuous_samples < 0:
            raise ConfigurationError(
                f"continuous_samples must be >= 0, got {continuous_samples}"
            )
        self.result = result
        self.continuous_samples = int(continuous_samples)
        self._rng = as_generator(seed)
        self._cont_variance_grid: Optional[np.ndarray] = None
        self._cat_prob_grid: Optional[np.ndarray] = None
        # Schema-derived lookup tables used by every gains_batch call; the
        # schema is immutable, so build them once instead of per call.
        columns = result.schema.columns
        self._column_is_categorical = np.array(
            [column.is_categorical for column in columns], dtype=bool
        )
        self._num_labels_per_col = np.array(
            [
                column.num_labels if column.is_categorical else 0
                for column in columns
            ],
            dtype=np.int64,
        )
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

    def gains_for_worker(self, worker: str, candidates) -> dict:
        """Information gain for every candidate cell ``(row, col)``."""
        return {cell: self.gain(worker, cell[0], cell[1]) for cell in candidates}

    def gains_batch(
        self,
        worker: str,
        cells,
        quality_overrides: Optional[np.ndarray] = None,
        variance_overrides: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Information gain for many candidate cells in one vectorised pass.

        Equivalent to calling :meth:`gain` per cell (same closed forms, same
        clipping) but computed with shared variance/quality arrays.  The
        optional override arrays are aligned with ``cells``; ``NaN`` entries
        mean "no override" (the structure-aware calculator fills them only
        for cells with structural evidence).  Monte-Carlo mode
        (``continuous_samples > 0``) falls back to the scalar path.
        """
        cells = list(cells)
        gains = np.zeros(len(cells), dtype=float)
        if not cells:
            return gains
        if self.continuous_samples:
            for idx, (row, col) in enumerate(cells):
                quality = None
                variance = None
                if quality_overrides is not None and np.isfinite(quality_overrides[idx]):
                    quality = float(quality_overrides[idx])
                if variance_overrides is not None and np.isfinite(variance_overrides[idx]):
                    variance = float(variance_overrides[idx])
                gains[idx] = self.gain(
                    worker, row, col,
                    quality_override=quality, variance_override=variance,
                )
            return gains

        result = self.result
        rows = np.fromiter((cell[0] for cell in cells), dtype=np.int64, count=len(cells))
        cols = np.fromiter((cell[1] for cell in cells), dtype=np.int64, count=len(cells))
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
            grid = self._continuous_variance_grid()
            posterior_variance = grid[rows[continuous_idx], cols[continuous_idx]]
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

    def _continuous_variance_grid(self) -> np.ndarray:
        """Dense (rows, cols) posterior variances for continuous cells.

        Unanswered cells carry the prior variance used by
        :meth:`InferenceResult.posterior`; entries of categorical columns are
        never read.
        """
        if self._cont_variance_grid is None:
            result = self.result
            schema = result.schema
            prior = np.maximum(
                np.asarray(result.column_scale, dtype=float) ** 2, VARIANCE_FLOOR
            )
            grid = np.tile(prior, (schema.num_rows, 1))
            for (row, col), posterior in result.posteriors.items():
                if isinstance(posterior, GaussianPosterior):
                    grid[row, col] = posterior.variance
            self._cont_variance_grid = grid
        return self._cont_variance_grid

    def _categorical_prob_grid(self) -> np.ndarray:
        """Dense ``(rows, cols, max_labels)`` posterior label probabilities.

        Unanswered categorical cells carry the uniform prior (matching
        :meth:`InferenceResult.posterior`); slots past a column's label-set
        size stay zero and entries of continuous columns are never read.
        Built once per calculator — the per-call Python loop over candidate
        posteriors this replaces was the last O(candidates) interpreter
        cost on the categorical scoring path.
        """
        if self._cat_prob_grid is None:
            result = self.result
            schema = result.schema
            grid = np.zeros(
                (schema.num_rows, schema.num_columns, max(self._max_labels, 1))
            )
            for col in np.flatnonzero(self._column_is_categorical):
                count = self._num_labels_per_col[col]
                grid[:, col, :count] = 1.0 / count
            for (row, col), posterior in result.posteriors.items():
                if isinstance(posterior, CategoricalPosterior):
                    grid[row, col, : len(posterior.probs)] = posterior.probs
            self._cat_prob_grid = grid
        return self._cat_prob_grid

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
        probs = self._categorical_prob_grid()[rows, cols]

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

    def _continuous_gain(self, posterior: GaussianPosterior, answer_variance: float) -> float:
        answer_variance = max(float(answer_variance), 1e-12)
        if self.continuous_samples == 0:
            updated_variance = posterior.updated_variance(answer_variance)
            return 0.5 * float(np.log(posterior.variance / updated_variance))
        # Monte-Carlo estimator over hypothetical answers (paper's s_cont).
        predictive_std = float(np.sqrt(posterior.predictive_variance(answer_variance)))
        samples = self._rng.normal(posterior.mean, predictive_std, self.continuous_samples)
        current_entropy = posterior.entropy()
        expected_entropy = float(
            np.mean(
                [
                    posterior.updated_with_answer(sample, answer_variance).entropy()
                    for sample in samples
                ]
            )
        )
        return current_entropy - expected_entropy
