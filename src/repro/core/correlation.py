"""Attribute error-correlation models of Section 5.2 (Tables 4 and 5, Eq. 7-8).

For every ordered pair of columns ``(j, k)`` the model learns, from all
collected answers, how a worker's error on column ``k`` of an entity predicts
the same worker's error on column ``j`` of that entity:

* both categorical  -> Bernoulli conditionals ``P(e_j | e_k = 0/1)``;
* both continuous   -> bivariate Gaussian, conditioned analytically;
* j continuous, k categorical -> two Gaussians (``e_k`` right / wrong);
* j categorical, k continuous -> Bayes over two Gaussians for ``e_k`` plus
  the Bernoulli marginal of ``e_j``.

Conditioning on several observed errors in the same row uses the linear
combination of Eq. 7 weighted by the Pearson coefficients ``W_jk`` of Eq. 8.

Errors are defined against the *estimated* truths of an
:class:`~repro.core.inference.InferenceResult`: continuous errors are
``a - T^hat`` and categorical errors are 0 (correct) / 1 (wrong).

The fit is one columnar pass with no per-answer Python loop, and it is
bit-identical to the per-answer loop it replaced (a reference copy lives in
``tests/test_correlation_columnar.py``):

* every answer's error comes from the answer arrays of
  :meth:`~repro.core.answers.AnswerSet.indexed` and the result's numeric
  point estimates (:meth:`~repro.core.inference.InferenceResult.estimate_codes`);
* the paired errors sit in a (worker, row) x column table whose rows follow
  the first answer of each (worker, row) and whose cells keep the last
  answer of a repeated (worker, row, col), so every pair's errors come out
  in the order the loop appended them;
* each column pair's moments are taken once, with ``np.add.reduce`` over the
  pair's own compact arrays (the sums and divisions ``np.mean`` and
  ``np.var`` perform), and shared by both orientations of the pair and the
  Pearson weight.

:meth:`AttributeCorrelationModel.conditionals_batch` evaluates the Table 5
conditionals of many (target, given, observed error) triples at once, from
C x C parameter tables built once per model with the scalar arithmetic of
:meth:`_PairStats.conditional`; the structure-aware gain scores a whole
select with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Tuple

import numpy as np

from repro.core.answers import Answer, AnswerSet
from repro.core.inference import InferenceResult
from repro.core.schema import TableSchema
from repro.utils.exceptions import DataError

#: Floor of every fitted error variance (the default of ``safe_var``).
_VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class BernoulliError:
    """Error distribution of a categorical column: probability of being wrong."""

    p_wrong: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_wrong", float(np.clip(self.p_wrong, 0.0, 1.0)))

    @property
    def is_categorical(self) -> bool:
        """True — categorical error model."""
        return True

    def quality(self) -> float:
        """Probability of a correct answer implied by the error model."""
        return 1.0 - self.p_wrong


@dataclass(frozen=True)
class GaussianError:
    """Error distribution of a continuous column: ``e ~ N(mean, variance)``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", float(max(self.variance, 1e-9)))

    @property
    def is_categorical(self) -> bool:
        """False — continuous error model."""
        return False

    def second_moment(self) -> float:
        """``E[e^2] = variance + mean^2`` (the effective answer noise)."""
        return self.variance + self.mean**2


def answer_error(answer: Answer, result: InferenceResult) -> float:
    """Error of one answer against the estimated truth.

    Continuous columns: ``a - T^hat``.  Categorical columns: 0 if the answer
    matches the estimated truth, 1 otherwise.
    """
    column = result.schema.columns[answer.col]
    estimate = result.estimate(answer.row, answer.col)
    if column.is_categorical:
        return 0.0 if answer.value == estimate else 1.0
    return float(answer.value) - float(estimate)


class _PairStats:
    """Fitted conditional model for one ordered column pair (j | k).

    Built two at a time by :meth:`fit_pair`: ``(j | k)`` and ``(k | j)``
    come from the same paired errors, so they share every moment.
    """

    def __init__(
        self,
        target_categorical: bool,
        given_categorical: bool,
        errors_j: np.ndarray,
        errors_k: np.ndarray,
    ) -> None:
        self.target_categorical = target_categorical
        self.given_categorical = given_categorical
        self.errors_j = errors_j
        self.errors_k = errors_k

    @classmethod
    def fit_pair(
        cls,
        a_categorical: bool,
        b_categorical: bool,
        errors_a: np.ndarray,
        errors_b: np.ndarray,
    ) -> Tuple["_PairStats", "_PairStats", float]:
        """Fit ``(a | b)``, ``(b | a)`` and the pair's Eq. 8 weight.

        ``errors_a`` / ``errors_b`` are the paired errors, compact and in
        pairing order.  Each moment is taken once by :func:`_moments` and
        shared by both orientations and :func:`_pearson`.
        """
        count = len(errors_a)
        moments_a = _moments(errors_a)
        moments_b = _moments(errors_b)
        cross = float(np.add.reduce(errors_a * errors_b) / count)
        a_given_b = cls(a_categorical, b_categorical, errors_a, errors_b)
        b_given_a = cls(b_categorical, a_categorical, errors_b, errors_a)
        if a_categorical and b_categorical:
            # Case (a): two Bernoulli conditionals.
            for stats in (a_given_b, b_given_a):
                ej, ek = stats.errors_j, stats.errors_k
                stats.p_wrong_given_right = _bernoulli_rate(ej[ek == 0.0])
                stats.p_wrong_given_wrong = _bernoulli_rate(ej[ek == 1.0])
        elif not a_categorical and not b_categorical:
            # Case (b): bivariate Gaussian.
            for stats, (mean_j, var_j), (mean_k, var_k) in (
                (a_given_b, moments_a, moments_b),
                (b_given_a, moments_b, moments_a),
            ):
                stats.mean_j, stats.mean_k = mean_j, mean_k
                stats.var_j = max(var_j, _VAR_FLOOR)
                stats.var_k = max(var_k, _VAR_FLOOR)
                cov = cross - mean_j * mean_k if count > 1 else 0.0
                limit = 0.999 * math.sqrt(stats.var_j * stats.var_k)
                stats.cov = _clip(cov, -limit, limit)
        else:
            # Cases (c) and (d) share the continuous errors split by whether
            # the categorical answer was right; a side with fewer than two
            # errors falls back to the pooled continuous errors.
            if a_categorical:
                cont_given_cat, cat_given_cont = b_given_a, a_given_b
                values, flags, (mean, var) = errors_b, errors_a, moments_b
            else:
                cont_given_cat, cat_given_cont = a_given_b, b_given_a
                values, flags, (mean, var) = errors_a, errors_b, moments_a
            pooled = (mean, max(var, _VAR_FLOOR))
            right, wrong = values[flags == 0.0], values[flags == 1.0]
            right = _gaussian(right) if len(right) >= 2 else pooled
            wrong = _gaussian(wrong) if len(wrong) >= 2 else pooled
            # Case (c): Gaussian error of the continuous column given the
            # categorical one right / wrong.
            cont_given_cat.gauss_given_right = right
            cont_given_cat.gauss_given_wrong = wrong
            # Case (d): Bayes with those Gaussians as likelihoods.
            cat_given_cont.p_wrong_prior = _bernoulli_rate(flags)
            cat_given_cont.gauss_k_given_right = right
            cat_given_cont.gauss_k_given_wrong = wrong
        weight = _pearson(count, moments_a, moments_b, cross)
        return a_given_b, b_given_a, weight

    def conditional(self, observed_error: float):
        """Distribution of the target error given the observed error on k."""
        if self.target_categorical and self.given_categorical:
            if observed_error == 0.0:
                return BernoulliError(self.p_wrong_given_right)
            return BernoulliError(self.p_wrong_given_wrong)
        if not self.target_categorical and not self.given_categorical:
            slope = self.cov / self.var_k
            mean = self.mean_j + slope * (observed_error - self.mean_k)
            variance = self.var_j - self.cov**2 / self.var_k
            return GaussianError(mean, variance)
        if not self.target_categorical and self.given_categorical:
            chosen = (
                self.gauss_given_right
                if observed_error == 0.0
                else self.gauss_given_wrong
            )
            return GaussianError(chosen[0], chosen[1])
        # Case (d): P(e_j | e_k = x) via Bayes.
        like_wrong = _gaussian_pdf(observed_error, *self.gauss_k_given_wrong)
        like_right = _gaussian_pdf(observed_error, *self.gauss_k_given_right)
        prior_wrong = self.p_wrong_prior
        numerator = like_wrong * prior_wrong
        denominator = numerator + like_right * (1.0 - prior_wrong)
        if denominator <= 0:
            return BernoulliError(prior_wrong)
        return BernoulliError(numerator / denominator)


def _moments(values: np.ndarray) -> Tuple[float, float]:
    """Mean and population variance of a non-empty compact float array.

    Bit for bit what ``np.mean`` and ``np.var`` return: the same
    ``np.add.reduce`` sums and divisions by the count, without their
    per-call overhead.
    """
    count = len(values)
    mean = np.add.reduce(values) / count
    deviation = values - mean
    return float(mean), float(np.add.reduce(deviation * deviation) / count)


def _clip(value: float, low: float, high: float) -> float:
    """``np.clip`` of one float (NaN stays NaN), without its call overhead."""
    return min(max(value, low), high)


def _bernoulli_rate(values: np.ndarray) -> float:
    """Smoothed error rate (Laplace +1/+2) of a 0/1 error vector."""
    return float((np.count_nonzero(values) + 1.0) / (len(values) + 2.0))


def _gaussian(values: np.ndarray) -> Tuple[float, float]:
    """Mean and floored variance of ``values``; ``(0, 1)`` when empty."""
    if len(values) == 0:
        return 0.0, 1.0
    mean, var = _moments(values)
    return mean, max(var, _VAR_FLOOR)


def _gaussian_pdf(x: float, mean: float, variance: float) -> float:
    variance = max(variance, 1e-9)
    return float(
        np.exp(-((x - mean) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    )


def python_squares(values: np.ndarray) -> np.ndarray:
    """``value ** 2`` of every value, through Python's float power.

    The scalar path squares Python floats, which calls the C library's
    ``pow``; numpy squares by multiplying, which rounds differently about
    once in a thousand values.
    """
    return np.array([value ** 2 for value in values.tolist()], dtype=float)


def _table_pdfs(x: np.ndarray, mean, two_variance, root) -> np.ndarray:
    """:func:`_gaussian_pdf` of each ``x``, from its floored variance's
    ``2 * variance`` and ``sqrt(2 * pi * variance)``."""
    return np.exp(-python_squares(x - mean) / two_variance) / root


#: The C x C tables :meth:`AttributeCorrelationModel.conditionals_batch`
#: reads, by Table 5 case: (a) both categorical, (b) both continuous,
#: (c) continuous target given a categorical column, (d) the reverse.
_TABLE_FIELDS = (
    "weight",                                     # |W_jk| of usable pairs
    "p_right", "p_wrong",                         # (a)
    "mean_j", "mean_k", "slope", "variance",      # (b)
    "mean_right", "variance_right", "mean_wrong", "variance_wrong",  # (c)
    "prior",                                      # (d) and its pdfs of e_k:
    "pdf_mean_right", "pdf_two_var_right", "pdf_root_right",
    "pdf_mean_wrong", "pdf_two_var_wrong", "pdf_root_wrong",
)


class AttributeCorrelationModel:
    """Learned marginal and pairwise error models over the table's columns."""

    def __init__(
        self,
        schema: TableSchema,
        marginals: Dict[int, object],
        pair_models: Dict[Tuple[int, int], _PairStats],
        weights: Dict[Tuple[int, int], float],
    ) -> None:
        self.schema = schema
        self._marginals = marginals
        self._pair_models = pair_models
        self._weights = weights
        self._tables = None

    # -- fitting -------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        answers: AnswerSet,
        result: InferenceResult,
        min_pairs: int = 5,
    ) -> "AttributeCorrelationModel":
        """Fit the correlation model from all collected answers.

        ``min_pairs`` is the minimum number of (worker, row) pairs with
        answers on both columns required to fit a pairwise model; column
        pairs below the threshold fall back to the marginal model.
        """
        schema = answers.schema
        num_cols = schema.num_columns
        rows, cols, workers, errors = _answer_errors(answers, result)

        marginals: Dict[int, object] = {}
        for j, column in enumerate(schema.columns):
            values = errors[cols == j]
            if column.is_categorical:
                marginals[j] = BernoulliError(_bernoulli_rate(values))
            else:
                marginals[j] = GaussianError(*_gaussian(values))

        # Paired errors: the same worker on the same row answered both
        # columns.  One table row per (worker, row), in order of its first
        # answer; a repeated (worker, row, col) keeps its last answer.
        num_answers = len(errors)
        worker_row = workers * schema.num_rows + rows
        last_from_end = np.unique(
            (worker_row * num_cols + cols)[::-1], return_index=True
        )[1]
        last = num_answers - 1 - last_from_end
        first, group = np.unique(
            worker_row, return_index=True, return_inverse=True
        )[1:]
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        table_rows = rank[group[last]]
        table = np.zeros((num_cols, len(first)))
        present = np.zeros((num_cols, len(first)), dtype=bool)
        table[cols[last], table_rows] = errors[last]
        present[cols[last], table_rows] = True

        pair_models: Dict[Tuple[int, int], _PairStats] = {}
        weights: Dict[Tuple[int, int], float] = {}
        categorical = [column.is_categorical for column in schema.columns]
        for col_j in range(num_cols):
            for col_k in range(col_j + 1, num_cols):
                both = present[col_j] & present[col_k]
                count = int(np.count_nonzero(both))
                if count == 0 or count < min_pairs:
                    continue
                j_given_k, k_given_j, weight = _PairStats.fit_pair(
                    categorical[col_j],
                    categorical[col_k],
                    table[col_j][both],
                    table[col_k][both],
                )
                pair_models[(col_j, col_k)] = j_given_k
                pair_models[(col_k, col_j)] = k_given_j
                weights[(col_j, col_k)] = weights[(col_k, col_j)] = weight
        return cls(schema, marginals, pair_models, weights)

    # -- queries -------------------------------------------------------------

    def has_pair(self, target_col: int, given_col: int) -> bool:
        """True if a pairwise model was fitted for (target | given)."""
        return (target_col, given_col) in self._pair_models

    def weight(self, target_col: int, given_col: int) -> float:
        """Correlation coefficient ``W_jk`` of Eq. 8 (0 if not fitted)."""
        return self._weights.get((target_col, given_col), 0.0)

    def marginal_error(self, col: int):
        """Marginal error distribution ``P(e_j)`` of Table 4."""
        try:
            return self._marginals[col]
        except KeyError as exc:
            raise DataError(f"No marginal error model for column {col}") from exc

    def conditional_error(self, target_col: int, given_col: int, observed_error: float):
        """``P(e_j | e_k = observed_error)`` of Table 5.

        Falls back to the marginal of the target column when the pair was
        not fitted (too few joint observations).
        """
        pair = self._pair_models.get((target_col, given_col))
        if pair is None:
            return self.marginal_error(target_col)
        return pair.conditional(observed_error)

    def predict_error(self, target_col: int, observed_errors: Dict[int, float]):
        """Combine the conditionals for all observed columns via Eq. 7.

        ``observed_errors`` maps column index -> the worker's observed error
        on that column (same row).  Returns a :class:`BernoulliError` or
        :class:`GaussianError` for the target column, or the marginal if no
        usable evidence exists.
        """
        conditionals = []
        weights = []
        for given_col, observed in observed_errors.items():
            if given_col == target_col or not self.has_pair(target_col, given_col):
                continue
            weight = abs(self.weight(target_col, given_col))
            if weight <= 1e-9:
                continue
            conditionals.append(self.conditional_error(target_col, given_col, observed))
            weights.append(weight)
        if not conditionals:
            return self.marginal_error(target_col)
        weights = np.asarray(weights, dtype=float)
        weights = weights / weights.sum()
        if self.schema.columns[target_col].is_categorical:
            p_wrong = float(
                np.sum(weights * np.array([c.p_wrong for c in conditionals]))
            )
            return BernoulliError(p_wrong)
        means = np.array([c.mean for c in conditionals])
        variances = np.array([c.variance for c in conditionals])
        mixture_mean = float(np.sum(weights * means))
        mixture_second = float(np.sum(weights * (variances + means**2)))
        return GaussianError(mixture_mean, max(mixture_second - mixture_mean**2, 1e-9))

    # -- batched queries -----------------------------------------------------

    def tables(self) -> SimpleNamespace:
        """The fitted pairs as C x C arrays indexed ``[target, given]``.

        ``usable`` marks the pairs :meth:`predict_error` combines (fitted,
        with ``|W_jk| > 1e-9``); ``weight`` holds their ``|W_jk|`` and the
        ``_TABLE_FIELDS`` arrays their Table 5 parameters, each computed
        with the scalar arithmetic of :meth:`_PairStats.conditional`.
        Entries of other pairs are zero.  ``categorical`` flags the
        categorical columns.  Built once per model.
        """
        if self._tables is None:
            size = self.schema.num_columns
            tables = SimpleNamespace(
                usable=np.zeros((size, size), dtype=bool),
                categorical=np.array(
                    [column.is_categorical for column in self.schema.columns], dtype=bool
                ),
            )
            for name in _TABLE_FIELDS:
                setattr(tables, name, np.zeros((size, size)))
            for (j, k), pair in self._pair_models.items():
                weight = abs(self.weight(j, k))
                if weight <= 1e-9:
                    continue
                tables.usable[j, k] = True
                tables.weight[j, k] = weight
                if pair.target_categorical and pair.given_categorical:
                    tables.p_right[j, k] = BernoulliError(pair.p_wrong_given_right).p_wrong
                    tables.p_wrong[j, k] = BernoulliError(pair.p_wrong_given_wrong).p_wrong
                elif not pair.target_categorical and not pair.given_categorical:
                    tables.mean_j[j, k] = pair.mean_j
                    tables.mean_k[j, k] = pair.mean_k
                    tables.slope[j, k] = pair.cov / pair.var_k
                    tables.variance[j, k] = GaussianError(
                        0.0, pair.var_j - pair.cov**2 / pair.var_k
                    ).variance
                elif not pair.target_categorical:
                    for side, (mean, variance) in (
                        ("right", pair.gauss_given_right),
                        ("wrong", pair.gauss_given_wrong),
                    ):
                        getattr(tables, f"mean_{side}")[j, k] = mean
                        getattr(tables, f"variance_{side}")[j, k] = GaussianError(
                            mean, variance
                        ).variance
                else:
                    tables.prior[j, k] = pair.p_wrong_prior
                    for side, (mean, variance) in (
                        ("right", pair.gauss_k_given_right),
                        ("wrong", pair.gauss_k_given_wrong),
                    ):
                        variance = max(variance, 1e-9)
                        getattr(tables, f"pdf_mean_{side}")[j, k] = mean
                        getattr(tables, f"pdf_two_var_{side}")[j, k] = 2.0 * variance
                        getattr(tables, f"pdf_root_{side}")[j, k] = np.sqrt(
                            2.0 * np.pi * variance
                        )
            self._tables = tables
        return self._tables

    def conditionals_batch(
        self, target: np.ndarray, given: np.ndarray, observed: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`conditional_error` of many usable pairs at once.

        ``target``, ``given`` and ``observed`` are aligned arrays over
        pairs marked ``usable`` in :meth:`tables`.  Returns ``(p_wrong,
        mean, variance)``: ``p_wrong`` is the Bernoulli conditional of a
        categorical target, ``mean`` and ``variance`` the Gaussian one of a
        continuous target (the other entries are zero).  Each value equals
        the scalar :class:`BernoulliError` / :class:`GaussianError` field
        bit for bit.
        """
        tables = self.tables()
        target_categorical = tables.categorical[target]
        given_categorical = tables.categorical[given]
        right = observed == 0.0
        p_wrong = np.zeros(len(target))
        mean = np.zeros(len(target))
        variance = np.zeros(len(target))

        # (a) Bernoulli conditionals picked by the given answer.
        case = target_categorical & given_categorical
        j, k = target[case], given[case]
        p_wrong[case] = np.where(right[case], tables.p_right[j, k], tables.p_wrong[j, k])
        # (b) the conditioned bivariate Gaussian.
        case = ~target_categorical & ~given_categorical
        j, k = target[case], given[case]
        mean[case] = tables.mean_j[j, k] + tables.slope[j, k] * (
            observed[case] - tables.mean_k[j, k]
        )
        variance[case] = tables.variance[j, k]
        # (c) the Gaussian picked by the given answer.
        case = ~target_categorical & given_categorical
        j, k = target[case], given[case]
        mean[case] = np.where(right[case], tables.mean_right[j, k], tables.mean_wrong[j, k])
        variance[case] = np.where(
            right[case], tables.variance_right[j, k], tables.variance_wrong[j, k]
        )
        # (d) Bayes over the given column's two Gaussians.
        case = target_categorical & ~given_categorical
        j, k, x = target[case], given[case], observed[case]
        like_wrong = _table_pdfs(x, tables.pdf_mean_wrong[j, k],
                                 tables.pdf_two_var_wrong[j, k], tables.pdf_root_wrong[j, k])
        like_right = _table_pdfs(x, tables.pdf_mean_right[j, k],
                                 tables.pdf_two_var_right[j, k], tables.pdf_root_right[j, k])
        prior = tables.prior[j, k]
        numerator = like_wrong * prior
        denominator = numerator + like_right * (1.0 - prior)
        with np.errstate(divide="ignore", invalid="ignore"):
            posterior = np.where(denominator <= 0, prior, numerator / denominator)
        p_wrong[case] = np.clip(posterior, 0.0, 1.0)
        return p_wrong, mean, variance


def _answer_errors(answers: AnswerSet, result: InferenceResult):
    """Every answer's row, column, worker index and error, in answer order.

    The error against :meth:`InferenceResult.estimate_codes`: the answer
    minus the estimate on a continuous column, 0 (the estimated label) or
    1 (another label) on a categorical one.
    """
    if len(answers) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.empty(0)
    indexed = answers.indexed()
    return (indexed.rows, indexed.cols, indexed.workers,
            _errors(indexed, result, slice(None)))


def worker_answer_errors(answers: AnswerSet, result: InferenceResult, worker: str):
    """Row, column and error (as in :func:`_answer_errors`) of each of
    ``worker``'s answers, in answer order; ``None`` if they gave none."""
    if len(answers) == 0:
        return None
    indexed = answers.indexed()
    index = indexed.worker_index.get(worker)
    if index is None:
        return None
    mine = np.flatnonzero(indexed.workers == index)
    return indexed.rows[mine], indexed.cols[mine], _errors(indexed, result, mine)


def _errors(indexed, result: InferenceResult, which) -> np.ndarray:
    """Errors of the ``which`` answers of ``indexed`` against ``result``."""
    codes = result.estimate_codes()[
        indexed.rows[which] * result.schema.num_columns + indexed.cols[which]
    ]
    errors = indexed.values[which] - codes
    categorical = indexed.is_categorical[which]
    errors[categorical] = indexed.label_indices[which][categorical] != codes[categorical]
    return errors


def _pearson(
    count: int,
    moments_x: Tuple[float, float],
    moments_y: Tuple[float, float],
    cross: float,
) -> float:
    """Pearson correlation coefficient (Eq. 8), 0 for degenerate vectors.

    From the pair's moments: each side's ``(mean, variance)`` and
    ``cross``, the mean of their product.
    """
    if count < 2:
        return 0.0
    (mean_x, var_x), (mean_y, var_y) = moments_x, moments_y
    std_x = math.sqrt(var_x)
    std_y = math.sqrt(var_y)
    if std_x < 1e-12 or std_y < 1e-12:
        return 0.0
    cov = cross - mean_x * mean_y
    return _clip(cov / (std_x * std_y), -1.0, 1.0)
