"""The columnar §5.2 correlation fit, pinned bit for bit to the loop it replaced.

``reference_fit`` below is the per-answer loop
:meth:`~repro.core.correlation.AttributeCorrelationModel.fit` ran before the
columnar pass, with the ``np.mean`` / ``np.var`` / ``np.std`` arithmetic of
the old ``_PairStats`` and ``_pearson``.  The columnar fit must equal it in
every marginal, every ``_PairStats`` attribute (the bytes of ``errors_j`` and
``errors_k`` included) and every weight.

The degenerate-input matrix at the end checks that EM, the correlation fit
and the structure-aware gains stay finite on inputs with little or odd data.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.correlation import AttributeCorrelationModel, BernoulliError, GaussianError
from repro.core.inference import TCrowdModel
from repro.core.schema import MAX_ANSWER_MAGNITUDE, Column, TableSchema
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.datasets import load_celebrity

FAST_MODEL = {"max_iterations": 6, "m_step_iterations": 10}


# -- the reference loop --------------------------------------------------------


def _reference_var(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 1e-6
    return float(max(np.var(values), 1e-6))


def _reference_rate(values: np.ndarray) -> float:
    return float((np.sum(values) + 1.0) / (len(values) + 2.0))


def _reference_gaussian(values: np.ndarray, fallback: np.ndarray) -> Tuple[float, float]:
    source = values if len(values) >= 2 else fallback
    if len(source) == 0:
        return 0.0, 1.0
    return float(np.mean(source)), _reference_var(source)


def _reference_pair(target_categorical, given_categorical, ej, ek) -> dict:
    """The attributes the old ``_PairStats(...)`` constructor set."""
    stats = {
        "target_categorical": target_categorical,
        "given_categorical": given_categorical,
        "errors_j": ej,
        "errors_k": ek,
    }
    if target_categorical and given_categorical:
        stats["p_wrong_given_right"] = _reference_rate(ej[ek == 0.0])
        stats["p_wrong_given_wrong"] = _reference_rate(ej[ek == 1.0])
    elif not target_categorical and not given_categorical:
        stats["mean_j"] = float(np.mean(ej))
        stats["mean_k"] = float(np.mean(ek))
        stats["var_j"] = _reference_var(ej)
        stats["var_k"] = _reference_var(ek)
        if len(ej) > 1:
            cov = float(np.mean(ej * ek)) - stats["mean_j"] * stats["mean_k"]
        else:
            cov = 0.0
        limit = 0.999 * np.sqrt(stats["var_j"] * stats["var_k"])
        stats["cov"] = float(np.clip(cov, -limit, limit))
    elif not target_categorical and given_categorical:
        stats["gauss_given_right"] = _reference_gaussian(ej[ek == 0.0], fallback=ej)
        stats["gauss_given_wrong"] = _reference_gaussian(ej[ek == 1.0], fallback=ej)
    else:
        stats["p_wrong_prior"] = _reference_rate(ej)
        stats["gauss_k_given_right"] = _reference_gaussian(ek[ej == 0.0], fallback=ek)
        stats["gauss_k_given_wrong"] = _reference_gaussian(ek[ej == 1.0], fallback=ek)
    return stats


def _reference_pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    mean_x = float(np.mean(x))
    mean_y = float(np.mean(y))
    std_x = float(np.std(x))
    std_y = float(np.std(y))
    if std_x < 1e-12 or std_y < 1e-12:
        return 0.0
    cov = float(np.mean(x * y)) - mean_x * mean_y
    return float(np.clip(cov / (std_x * std_y), -1.0, 1.0))


def reference_fit(answers: AnswerSet, result, min_pairs: int = 5):
    """The per-answer fit loop: ``(marginals, pair attributes, weights)``."""
    schema = answers.schema
    errors_by_cell: Dict[Tuple[str, int, int], float] = {}
    errors_by_col: Dict[int, List[float]] = {j: [] for j in range(schema.num_columns)}
    for answer in answers:
        # T^hat from the posterior object, independent of estimate_codes().
        estimate = result.posterior(answer.row, answer.col).point_estimate()
        if schema.columns[answer.col].is_categorical:
            error = 0.0 if answer.value == estimate else 1.0
        else:
            error = float(answer.value) - float(estimate)
        errors_by_cell[(answer.worker, answer.row, answer.col)] = error
        errors_by_col[answer.col].append(error)

    marginals = {}
    for j, column in enumerate(schema.columns):
        values = np.asarray(errors_by_col[j], dtype=float)
        if column.is_categorical:
            marginals[j] = BernoulliError(_reference_rate(values))
        else:
            marginals[j] = GaussianError(*_reference_gaussian(values, values))

    paired: Dict[Tuple[int, int], Tuple[List[float], List[float]]] = {}
    by_worker_row: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
    for (worker, row, col), error in errors_by_cell.items():
        by_worker_row.setdefault((worker, row), []).append((col, error))
    for observations in by_worker_row.values():
        for col_j, err_j in observations:
            for col_k, err_k in observations:
                if col_j == col_k:
                    continue
                bucket = paired.setdefault((col_j, col_k), ([], []))
                bucket[0].append(err_j)
                bucket[1].append(err_k)

    pairs, weights = {}, {}
    for (col_j, col_k), (list_j, list_k) in paired.items():
        if len(list_j) < min_pairs:
            continue
        ej = np.asarray(list_j, dtype=float)
        ek = np.asarray(list_k, dtype=float)
        pairs[(col_j, col_k)] = _reference_pair(
            schema.columns[col_j].is_categorical,
            schema.columns[col_k].is_categorical,
            ej,
            ek,
        )
        weights[(col_j, col_k)] = _reference_pearson(ej, ek)
    return marginals, pairs, weights


# -- bit-for-bit comparison -----------------------------------------------------


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_same(want, got, where) -> None:
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), where
        for index, (w, g) in enumerate(zip(want, got)):
            _assert_same(w, g, f"{where}[{index}]")
    elif isinstance(want, bool):
        assert got is want, where
    else:
        assert _bits(got) == _bits(want), (where, want, got)


def assert_fit_matches_reference(answers, result, min_pairs, model=None):
    """Fit both ways (or check ``model``) and compare every bit."""
    if model is None:
        model = AttributeCorrelationModel.fit(answers, result, min_pairs=min_pairs)
    marginals, pairs, weights = reference_fit(answers, result, min_pairs)
    assert sorted(model._marginals) == sorted(marginals)
    for col, want in marginals.items():
        got = model._marginals[col]
        assert type(got) is type(want), col
        for name, value in vars(want).items():
            _assert_same(value, getattr(got, name), f"marginal {col}.{name}")
    assert sorted(model._pair_models) == sorted(pairs)
    for key, want in pairs.items():
        got = vars(model._pair_models[key])
        assert sorted(got) == sorted(want), key
        for name, value in want.items():
            _assert_same(value, got[name], f"pair {key}.{name}")
    assert sorted(model._weights) == sorted(weights)
    for key, want in weights.items():
        _assert_same(want, model._weights[key], f"weight {key}")
    return model


# -- inputs -----------------------------------------------------------------------


def _small_schema(num_rows: int = 6) -> TableSchema:
    return TableSchema.build(
        "item",
        (
            Column.categorical("color", ("red", "green", "blue")),
            Column.categorical("size", ("small", "large")),
            Column.continuous("weight", (0.0, 100.0)),
            Column.continuous("price", (0.0, 1000.0)),
            Column.categorical("shape", ("round", "square", "flat", "odd")),
        ),
        num_rows=num_rows,
    )


def _random_answers(schema, seed, workers=6, per_cell=3, skip_cols=()) -> AnswerSet:
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    names = [f"w{u}" for u in range(workers)]
    for row in range(schema.num_rows):
        for col, column in enumerate(schema.columns):
            if col in skip_cols:
                continue
            for worker in rng.choice(names, size=per_cell, replace=False):
                if column.is_categorical:
                    value = column.labels[int(rng.integers(column.num_labels))]
                else:
                    low, high = column.domain
                    value = float(rng.uniform(low, high))
                answers.add_answer(str(worker), row, col, value)
    return answers


def _with_repeats(schema, seed) -> AnswerSet:
    """Workers re-answer cells they answered before, with new values, in an
    interleaved order: the last value must win at the first position."""
    base = _random_answers(schema, seed)
    answers = base.copy()
    rng = np.random.default_rng(seed + 100)
    for index in rng.choice(len(base), size=len(base) // 3, replace=False):
        answer = base[int(index)]
        column = schema.columns[answer.col]
        if column.is_categorical:
            value = column.labels[int(rng.integers(column.num_labels))]
        else:
            value = float(answer.value) + float(rng.normal(0.0, 5.0))
        answers.add_answer(answer.worker, answer.row, answer.col, value)
    return answers


def _stale_result_state(seed):
    """A result fitted before the last answers arrived, some of them on
    cells it never saw: those cells use the prior estimate."""
    schema = _small_schema(num_rows=8)
    full = _random_answers(schema, seed, workers=7)
    early = AnswerSet(schema, [a for a in full if a.row < 5])
    result = TCrowdModel(**FAST_MODEL).fit(schema, early)
    return full, result


@pytest.fixture(scope="module")
def golden_fits():
    """Every correlation fit of the golden-trace session, as it ran."""
    from test_golden_trace import replay_session

    fits = []
    original = AttributeCorrelationModel.__dict__["fit"].__func__

    def fit(cls, answers, result, min_pairs=5):
        model = original(cls, answers, result, min_pairs=min_pairs)
        fits.append((answers.copy(), result, min_pairs, model))
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AttributeCorrelationModel, "fit", classmethod(fit))
        replay_session("incremental")
    assert len(fits) >= 5
    return fits


class TestColumnarFitMatchesTheLoop:
    def test_every_golden_trace_fit(self, golden_fits):
        for answers, result, min_pairs, model in golden_fits:
            assert_fit_matches_reference(answers, result, min_pairs, model=model)

    @pytest.mark.parametrize("min_pairs", [0, 1, 5])
    def test_crowdbench_shaped_state(self, min_pairs):
        """174 x 7 with 60 workers, the paper-sync table's shape."""
        dataset = load_celebrity(seed=1, answers_per_task=2)
        assert (dataset.schema.num_rows, dataset.schema.num_columns) == (174, 7)
        result = TCrowdModel(**FAST_MODEL).fit(dataset.schema, dataset.answers)
        model = assert_fit_matches_reference(dataset.answers, result, min_pairs)
        assert len(model._pair_models) == 42

    @pytest.mark.parametrize("min_pairs", [0, 1, 5])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_repeated_worker_row_col_answers(self, seed, min_pairs):
        schema = _small_schema()
        answers = _with_repeats(schema, seed)
        result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
        assert_fit_matches_reference(answers, result, min_pairs)

    @pytest.mark.parametrize("min_pairs", [0, 1, 5])
    def test_result_older_than_its_answers(self, min_pairs):
        answers, result = _stale_result_state(seed=5)
        seen = set(result.answered_cells())
        unseen = [a for a in answers if a.row >= 5]
        assert unseen and all((a.row, a.col) not in seen for a in unseen)
        assert_fit_matches_reference(answers, result, min_pairs)

    @pytest.mark.parametrize("min_pairs", [0, 1, 5])
    def test_column_with_no_answers(self, min_pairs):
        schema = _small_schema()
        answers = _random_answers(schema, seed=6, skip_cols=(1, 3))
        result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
        model = assert_fit_matches_reference(answers, result, min_pairs)
        assert not any(1 in key or 3 in key for key in model._pair_models)

    def test_sparse_pairs_around_the_threshold(self):
        """Few (worker, row) pairs share columns, so pairs land on both sides
        of ``min_pairs`` and some sides of a split hold fewer than two."""
        schema = _small_schema(num_rows=10)
        answers = _random_answers(schema, seed=8, workers=12, per_cell=1)
        result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
        for min_pairs in range(0, 7):
            assert_fit_matches_reference(answers, result, min_pairs)

    def test_empty_answer_set(self, fitted_result, mixed_schema):
        assert_fit_matches_reference(AnswerSet(mixed_schema), fitted_result, 5)


# -- degenerate inputs ------------------------------------------------------------


def _degenerate_single_worker(schema):
    return _random_answers(schema, seed=11, workers=1, per_cell=1)


def _degenerate_unanimous(schema):
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        for col, column in enumerate(schema.columns):
            value = column.labels[row % column.num_labels] if column.is_categorical else 10.0 * row
            for worker in ("a", "b", "c", "d"):
                answers.add_answer(worker, row, col, value)
    return answers


def _degenerate_zero_variance_column(schema):
    answers = _random_answers(schema, seed=12, skip_cols=(2,))
    for row in range(schema.num_rows):
        for worker in ("w0", "w1", "w2"):
            answers.add_answer(worker, row, 2, 42.0)
    return answers


def _degenerate_column_without_answers(schema):
    return _random_answers(schema, seed=13, skip_cols=(3,))


def _degenerate_single_answer(schema):
    answers = AnswerSet(schema)
    answers.add_answer("solo", 0, 2, 5.0)
    return answers


def _degenerate_same_cell_twice(schema):
    answers = _random_answers(schema, seed=14)
    answers.add_answer("w0", 0, 0, "blue")
    answers.add_answer("w0", 0, 0, "red")
    answers.add_answer("w0", 0, 2, 1.0)
    answers.add_answer("w0", 0, 2, 99.0)
    return answers


def _degenerate_largest_magnitude(schema):
    """One worker answers both continuous columns at the bound, with signs
    that alternate by row, so the pair's error covariance is as large as
    accepted answers can make it; another adds a lone opposite extreme."""
    answers = _random_answers(schema, seed=15)
    for row in range(schema.num_rows):
        extreme = MAX_ANSWER_MAGNITUDE * (-1) ** row
        answers.add_answer("w1", row, 2, extreme)
        answers.add_answer("w1", row, 3, extreme)
    answers.add_answer("w2", 1, 3, -MAX_ANSWER_MAGNITUDE)
    return answers


DEGENERATE = {
    "single_worker": _degenerate_single_worker,
    "unanimous": _degenerate_unanimous,
    "zero_variance_continuous_column": _degenerate_zero_variance_column,
    "column_without_answers": _degenerate_column_without_answers,
    "single_answer": _degenerate_single_answer,
    "same_cell_twice": _degenerate_same_cell_twice,
    "largest_accepted_magnitude": _degenerate_largest_magnitude,
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_stay_finite(case):
    """EM estimates, the correlation model and the structure-aware gains are
    finite, and the columnar fit equals the loop, on each degenerate input."""
    schema = _small_schema()
    answers = DEGENERATE[case](schema)
    result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
    for (row, col), value in result.estimates().items():
        if schema.columns[col].is_continuous:
            assert np.isfinite(value), (case, row, col, value)
    model = assert_fit_matches_reference(answers, result, min_pairs=1)
    for col in range(schema.num_columns):
        marginal = model.marginal_error(col)
        assert all(np.isfinite(v) for v in vars(marginal).values()), (case, col)
    assert all(np.isfinite(w) for w in model._weights.values()), case
    calculator = StructureAwareGainCalculator(result, answers, correlation_model=model)
    cells = list(schema.cells())
    for worker in answers.workers + ["newcomer"]:
        gains = calculator.gains_batch(worker, cells)
        assert np.all(np.isfinite(gains)), (case, worker)
