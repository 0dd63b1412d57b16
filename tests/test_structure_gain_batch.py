"""The masked structure-aware gains pass, pinned bit for bit to the loop it replaced.

``reference_gains_batch`` below is the per-candidate loop
:meth:`~repro.core.structure_gain.StructureAwareGainCalculator.gains_batch`
ran before the masked pass: one
:meth:`~repro.core.correlation.AttributeCorrelationModel.predict_error` call
per candidate with structural evidence, then the inherent pass over the
dense ``(rows, cols)`` posterior grids it built before it gathered the
candidate cells only.  The masked pass must give the same override arrays
and the same gain bytes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.correlation import AttributeCorrelationModel, answer_error, python_squares
from repro.core.inference import VARIANCE_FLOOR, TCrowdModel
from repro.core.information_gain import InformationGainCalculator
from repro.core.schema import Column, TableSchema
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.datasets import load_celebrity
from repro.engine import AsyncRefitPolicy

FAST_MODEL = {"max_iterations": 6, "m_step_iterations": 10}


# -- the reference loop --------------------------------------------------------


class _GridInherent(InformationGainCalculator):
    """The inherent pass reading the dense posterior grids it used to build."""

    def _posterior_variances(self, rows, cols):
        result = self.result
        prior = np.maximum(
            np.asarray(result.column_scale, dtype=float) ** 2, VARIANCE_FLOOR
        )
        grid = np.tile(prior, (result.schema.num_rows, 1))
        grid.reshape(-1)[result.cont_keys] = result.cont_var
        return grid[rows, cols]

    def _label_probs(self, rows, cols):
        result = self.result
        schema = result.schema
        grid = np.zeros((schema.num_rows, schema.num_columns, max(self._max_labels, 1)))
        for col in np.flatnonzero(self._column_is_categorical):
            count = self._num_labels_per_col[col]
            grid[:, col, :count] = 1.0 / count
        width = result.cat_probs.shape[1]
        grid.reshape(-1, grid.shape[2])[result.cat_keys, :width] = result.cat_probs
        return grid[rows, cols]


def reference_gains_batch(result, answers, correlation, worker, cells):
    """``(gains, quality overrides, variance overrides, path counts)``."""
    cells = [(int(row), int(col)) for row, col in cells]
    quality_overrides = np.full(len(cells), np.nan)
    variance_overrides = np.full(len(cells), np.nan)
    paths = {"inherent": 0, "marginal": 0, "combined": 0, "eight_or_more": 0}
    worker_rows: Dict[int, list] = {}
    for answer in answers.answers_by_worker(worker):
        worker_rows.setdefault(answer.row, []).append(answer)
    errors_by_row: Dict[int, Dict[int, float]] = {}
    columns = result.schema.columns
    for idx, (row, col) in enumerate(cells):
        row_answers = worker_rows.get(row)
        if not row_answers:
            continue
        errors = errors_by_row.get(row)
        if errors is None:
            errors = {answer.col: answer_error(answer, result) for answer in row_answers}
            errors_by_row[row] = errors
        observed = {c: e for c, e in errors.items() if c != col}
        if not observed:
            paths["inherent"] += 1
            continue
        usable = sum(
            correlation.has_pair(col, given) and not abs(correlation.weight(col, given)) <= 1e-9
            for given in observed
        )
        paths["marginal" if usable == 0 else "combined" if usable < 8 else "eight_or_more"] += 1
        predicted = correlation.predict_error(col, observed)
        if columns[col].is_categorical:
            quality_overrides[idx] = predicted.quality()
        else:
            variance_overrides[idx] = max(predicted.second_moment(), 1e-9)
    gains = _GridInherent(result).gains_batch(
        worker,
        cells,
        quality_overrides=quality_overrides,
        variance_overrides=variance_overrides,
    )
    return gains, quality_overrides, variance_overrides, paths


def masked_gains_batch(calculator, worker, cells):
    """``(gains, quality overrides, variance overrides)`` of the masked pass."""
    seen = {}
    inherent = calculator._inherent
    original = type(inherent).gains_batch

    def spy(worker, cells, quality_overrides=None, variance_overrides=None):
        seen.update(quality=quality_overrides, variance=variance_overrides, count=len(cells))
        return original(inherent, worker, cells, quality_overrides=quality_overrides,
                        variance_overrides=variance_overrides)

    inherent.gains_batch = spy
    try:
        gains = calculator.gains_batch(worker, cells)
    finally:
        del inherent.gains_batch
    assert seen["count"] == len(cells)
    return gains, seen["quality"], seen["variance"]


def assert_matches_reference(result, answers, correlation, worker, cells, served=None):
    """Score both ways and compare every byte (and the ``served`` gains of
    the recorded call, if given); return the reference paths."""
    calculator = StructureAwareGainCalculator(result, answers, correlation_model=correlation)
    gains, quality, variance = masked_gains_batch(calculator, worker, cells)
    want, want_quality, want_variance, paths = reference_gains_batch(
        result, answers, correlation, worker, cells
    )
    assert quality.tobytes() == want_quality.tobytes(), worker
    assert variance.tobytes() == want_variance.tobytes(), worker
    assert gains.dtype == want.dtype and gains.tobytes() == want.tobytes(), worker
    if served is not None:
        assert served.tobytes() == want.tobytes(), worker
    return paths


def _add_paths(total, paths):
    for name, count in paths.items():
        total[name] = total.get(name, 0) + count


# -- inputs ----------------------------------------------------------------------


def _all_cells(schema) -> np.ndarray:
    return np.array(list(schema.cells()), dtype=np.int64).reshape(-1, 2)


def _wide_schema(num_columns: int = 10, num_rows: int = 8) -> TableSchema:
    columns = []
    for col in range(num_columns):
        if col % 2:
            columns.append(Column.continuous(f"x{col}", (0.0, 100.0)))
        else:
            columns.append(Column.categorical(f"c{col}", ("a", "b", "c")))
    return TableSchema.build("item", tuple(columns), num_rows=num_rows)


def _random_value(column, rng):
    if column.is_categorical:
        return column.labels[int(rng.integers(column.num_labels))]
    low, high = column.domain
    return float(rng.uniform(low, high))


def _wide_answers(schema, seed) -> AnswerSet:
    """Workers answer whole rows, so every pair is fitted; ``full`` answers
    every column of row 0 and ``most`` all but two columns of row 1."""
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        for worker in rng.choice([f"w{u}" for u in range(6)], size=3, replace=False):
            for col, column in enumerate(schema.columns):
                answers.add_answer(str(worker), row, col, _random_value(column, rng))
    for col, column in enumerate(schema.columns):
        answers.add_answer("full", 0, col, _random_value(column, rng))
        if col < schema.num_columns - 2:
            answers.add_answer("most", 1, col, _random_value(column, rng))
    return answers


def _with_repeats(schema, seed) -> AnswerSet:
    """Workers re-answer cells of rows they answered, interleaved with new
    cells, so a row's given columns are reordered against column order."""
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    names = [f"w{u}" for u in range(5)]
    for _ in range(6 * schema.num_cells // 2):
        row = int(rng.integers(schema.num_rows))
        col = int(rng.integers(schema.num_columns))
        worker = str(rng.choice(names))
        answers.add_answer(worker, row, col, _random_value(schema.columns[col], rng))
    return answers


@pytest.fixture(scope="module")
def golden_calls():
    """Every structure-aware ``gains_batch`` of the golden-trace sessions."""
    from test_golden_trace import CONFIGS, replay_session

    calls = []
    original = StructureAwareGainCalculator.gains_batch

    def gains_batch(self, worker, cells):
        gains = original(self, worker, cells)
        calls.append((self.result, self.answers.copy(), self.correlation, worker,
                      np.array(cells), gains))
        return gains

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StructureAwareGainCalculator, "gains_batch", gains_batch)
        for config in CONFIGS:
            replay_session(config)
    assert len(calls) >= 10
    return calls


@pytest.fixture(scope="module")
def gain_driven_state():
    """174 x 7 (the paper-sync table) after 30 gain-driven selects of 7."""
    dataset = load_celebrity(seed=1, answers_per_task=1)
    schema = dataset.schema
    answers = dataset.answers.copy()
    assigner = TCrowdAssigner(schema, model=TCrowdModel(**FAST_MODEL), refit_every=7)
    rng = np.random.default_rng(1)
    workers = dataset.worker_pool.worker_ids()
    for _ in range(30):
        worker = workers[int(rng.integers(len(workers)))]
        for row, col in assigner.select(worker, answers, k=7).cells:
            answers.add_answer(worker, row, col, dataset.oracle.answer(worker, row, col, rng))
    result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
    return schema, answers, result


# -- tests -------------------------------------------------------------------------


class TestMaskedPassMatchesTheLoop:
    def test_every_golden_trace_select(self, golden_calls):
        paths = {}
        for result, answers, correlation, worker, cells, gains in golden_calls:
            _add_paths(paths, assert_matches_reference(
                result, answers, correlation, worker, cells, served=gains))
        assert paths["combined"] > 0

    def test_gain_driven_paper_sync_state(self, gain_driven_state):
        schema, answers, result = gain_driven_state
        assert (schema.num_rows, schema.num_columns) == (174, 7)
        correlation = AttributeCorrelationModel.fit(answers, result)
        cells = _all_cells(schema)
        paths = {}
        for worker in answers.workers + ["newcomer"]:
            _add_paths(paths, assert_matches_reference(
                result, answers, correlation, worker, cells))
        assert paths["combined"] > 100 and paths["inherent"] > 0, paths

    @pytest.mark.parametrize("min_pairs", [0, 5, 10_000])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_repeated_worker_row_col_answers(self, seed, min_pairs):
        schema = _wide_schema(num_columns=5, num_rows=4)
        answers = _with_repeats(schema, seed)
        keys = [(a.worker, a.row, a.col) for a in answers]
        assert len(set(keys)) < len(keys)
        result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
        correlation = AttributeCorrelationModel.fit(answers, result, min_pairs=min_pairs)
        paths = {}
        for worker in answers.workers:
            _add_paths(paths, assert_matches_reference(
                result, answers, correlation, worker, _all_cells(schema)))
        if min_pairs == 10_000:
            assert paths["marginal"] > 0 and paths["combined"] == 0, paths

    @pytest.mark.parametrize("seed", [5, 6])
    def test_eight_usable_conditionals_take_the_scalar_path(self, seed):
        """Ten columns: ``full`` has 9 usable conditionals for every cell of
        row 0, ``most`` 8 outside its answers of row 1 and 7 inside."""
        schema = _wide_schema()
        answers = _wide_answers(schema, seed)
        result = TCrowdModel(**FAST_MODEL).fit(schema, answers)
        correlation = AttributeCorrelationModel.fit(answers, result, min_pairs=1)
        paths = {}
        for worker in ("full", "most", "w0", "newcomer"):
            _add_paths(paths, assert_matches_reference(
                result, answers, correlation, worker, _all_cells(schema)))
        assert paths["eight_or_more"] >= 12 and paths["combined"] > 0, paths

    def test_result_older_than_its_answers(self):
        schema = _wide_schema(num_columns=6)
        answers = _wide_answers(schema, seed=7)
        early = AnswerSet(schema, [a for a in answers if a.row < 5])
        result = TCrowdModel(**FAST_MODEL).fit(schema, early)
        correlation = AttributeCorrelationModel.fit(answers, result, min_pairs=1)
        for worker in answers.workers:
            assert_matches_reference(result, answers, correlation, worker, _all_cells(schema))

    def test_a_list_of_pairs_scores_like_the_array(self, gain_driven_state):
        schema, answers, result = gain_driven_state
        calculator = StructureAwareGainCalculator(result, answers)
        cells = _all_cells(schema)[::5]
        worker = answers.workers[3]
        as_pairs = calculator.gains_batch(worker, [tuple(cell) for cell in cells.tolist()])
        assert as_pairs.tobytes() == calculator.gains_batch(worker, cells).tobytes()
        assert calculator.gains_batch(worker, []).shape == (0,)


def test_python_squares_round_like_the_scalar_path():
    """The scalar path squares Python floats with ``pow``; the batched pass
    must too, where a numpy multiply rounds differently."""
    values = np.random.default_rng(0).standard_normal(20_000) * 1e3
    want = np.array([float(value) ** 2 for value in values])
    assert python_squares(values).tobytes() == want.tobytes()


@pytest.mark.parametrize("serving", ["sync", "async"])
def test_selects_score_the_candidate_array(gain_driven_state, serving):
    """Both calculators get every candidate in one ``(n, 2)`` array, and the
    assignment's cells are tuples of plain ints (they are hashed into the
    ledger)."""
    schema, answers, _result = gain_driven_state
    answers = answers.copy()
    assigner = TCrowdAssigner(schema, model=TCrowdModel(**FAST_MODEL))
    policy = assigner if serving == "sync" else AsyncRefitPolicy(assigner, max_stale_answers=0)
    worker = answers.workers[0]
    lengths = []
    originals = {}
    for owner in (StructureAwareGainCalculator, InformationGainCalculator):
        originals[owner] = owner.gains_batch

        def spy(self, worker, cells, *args, _original=originals[owner], **kwargs):
            assert isinstance(cells, np.ndarray) and cells.shape == (len(cells), 2)
            lengths.append(len(cells))
            return _original(self, worker, cells, *args, **kwargs)

        owner.gains_batch = spy
    try:
        assignment = policy.select(worker, answers, k=3)
    finally:
        for owner, original in originals.items():
            owner.gains_batch = original
    candidates = len(policy.candidate_cells(worker, answers))
    assert lengths == [candidates, candidates]
    assert len(assignment.cells) == 3
    assert all(type(value) is int for cell in assignment.cells for value in cell)
    assert all(type(cell) is tuple for cell in assignment.cells)
    assert all(type(gain) is float for gain in assignment.gains)
