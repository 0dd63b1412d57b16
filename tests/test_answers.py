"""Unit tests for answers and answer containers (repro.core.answers)."""

import numpy as np
import pytest

from repro.core.answers import _MIN_CAPACITY, Answer, AnswerSet, IndexedAnswers
from repro.core.schema import Column, TableSchema
from repro.utils.exceptions import DataError


@pytest.fixture()
def schema():
    return TableSchema.build(
        "entity",
        [
            Column.categorical("cat", ["a", "b", "c"]),
            Column.continuous("num", (0, 100)),
        ],
        4,
    )


@pytest.fixture()
def answers(schema):
    answer_set = AnswerSet(schema)
    answer_set.add_answer("w1", 0, 0, "a")
    answer_set.add_answer("w2", 0, 0, "b")
    answer_set.add_answer("w1", 0, 1, 10.0)
    answer_set.add_answer("w2", 0, 1, 12.0)
    answer_set.add_answer("w1", 1, 0, "c")
    answer_set.add_answer("w3", 1, 1, 55)
    return answer_set


class TestAnswer:
    def test_cell(self):
        assert Answer("w", 2, 3, "x").cell() == (2, 3)

    def test_answers_are_immutable(self):
        answer = Answer("w", 0, 0, "a")
        with pytest.raises(AttributeError):
            answer.value = "b"


class TestAnswerSet:
    def test_len_and_iteration(self, answers):
        assert len(answers) == 6
        assert len(list(answers)) == 6

    def test_getitem(self, answers):
        assert answers[0].worker == "w1"

    def test_add_validates_cell(self, schema):
        answer_set = AnswerSet(schema)
        with pytest.raises(DataError):
            answer_set.add_answer("w", 10, 0, "a")

    def test_add_validates_label(self, schema):
        answer_set = AnswerSet(schema)
        with pytest.raises(DataError):
            answer_set.add_answer("w", 0, 0, "not-a-label")

    def test_add_validates_numeric(self, schema):
        answer_set = AnswerSet(schema)
        with pytest.raises(DataError):
            answer_set.add_answer("w", 0, 1, "abc")

    def test_continuous_values_coerced_to_float(self, answers):
        stored = answers.answers_for_cell(1, 1)[0]
        assert isinstance(stored.value, float)
        assert stored.value == 55.0

    def test_answers_for_cell(self, answers):
        cell = answers.answers_for_cell(0, 0)
        assert {a.worker for a in cell} == {"w1", "w2"}
        assert answers.answers_for_cell(3, 0) == []

    def test_answers_by_worker(self, answers):
        assert len(answers.answers_by_worker("w1")) == 3
        assert answers.answers_by_worker("unknown") == []

    def test_answers_in_row_and_column(self, answers):
        assert len(answers.answers_in_row(0)) == 4
        assert len(answers.answers_in_column(1)) == 3

    def test_worker_answers_in_row(self, answers):
        in_row = answers.worker_answers_in_row("w1", 0)
        assert len(in_row) == 2
        assert all(a.row == 0 for a in in_row)

    def test_has_answered(self, answers):
        assert answers.has_answered("w1", 0, 0)
        assert not answers.has_answered("w3", 0, 0)

    def test_workers_in_first_seen_order(self, answers):
        assert answers.workers == ["w1", "w2", "w3"]
        assert answers.num_workers == 3

    def test_answer_counts(self, answers, schema):
        counts = answers.answer_counts()
        assert counts.shape == (schema.num_rows, schema.num_columns)
        assert counts[0, 0] == 2
        assert counts[3, 1] == 0
        assert counts.sum() == len(answers)

    def test_mean_answers_per_cell(self, answers, schema):
        expected = len(answers) / schema.num_cells
        assert answers.mean_answers_per_cell() == pytest.approx(expected)

    def test_copy_is_independent(self, answers):
        clone = answers.copy()
        clone.add_answer("w9", 3, 0, "a")
        assert len(clone) == len(answers) + 1

    def test_extend(self, schema):
        answer_set = AnswerSet(schema)
        answer_set.extend([Answer("w", 0, 0, "a"), Answer("w", 1, 0, "b")])
        assert len(answer_set) == 2

    def test_restricted_to_columns(self, answers):
        only_cat = answers.restricted_to_columns([0])
        assert len(only_cat) == 3
        assert all(a.col == 0 for a in only_cat)
        only_cont = answers.restricted_to_columns([1])
        assert len(only_cont) == 3

    def test_constructor_accepts_iterable(self, schema):
        answer_set = AnswerSet(schema, [Answer("w", 0, 0, "a")])
        assert len(answer_set) == 1


_VIEW_ARRAYS = (
    "rows", "cols", "workers", "values", "label_indices",
    "is_categorical", "is_continuous",
)


class TestIndexedAnswers:
    def test_empty_answer_set_rejected(self, schema):
        with pytest.raises(DataError):
            IndexedAnswers(AnswerSet(schema))

    def test_arrays_shapes(self, answers):
        indexed = answers.indexed()
        assert indexed.num_answers == len(answers)
        assert indexed.rows.shape == indexed.cols.shape == indexed.workers.shape
        assert indexed.num_workers == 3

    def test_categorical_vs_continuous_masks(self, answers):
        indexed = answers.indexed()
        assert int(indexed.is_categorical.sum()) == 3
        assert int(indexed.is_continuous.sum()) == 3
        # Label indices set only for categorical answers.
        assert np.all(indexed.label_indices[indexed.is_categorical] >= 0)
        assert np.all(indexed.label_indices[indexed.is_continuous] == -1)
        assert np.all(np.isnan(indexed.values[indexed.is_categorical]))
        assert np.all(~np.isnan(indexed.values[indexed.is_continuous]))

    def test_cell_indices_grouping(self, answers):
        indexed = answers.indexed()
        group = indexed.cell_indices(0, 0)
        assert len(group) == 2
        assert set(indexed.rows[group]) == {0}
        assert set(indexed.cols[group]) == {0}
        assert len(indexed.cell_indices(3, 0)) == 0

    def test_answered_cells(self, answers):
        indexed = answers.indexed()
        assert set(indexed.answered_cells()) == {
            (0, 0), (0, 1), (1, 0), (1, 1),
        }

    def test_worker_index_consistency(self, answers):
        indexed = answers.indexed()
        for idx, answer in enumerate(answers):
            assert indexed.worker_ids[indexed.workers[idx]] == answer.worker

    def test_views_survive_later_answers_and_capacity_doublings(self, schema):
        answer_set = AnswerSet(schema)
        take_at = (1, _MIN_CAPACITY - 1, _MIN_CAPACITY, _MIN_CAPACITY + 1, 2 * _MIN_CAPACITY)
        taken = {}
        for n in range(1, 2 * _MIN_CAPACITY + 2):
            col = n % 2
            value = "abc"[n % 3] if col == 0 else float(n)
            answer_set.add_answer(f"w{n % 5}", n % schema.num_rows, col, value)
            if n in take_at:
                view = answer_set.indexed()
                taken[n] = (view, {name: getattr(view, name).copy() for name in _VIEW_ARRAYS})
        assert len(answer_set._values) == 4 * _MIN_CAPACITY  # doubled twice
        for n, (view, arrays) in taken.items():
            assert view.num_answers == n
            for name, before in arrays.items():
                array = getattr(view, name)
                np.testing.assert_array_equal(array, before, err_msg=f"{name} at {n}")
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                view.rows[0] = 3

    def test_lookups_on_an_empty_set_build_no_view(self, schema):
        answer_set = AnswerSet(schema)
        assert answer_set.answers_for_cell(0, 0) == []
        assert answer_set.answers_in_row(0) == []
        assert answer_set.answer_count(0, 0) == 0
        assert answer_set.column_answer_count(0) == 0
        assert answer_set.answer_counts().sum() == 0
        assert not answer_set.has_answered("w", 0, 0)
        assert answer_set._indexed is None
