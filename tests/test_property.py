"""Property-based tests (hypothesis) for the assignment's selection steps.

Three families of properties:

* ``top_k_stable`` against the naive sorted oracle the seed implementation
  used — including heavy ties and negative gains.
* ``AssignmentPolicy.candidate_cells`` and ``has_open_cells`` against a
  recompute-from-scratch oracle, over randomized answer streams queried
  between answers — the cells derived from the answer arrays must always be
  what a full rescan of the answer set reports.
* ``AnswerSet``'s lookups and ``indexed()`` arrays against a scan of its
  :class:`~repro.core.answers.Answer` objects, after every answer of a
  stream.

The answer streams are longer than the answer columns' first capacity, so
every one of them crosses at least one capacity doubling.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import _MIN_CAPACITY, AnswerSet
from repro.core.assignment import TCrowdAssigner, top_k_stable
from repro.core.schema import Column, TableSchema

# -- top-K selection vs the seed implementation's sort ------------------------

#: Gains drawn from a small pool of values so ties are the norm, not the
#: exception — tie-breaking by ascending candidate index is the property
#: under test.
_gain_values = st.sampled_from([-1.5, -0.25, 0.0, 0.25, 0.25, 1.0, 1.0, 3.5])
_gain_arrays = st.lists(_gain_values, min_size=0, max_size=12)


def _oracle_top_k(gains: np.ndarray, k: int) -> list:
    """The seed path's ranking: stable descending sort, first k indexes."""
    ranked = sorted(
        range(len(gains)), key=lambda index: (-gains[index], index)
    )
    return ranked[:k]


class TestTopKProperties:
    @given(gains=_gain_arrays.filter(len), k=st.integers(min_value=1, max_value=15))
    @settings(max_examples=120, deadline=None)
    def test_top_k_stable_matches_oracle(self, gains, k):
        array = np.asarray(gains, dtype=float)
        assert list(top_k_stable(array, k)) == _oracle_top_k(array, k)


# -- candidate cells vs recompute-from-scratch --------------------------------

_NUM_ROWS = 5
_NUM_COLS = 3
_WORKERS = ("w0", "w1", "w2", "w3")


def _schema() -> TableSchema:
    columns = (
        Column.categorical("kind", ("a", "b")),
        Column.continuous("size", (0.0, 10.0)),
        Column.categorical("tone", ("x", "y", "z")),
    )
    return TableSchema.build("row", columns, num_rows=_NUM_ROWS)


_answer_events = st.tuples(
    st.sampled_from(_WORKERS),
    st.integers(min_value=0, max_value=_NUM_ROWS - 1),
    st.integers(min_value=0, max_value=_NUM_COLS - 1),
)

#: One simulated answer: who answered which cell (values are irrelevant to
#: the indexes, so a fixed per-column value suffices).
_events = st.lists(
    _answer_events, min_size=_MIN_CAPACITY + 1, max_size=2 * _MIN_CAPACITY
)


def _value_for(schema: TableSchema, col: int):
    column = schema.columns[col]
    return column.labels[0] if column.is_categorical else 1.0


def _scratch_counts(schema: TableSchema, answers: AnswerSet) -> np.ndarray:
    counts = np.zeros((schema.num_rows, schema.num_columns), dtype=np.int64)
    for answer in answers:
        counts[answer.row, answer.col] += 1
    return counts


def _scratch_candidates(schema, answers, worker, cap):
    counts = _scratch_counts(schema, answers)
    answered = {answer.cell() for answer in answers if answer.worker == worker}
    cells = []
    for row in range(schema.num_rows):
        for col in range(schema.num_columns):
            if cap is not None and counts[row, col] >= cap:
                continue
            if (row, col) in answered:
                continue
            cells.append((row, col))
    return cells


class TestSessionStateProperties:
    @given(events=_events, cap=st.sampled_from([None, 1, 2, 4]),
           query_every=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_incremental_indexes_match_scratch_recompute(
        self, events, cap, query_every
    ):
        schema = _schema()
        answers = AnswerSet(schema)
        policy = TCrowdAssigner(schema, max_answers_per_cell=cap)

        def check():
            scratch = _scratch_counts(schema, answers)
            open_cells = (
                int(np.sum(scratch < cap)) if cap is not None else schema.num_cells
            )
            assert policy.has_open_cells(answers) == (open_cells > 0)
            for worker in (*_WORKERS, "never-seen"):
                assert policy.candidate_cells(worker, answers) == _scratch_candidates(
                    schema, answers, worker, cap
                )

        check()
        for step, (worker, row, col) in enumerate(events):
            answers.add_answer(worker, row, col, _value_for(schema, col))
            if step % query_every == 0:
                check()
        check()


# -- answer lookups and arrays vs a scan of the answers -----------------------

#: Answers with varied values: the third field picks the label or number.
_valued_events = st.lists(
    st.tuples(_answer_events, st.integers(min_value=0, max_value=5)),
    min_size=_MIN_CAPACITY + 1,
    max_size=2 * _MIN_CAPACITY,
)


def _varied_value(schema: TableSchema, col: int, pick: int):
    column = schema.columns[col]
    if column.is_categorical:
        return column.labels[pick % len(column.labels)]
    return pick * 1.5


def _check_lookups(schema: TableSchema, answers: AnswerSet) -> None:
    scan = list(answers)
    workers = list(dict.fromkeys(answer.worker for answer in scan))
    assert answers.workers == workers
    assert answers.num_workers == len(workers)
    np.testing.assert_array_equal(answers.answer_counts(), _scratch_counts(schema, answers))
    for row, col in schema.cells():
        cell = [answer for answer in scan if answer.cell() == (row, col)]
        assert answers.answers_for_cell(row, col) == cell
        assert answers.answer_count(row, col) == len(cell)
        for worker in (*_WORKERS, "never-seen"):
            assert answers.has_answered(worker, row, col) == any(
                answer.worker == worker for answer in cell
            )
    for row in range(schema.num_rows):
        assert answers.answers_in_row(row) == [a for a in scan if a.row == row]
        for worker in (*_WORKERS, "never-seen"):
            assert answers.worker_answers_in_row(worker, row) == [
                a for a in scan if a.worker == worker and a.row == row
            ]
    for col in range(schema.num_columns):
        column = [answer for answer in scan if answer.col == col]
        assert answers.answers_in_column(col) == column
        assert answers.column_answer_count(col) == len(column)
    for worker in (*_WORKERS, "never-seen"):
        assert answers.answers_by_worker(worker) == [
            answer for answer in scan if answer.worker == worker
        ]
    # Cells outside the table hold no answers.
    assert answers.answers_for_cell(schema.num_rows, 0) == []
    assert answers.answer_count(-1, 0) == 0
    assert answers.column_answer_count(schema.num_columns) == 0
    assert not answers.has_answered(_WORKERS[0], 0, -1)


def _check_arrays(schema: TableSchema, answers: AnswerSet) -> None:
    scan = list(answers)
    view = answers.indexed()
    workers = list(dict.fromkeys(answer.worker for answer in scan))
    columns = [schema.columns[answer.col] for answer in scan]
    expected = {
        "rows": np.array([answer.row for answer in scan], dtype=np.int64),
        "cols": np.array([answer.col for answer in scan], dtype=np.int64),
        "workers": np.array(
            [workers.index(answer.worker) for answer in scan], dtype=np.int64
        ),
        "values": np.array(
            [np.nan if column.is_categorical else answer.value
             for answer, column in zip(scan, columns)],
            dtype=float,
        ),
        "label_indices": np.array(
            [column.label_index(answer.value) if column.is_categorical else -1
             for answer, column in zip(scan, columns)],
            dtype=np.int64,
        ),
        "is_categorical": np.array([c.is_categorical for c in columns], dtype=bool),
        "is_continuous": np.array([c.is_continuous for c in columns], dtype=bool),
    }
    for name, array in expected.items():
        served = getattr(view, name)
        assert served.dtype == array.dtype, name
        assert not served.flags.writeable, name
        np.testing.assert_array_equal(served, array, err_msg=name)
    assert view.worker_ids == workers
    assert view.worker_index == {worker: u for u, worker in enumerate(workers)}
    assert view.num_answers == len(scan)
    for row, col in schema.cells():
        assert view.cell_indices(row, col).tolist() == [
            i for i, answer in enumerate(scan) if answer.cell() == (row, col)
        ]
    assert view.answered_cells() == sorted({answer.cell() for answer in scan})


class TestAnswerSetProperties:
    @given(events=_valued_events)
    @settings(max_examples=12, deadline=None)
    def test_lookups_and_arrays_match_a_scan_after_every_answer(self, events):
        schema = _schema()
        answers = AnswerSet(schema)
        _check_lookups(schema, answers)
        for (worker, row, col), pick in events:
            answers.add_answer(worker, row, col, _varied_value(schema, col, pick))
            _check_lookups(schema, answers)
            _check_arrays(schema, answers)
