"""Property-based tests (hypothesis) for the engine's incremental indexes.

Two families of properties:

* ``top_k_stable`` against the naive sorted oracle the seed implementation
  used — including heavy ties and negative gains.
* ``SessionState`` incremental indexes against a
  recompute-from-scratch oracle, over randomized answer streams with
  interleaved syncs — the O(1)-per-answer bookkeeping must never drift from
  what a full rescan of the answer set reports.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.assignment import top_k_stable
from repro.core.schema import Column, TableSchema
from repro.engine import SessionState

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


# -- incremental session state vs recompute-from-scratch ----------------------

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


#: One simulated answer: who answered which cell (values are irrelevant to
#: the indexes, so a fixed per-column value suffices).
_events = st.lists(
    st.tuples(
        st.sampled_from(_WORKERS),
        st.integers(min_value=0, max_value=_NUM_ROWS - 1),
        st.integers(min_value=0, max_value=_NUM_COLS - 1),
    ),
    min_size=0,
    max_size=40,
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
    cells = []
    for row in range(schema.num_rows):
        for col in range(schema.num_columns):
            if cap is not None and counts[row, col] >= cap:
                continue
            if answers.has_answered(worker, row, col):
                continue
            cells.append((row, col))
    return cells


class TestSessionStateProperties:
    @given(events=_events, cap=st.sampled_from([None, 1, 2, 4]),
           sync_every=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_incremental_indexes_match_scratch_recompute(
        self, events, cap, sync_every
    ):
        schema = _schema()
        answers = AnswerSet(schema)
        state = SessionState(schema, max_answers_per_cell=cap)
        for step, (worker, row, col) in enumerate(events):
            answers.add_answer(worker, row, col, _value_for(schema, col))
            if step % sync_every == 0:
                state.sync(answers)
        state.sync(answers)

        scratch = _scratch_counts(schema, answers)
        assert np.array_equal(state.counts, scratch)
        assert state.num_answers == len(answers)
        open_cells = (
            int(np.sum(scratch < cap)) if cap is not None else schema.num_cells
        )
        assert state.open_cell_count() == open_cells
        assert state.has_open_cells() == (open_cells > 0)
        for col in range(schema.num_columns):
            assert state.column_answer_count(col) == answers.column_answer_count(col)
        for worker in (*_WORKERS, "never-seen"):
            assert state.candidate_cells(worker) == _scratch_candidates(
                schema, answers, worker, cap
            )
            for row in range(schema.num_rows):
                for col in range(schema.num_columns):
                    assert state.has_answered(worker, row, col) == (
                        answers.has_answered(worker, row, col)
                    )
