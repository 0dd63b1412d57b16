"""Workers, answers and answer containers (Section 3, Definition 2).

An :class:`Answer` is one worker's value for one cell.  :class:`AnswerSet`
stores the full collection ``A = {a^u_ij}`` as the :class:`Answer` objects
plus numeric columns grown in place, its only index; :class:`IndexedAnswers`
is a read-only view of those columns, used by the EM algorithm, the
correlation fit, the candidate filter and every lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.schema import TableSchema
from repro.utils.exceptions import DataError

#: First capacity of the answer columns; each time they fill up, they double.
_MIN_CAPACITY = 64


@dataclass(frozen=True)
class Answer:
    """A single answer ``a^u_ij`` submitted by worker ``worker`` for cell (row, col).

    ``value`` is a label (for categorical columns) or a number (for
    continuous columns).
    """

    worker: str
    row: int
    col: int
    value: object

    def cell(self) -> Tuple[int, int]:
        """Return the ``(row, col)`` address of the answered cell."""
        return (self.row, self.col)


class AnswerSet:
    """Mutable, append-only collection of worker answers for a :class:`TableSchema`.

    The container validates every answer against the schema on insertion
    and keeps, besides the :class:`Answer` objects, one columnar index: a
    ``(4, capacity)`` int64 block of row, column, worker index and label
    index (``-1`` for a continuous answer) and a float64 block of values
    (``NaN`` for a categorical answer).  Lookups query :meth:`indexed`.
    """

    def __init__(self, schema: TableSchema, answers: Iterable[Answer] = ()) -> None:
        self._schema = schema
        self._answers: List[Answer] = []
        self._worker_order: Dict[str, int] = {}
        self._ints = np.empty((4, _MIN_CAPACITY), dtype=np.int64)
        self._values = np.empty(_MIN_CAPACITY, dtype=float)
        self._indexed: Optional["IndexedAnswers"] = None
        for answer in answers:
            self.add(answer)

    # -- basic container behaviour ----------------------------------------

    @property
    def schema(self) -> TableSchema:
        """Schema the answers refer to."""
        return self._schema

    def __len__(self) -> int:
        return len(self._answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self._answers)

    def __getitem__(self, index: int) -> Answer:
        return self._answers[index]

    # -- mutation ----------------------------------------------------------

    def add(self, answer: Answer) -> None:
        """Validate and append one answer."""
        self._schema.validate_cell(answer.row, answer.col)
        self._schema.validate_value(answer.col, answer.value)
        column = self._schema.columns[answer.col]
        if column.is_continuous:
            answer = Answer(answer.worker, answer.row, answer.col, float(answer.value))
            value, label = answer.value, -1
        else:
            value, label = np.nan, column.label_index(answer.value)
        index = len(self._answers)
        if index == len(self._values):
            # New blocks: the views taken so far keep the old ones.
            self._ints = np.concatenate((self._ints, np.empty_like(self._ints)), axis=1)
            self._values = np.concatenate((self._values, np.empty_like(self._values)))
        worker = self._worker_order.setdefault(answer.worker, len(self._worker_order))
        self._ints[:, index] = (answer.row, answer.col, worker, label)
        self._values[index] = value
        self._answers.append(answer)

    def add_answer(self, worker: str, row: int, col: int, value) -> None:
        """Convenience wrapper constructing and adding an :class:`Answer`."""
        self.add(Answer(worker, row, col, value))

    def extend(self, answers: Iterable[Answer]) -> None:
        """Add every answer in ``answers``."""
        for answer in answers:
            self.add(answer)

    def copy(self) -> "AnswerSet":
        """Return a shallow copy (answers are immutable)."""
        return AnswerSet(self._schema, self._answers)

    # -- lookups -----------------------------------------------------------

    def _answers_at(self, indices: np.ndarray) -> List[Answer]:
        return [self._answers[i] for i in indices.tolist()]

    def _where(self, mask_of) -> List[Answer]:
        """Answers where ``mask_of(view)`` is true, in arrival order."""
        if not self._answers:
            return []
        return self._answers_at(np.flatnonzero(mask_of(self.indexed())))

    def answers_for_cell(self, row: int, col: int) -> List[Answer]:
        """All answers collected for cell ``(row, col)``."""
        if not self._answers:
            return []
        return self._answers_at(self.indexed().cell_indices(row, col))

    def answers_by_worker(self, worker: str) -> List[Answer]:
        """All answers submitted by ``worker``."""
        return self._where(lambda view: view.workers == view.worker_index.get(worker, -1))

    def answers_in_row(self, row: int) -> List[Answer]:
        """All answers for cells of row ``row``."""
        return self._where(lambda view: view.rows == row)

    def answers_in_column(self, col: int) -> List[Answer]:
        """All answers for cells of column ``col``."""
        return self._where(lambda view: view.cols == col)

    def worker_answers_in_row(self, worker: str, row: int) -> List[Answer]:
        """Answers by ``worker`` to cells of row ``row`` (used by Eq. 7)."""
        return [
            answer
            for answer in self.answers_by_worker(worker)
            if answer.row == row
        ]

    def has_answered(self, worker: str, row: int, col: int) -> bool:
        """True if ``worker`` already answered cell ``(row, col)``."""
        return any(answer.worker == worker for answer in self.answers_for_cell(row, col))

    def answer_count(self, row: int, col: int) -> int:
        """Number of answers collected for cell ``(row, col)``."""
        return len(self.indexed().cell_indices(row, col)) if self._answers else 0

    def column_answer_count(self, col: int) -> int:
        """Number of answers collected for column ``col``."""
        counts = self.answer_counts()
        return int(counts[:, col].sum()) if 0 <= col < counts.shape[1] else 0

    @property
    def workers(self) -> List[str]:
        """Distinct worker identifiers, in first-seen order."""
        return list(self._worker_order)

    @property
    def num_workers(self) -> int:
        """Number of distinct workers who contributed at least one answer."""
        return len(self._worker_order)

    def answer_counts(self) -> np.ndarray:
        """Return an ``(N, M)`` matrix of answers collected per cell (read-only)."""
        shape = (self._schema.num_rows, self._schema.num_columns)
        if not self._answers:
            return np.zeros(shape, dtype=int)
        return self.indexed().cell_counts().reshape(shape)

    def mean_answers_per_cell(self) -> float:
        """Average number of answers per cell (the x-axis of Figure 2)."""
        return len(self._answers) / self._schema.num_cells

    # -- projections -------------------------------------------------------

    def restricted_to_columns(self, columns: Iterable[int]) -> "AnswerSet":
        """Return a new answer set containing only answers to ``columns``.

        Used by the TC-onlyCate / TC-onlyCont variants and by baselines that
        handle a single datatype.
        """
        keep = set(columns)
        subset = AnswerSet(self._schema)
        for answer in self._answers:
            if answer.col in keep:
                subset.add(answer)
        return subset

    def indexed(self) -> "IndexedAnswers":
        """Return the vectorised view used by the numerical algorithms.

        Answers are append-only, so the view is kept until the next answer
        arrives: the fits, the candidate filter and the lookups over the
        same answers share one, and its per-cell grouping.
        """
        if self._indexed is None or self._indexed.num_answers != len(self._answers):
            self._indexed = IndexedAnswers(self)
        return self._indexed


class IndexedAnswers:
    """Read-only view over the first ``n`` answers of an :class:`AnswerSet`.

    Exposes parallel numpy arrays over the answers, sliced from the set's
    columns without a copy, plus grouping indexes.  Categorical answers are
    encoded as label indices; continuous answers as floats (the two
    encodings live in separate arrays and each answer fills exactly one of
    them, the other holding a sentinel).  Later answers never change a
    view: they land past its end, or in new blocks once the old ones fill.
    """

    def __init__(self, answers: AnswerSet) -> None:
        num_answers = len(answers)
        if num_answers == 0:
            raise DataError("Cannot index an empty answer set")
        self.schema = answers.schema
        self.worker_index: Dict[str, int] = dict(answers._worker_order)
        self.worker_ids: List[str] = list(self.worker_index)
        self.rows, self.cols, self.workers, self.label_indices = (
            answers._ints[:, :num_answers]
        )
        self.values = answers._values[:num_answers]
        self.is_categorical = self.label_indices >= 0
        self.is_continuous = ~self.is_categorical
        # The view is shared by every fit over the same answers.
        for array in (self.rows, self.cols, self.workers, self.values,
                      self.label_indices, self.is_categorical, self.is_continuous):
            array.flags.writeable = False
        # Per-cell counts and grouping, built on first use.
        self._counts = self._order = self._starts = None

    @property
    def num_answers(self) -> int:
        """Total number of answers."""
        return self.rows.shape[0]

    @property
    def num_workers(self) -> int:
        """Number of distinct workers."""
        return len(self.worker_ids)

    def cell_counts(self) -> np.ndarray:
        """Answers per cell, row-major over the whole table (read-only).

        One ``bincount``, built on first use.
        """
        if self._counts is None:
            self._counts = np.bincount(
                self.rows * self.schema.num_columns + self.cols,
                minlength=self.schema.num_cells,
            )
            self._counts.flags.writeable = False
        return self._counts

    def cell_indices(self, row: int, col: int) -> np.ndarray:
        """Indices (into the parallel arrays) of answers for cell (row, col),
        in answer order: one stable ``argsort``, built on first use."""
        num_columns = self.schema.num_columns
        if not (0 <= row < self.schema.num_rows and 0 <= col < num_columns):
            return np.empty(0, dtype=np.int64)
        if self._order is None:
            self._order = np.argsort(self.rows * num_columns + self.cols, kind="stable")
            self._order.flags.writeable = False
            self._starts = np.concatenate(([0], np.cumsum(self.cell_counts())))
        cell = row * num_columns + col
        return self._order[self._starts[cell]:self._starts[cell + 1]]

    def answered_cells(self) -> List[Tuple[int, int]]:
        """All cells that received at least one answer, row-major."""
        rows, cols = np.divmod(np.flatnonzero(self.cell_counts()), self.schema.num_columns)
        return list(zip(rows.tolist(), cols.tolist()))
