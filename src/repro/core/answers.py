"""Workers, answers and answer containers (Section 3, Definition 2).

An :class:`Answer` is one worker's value for one cell.  :class:`AnswerSet`
stores the full collection ``A = {a^u_ij}`` with the per-cell / per-worker
indexes every inference method needs, and :class:`IndexedAnswers` is its
vectorised (numpy) view used by the EM algorithm and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.schema import TableSchema
from repro.utils.exceptions import DataError


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
    """Mutable collection of worker answers for a given :class:`TableSchema`.

    The container validates every answer against the schema on insertion and
    maintains per-cell and per-worker indexes so that truth inference and
    task assignment stay linear in the number of answers.
    """

    def __init__(self, schema: TableSchema, answers: Iterable[Answer] = ()) -> None:
        self._schema = schema
        self._answers: List[Answer] = []
        self._by_cell: Dict[Tuple[int, int], List[int]] = {}
        self._by_worker: Dict[str, List[int]] = {}
        self._by_row: Dict[int, List[int]] = {}
        self._by_col: Dict[int, List[int]] = {}
        # Append-only parallel buffers kept in sync by add(); IndexedAnswers
        # (built once per answer count, see indexed()) turns them into
        # arrays without a per-answer Python loop.
        self._worker_order: Dict[str, int] = {}
        self._buf_rows: List[int] = []
        self._buf_cols: List[int] = []
        self._buf_workers: List[int] = []
        self._buf_values: List[float] = []
        self._buf_labels: List[int] = []
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
        index = len(self._answers)
        self._answers.append(answer)
        self._by_cell.setdefault(answer.cell(), []).append(index)
        self._by_worker.setdefault(answer.worker, []).append(index)
        self._by_row.setdefault(answer.row, []).append(index)
        self._by_col.setdefault(answer.col, []).append(index)
        worker_index = self._worker_order.get(answer.worker)
        if worker_index is None:
            worker_index = len(self._worker_order)
            self._worker_order[answer.worker] = worker_index
        self._buf_rows.append(answer.row)
        self._buf_cols.append(answer.col)
        self._buf_workers.append(worker_index)
        if column.is_categorical:
            self._buf_values.append(float("nan"))
            self._buf_labels.append(column.label_index(answer.value))
        else:
            self._buf_values.append(float(answer.value))
            self._buf_labels.append(-1)

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

    def answers_for_cell(self, row: int, col: int) -> List[Answer]:
        """All answers collected for cell ``(row, col)``."""
        return [self._answers[i] for i in self._by_cell.get((row, col), [])]

    def answers_by_worker(self, worker: str) -> List[Answer]:
        """All answers submitted by ``worker``."""
        return [self._answers[i] for i in self._by_worker.get(worker, [])]

    def answers_in_row(self, row: int) -> List[Answer]:
        """All answers for cells of row ``row``."""
        return [self._answers[i] for i in self._by_row.get(row, [])]

    def answers_in_column(self, col: int) -> List[Answer]:
        """All answers for cells of column ``col``."""
        return [self._answers[i] for i in self._by_col.get(col, [])]

    def worker_answers_in_row(self, worker: str, row: int) -> List[Answer]:
        """Answers by ``worker`` to cells of row ``row`` (used by Eq. 7)."""
        return [
            answer
            for answer in self.answers_by_worker(worker)
            if answer.row == row
        ]

    def has_answered(self, worker: str, row: int, col: int) -> bool:
        """True if ``worker`` already answered cell ``(row, col)``."""
        indexes = self._by_cell.get((row, col))
        if not indexes:
            return False
        return any(self._answers[i].worker == worker for i in indexes)

    def answer_count(self, row: int, col: int) -> int:
        """Number of answers collected for cell ``(row, col)`` (O(1))."""
        indexes = self._by_cell.get((row, col))
        return len(indexes) if indexes else 0

    def column_answer_count(self, col: int) -> int:
        """Number of answers collected for column ``col`` (O(1))."""
        indexes = self._by_col.get(col)
        return len(indexes) if indexes else 0

    @property
    def workers(self) -> List[str]:
        """Distinct worker identifiers, in first-seen order."""
        return list(self._by_worker.keys())

    @property
    def num_workers(self) -> int:
        """Number of distinct workers who contributed at least one answer."""
        return len(self._by_worker)

    def answer_counts(self) -> np.ndarray:
        """Return an ``(N, M)`` matrix of answers collected per cell."""
        counts = np.zeros(
            (self._schema.num_rows, self._schema.num_columns), dtype=int
        )
        for (row, col), indexes in self._by_cell.items():
            counts[row, col] = len(indexes)
        return counts

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
        arrives: the EM fit and the correlation fit over the same answers
        share one.
        """
        if self._indexed is None or self._indexed.num_answers != len(self._answers):
            self._indexed = IndexedAnswers(self)
        return self._indexed


class IndexedAnswers:
    """Vectorised, read-only view over an :class:`AnswerSet`.

    Exposes parallel numpy arrays over the answers plus grouping indexes.
    Categorical answers are encoded as label indices; continuous answers as
    floats (the two encodings live in separate arrays and each answer fills
    exactly one of them, the other holding a sentinel).
    """

    def __init__(self, answers: AnswerSet) -> None:
        if len(answers) == 0:
            raise DataError("Cannot index an empty answer set")
        schema = answers.schema
        self.schema = schema
        self.worker_ids: List[str] = answers.workers
        self.worker_index: Dict[str, int] = {
            worker: u for u, worker in enumerate(self.worker_ids)
        }
        self.rows = np.asarray(answers._buf_rows, dtype=np.int64)
        self.cols = np.asarray(answers._buf_cols, dtype=np.int64)
        self.workers = np.asarray(answers._buf_workers, dtype=np.int64)
        self.values = np.asarray(answers._buf_values, dtype=float)
        self.label_indices = np.asarray(answers._buf_labels, dtype=np.int64)
        column_is_categorical = np.array(
            [column.is_categorical for column in schema.columns], dtype=bool
        )
        self.is_categorical = column_is_categorical[self.cols]
        self.is_continuous = ~self.is_categorical
        # The view is shared by every fit over the same answers.
        for array in (self.rows, self.cols, self.workers, self.values,
                      self.label_indices, self.is_categorical, self.is_continuous):
            array.flags.writeable = False
        self._groups: Optional[Dict[Tuple[int, int], np.ndarray]] = None

    @property
    def num_answers(self) -> int:
        """Total number of answers."""
        return self.rows.shape[0]

    @property
    def num_workers(self) -> int:
        """Number of distinct workers."""
        return len(self.worker_ids)

    @property
    def _cell_groups(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Answer indices per answered cell, built on first use.

        EM groups cells itself, so a fit never pays for this lexsort.
        """
        if self._groups is None:
            self._groups = {}
            order = np.lexsort((self.cols, self.rows))
            boundaries = np.flatnonzero(
                (np.diff(self.rows[order]) != 0) | (np.diff(self.cols[order]) != 0)
            )
            for group in np.split(order, boundaries + 1):
                key = (int(self.rows[group[0]]), int(self.cols[group[0]]))
                self._groups[key] = group
        return self._groups

    def cell_indices(self, row: int, col: int) -> np.ndarray:
        """Indices (into the parallel arrays) of answers for cell (row, col)."""
        return self._cell_groups.get((row, col), np.empty(0, dtype=np.int64))

    def answered_cells(self) -> List[Tuple[int, int]]:
        """All cells that received at least one answer."""
        return list(self._cell_groups.keys())
