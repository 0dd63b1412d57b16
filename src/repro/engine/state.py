"""Incremental per-session state for the online assignment loop.

:class:`SessionState` mirrors the information the assignment policies used to
recompute from scratch on every :meth:`~repro.core.assignment.AssignmentPolicy.select`
call:

* per-cell answer counts (the budget check ``counts[i, j] >= cap``),
* per-worker answered-cell masks (a worker is never assigned a cell twice),
* the open-candidate pool (cells still below the per-cell answer cap).

All three are updated O(1) per newly ingested answer; listing a worker's
candidate cells is one vectorised boolean-mask pass instead of a Python scan
that rebuilt the count matrix and queried ``has_answered`` per cell.

The state attaches to an append-only :class:`~repro.core.answers.AnswerSet`
via :meth:`sync`: only the answers appended since the last sync are ingested.
If a *different* answer set is presented (the experiments sometimes copy
answer sets), the state transparently rebuilds from scratch.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.answers import Answer, AnswerSet
from repro.core.schema import TableSchema

Cell = Tuple[int, int]


class SessionState:
    """Mutable indexes over the answers collected so far in one session.

    Parameters
    ----------
    schema:
        Table schema the answers refer to.
    max_answers_per_cell:
        Optional budget cap per cell; cells that reach it leave the
        open-candidate pool (and re-enter it never — answers are append-only).
    """

    def __init__(
        self,
        schema: TableSchema,
        max_answers_per_cell: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.max_answers_per_cell = (
            None if max_answers_per_cell is None else int(max_answers_per_cell)
        )
        self._source: Optional[weakref.ref] = None
        self._reset()

    def _reset(self) -> None:
        shape = (self.schema.num_rows, self.schema.num_columns)
        self._counts = np.zeros(shape, dtype=np.int64)
        self._col_counts = np.zeros(self.schema.num_columns, dtype=np.int64)
        self._open = np.ones(shape, dtype=bool)
        self._open_count = shape[0] * shape[1]
        self._answered: Dict[str, np.ndarray] = {}
        self._num_ingested = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, answer: Answer) -> None:
        """Fold one new answer into every index (O(1))."""
        row, col = answer.row, answer.col
        self._counts[row, col] += 1
        self._col_counts[col] += 1
        cap = self.max_answers_per_cell
        if (
            cap is not None
            and self._open[row, col]
            and self._counts[row, col] >= cap
        ):
            self._open[row, col] = False
            self._open_count -= 1
        mask = self._answered.get(answer.worker)
        if mask is None:
            mask = np.zeros(self._counts.shape, dtype=bool)
            self._answered[answer.worker] = mask
        mask[row, col] = True

    def sync(self, answers: AnswerSet) -> "SessionState":
        """Bring the state up to date with ``answers``.

        Ingests only the answers appended since the previous sync; rebuilds
        from scratch when a different (or shrunken) answer set shows up.
        """
        source = self._source() if self._source is not None else None
        if source is not answers or len(answers) < self._num_ingested:
            self._reset()
            self._source = weakref.ref(answers)
        for index in range(self._num_ingested, len(answers)):
            self.ingest(answers[index])
        self._num_ingested = len(answers)
        return self

    # -- queries -----------------------------------------------------------

    @property
    def num_answers(self) -> int:
        """Number of answers ingested so far."""
        return self._num_ingested

    @property
    def counts(self) -> np.ndarray:
        """Per-cell answer counts (read-only view; do not mutate)."""
        return self._counts

    def answer_count(self, row: int, col: int) -> int:
        """Number of answers collected for cell ``(row, col)``."""
        return int(self._counts[row, col])

    def column_answer_count(self, col: int) -> int:
        """Number of answers collected for column ``col``."""
        return int(self._col_counts[col])

    def has_answered(self, worker: str, row: int, col: int) -> bool:
        """True if ``worker`` already answered cell ``(row, col)``."""
        mask = self._answered.get(worker)
        return bool(mask[row, col]) if mask is not None else False

    def open_cell_count(self) -> int:
        """Number of cells still below the per-cell answer cap."""
        return self._open_count

    def has_open_cells(self) -> bool:
        """True while at least one cell can accept further answers."""
        return self._open_count > 0

    def candidate_mask(self, worker: str) -> np.ndarray:
        """Boolean (rows, cols) mask of cells assignable to ``worker``."""
        answered = self._answered.get(worker)
        if answered is None:
            return self._open.copy()
        return self._open & ~answered

    def candidate_array(self, worker: str) -> np.ndarray:
        """Cells assignable to ``worker`` as an ``(n, 2)`` int64 array of
        ``(row, col)`` pairs, in row-major order.

        Matches the ordering of the legacy full scan so rankings (and their
        tie-breaks) are identical between the engine and seed paths.
        """
        flat = np.flatnonzero(self.candidate_mask(worker).ravel())
        return np.stack(np.divmod(flat, self.schema.num_columns), axis=1)

    def candidate_cells(self, worker: str) -> List[Cell]:
        """:meth:`candidate_array` as a list of ``(row, col)`` tuples."""
        return list(map(tuple, self.candidate_array(worker).tolist()))
