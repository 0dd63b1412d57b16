"""Simple assignment heuristics: Random and Looping (Section 6.4.2).

Two of the heuristics of Figure 5 (all evaluated with T-Crowd's inference
in the paper's case study):

* **Random** — pick uniformly among the candidate cells;
* **Looping** — round-robin over the cells in row-major order.

The third, **Entropy** (the cell whose truth posterior has the highest
*raw* uniform entropy), is the ``uncertainty`` strategy of
:mod:`repro.strategies` served through
:class:`~repro.core.assignment.TCrowdAssigner`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.answers import AnswerSet
from repro.core.assignment import AssignmentPolicy, BatchAssignment, Cell
from repro.core.schema import TableSchema
from repro.utils.exceptions import AssignmentError
from repro.utils.rng import as_generator


class RandomAssigner(AssignmentPolicy):
    """Assign uniformly random candidate cells (CDAS-style random routing)."""

    def __init__(self, schema: TableSchema, seed=None,
                 max_answers_per_cell: Optional[int] = None) -> None:
        super().__init__(schema, max_answers_per_cell=max_answers_per_cell)
        self._rng = as_generator(seed)

    @property
    def name(self) -> str:
        return "Random"

    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        candidates = self.candidate_cells(worker, answers)
        if not candidates:
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        k = min(k, len(candidates))
        chosen = self._rng.choice(len(candidates), size=k, replace=False)
        cells = tuple(candidates[int(index)] for index in chosen)
        return BatchAssignment(worker, cells, tuple(0.0 for _ in cells))


class LoopingAssigner(AssignmentPolicy):
    """Assign cells in round-robin (row-major) order."""

    def __init__(self, schema: TableSchema,
                 max_answers_per_cell: Optional[int] = None) -> None:
        super().__init__(schema, max_answers_per_cell=max_answers_per_cell)
        self._cursor = 0
        self._order: List[Cell] = [
            (i, j) for i in range(schema.num_rows) for j in range(schema.num_columns)
        ]

    @property
    def name(self) -> str:
        return "Looping"

    def select(self, worker: str, answers: AnswerSet, k: int = 1) -> BatchAssignment:
        candidates = set(self.candidate_cells(worker, answers))
        if not candidates:
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        cells: List[Cell] = []
        scanned = 0
        total = len(self._order)
        while len(cells) < k and scanned < total:
            cell = self._order[self._cursor]
            self._cursor = (self._cursor + 1) % total
            scanned += 1
            if cell in candidates and cell not in cells:
                cells.append(cell)
        if not cells:
            raise AssignmentError(f"No candidate cells left for worker {worker!r}")
        return BatchAssignment(worker, tuple(cells), tuple(0.0 for _ in cells))
