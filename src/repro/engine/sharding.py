"""Row-range partition of the session state (the coordinator's shards).

The monolithic :class:`~repro.engine.state.SessionState` serves one candidate
pool for the whole table.  :class:`ShardedSessionState` splits the rows into
``K`` contiguous shards, each owning its slice of the answer counts, the
per-worker answered masks and the open-candidate pool, with O(1) routing of
every ingested answer to the owning shard (a precomputed row→shard table).

This partition is the topology of process-level serving:
:class:`~repro.engine.coordinator.ProcessShardCoordinator` hands each worker
process a contiguous range of shards and heap-merges their per-shard stable
top-Ks with :func:`~repro.core.assignment.merge_top_k_stable`.  Because the
shards are contiguous row ranges, the concatenation of the per-shard
candidate lists *is* the monolithic row-major candidate list, so the merged
selection is bit-identical to
:meth:`~repro.core.assignment.TCrowdAssigner.select`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.answers import Answer
from repro.core.schema import TableSchema
from repro.engine.state import SessionState
from repro.utils.exceptions import ConfigurationError

Cell = Tuple[int, int]


class ShardedSessionState(SessionState):
    """A :class:`SessionState` partitioned into contiguous row-range shards.

    The global indexes (counts, worker masks, open pool) are the inherited
    ones, so every :class:`SessionState` query keeps working unchanged; the
    shards own *views* into them plus their own open-candidate accounting.
    Routing an ingested answer to its shard is one table lookup — O(1) per
    answer, exactly like the monolithic update it piggybacks on.

    Parameters
    ----------
    schema:
        Table schema the answers refer to.
    num_shards:
        Requested number of shards; clipped to the number of rows so every
        shard owns at least one row.  The first ``num_rows % K`` shards get
        one extra row when the rows do not divide evenly.
    max_answers_per_cell:
        Optional per-cell budget cap (see :class:`SessionState`).
    """

    def __init__(
        self,
        schema: TableSchema,
        num_shards: int = 2,
        max_answers_per_cell: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        rows = schema.num_rows
        self.num_shards = min(int(num_shards), max(rows, 1))
        base, extra = divmod(rows, self.num_shards)
        sizes = np.full(self.num_shards, base, dtype=np.int64)
        sizes[:extra] += 1
        self._shard_sizes = sizes
        self._stops = np.cumsum(sizes)
        self._starts = self._stops - sizes
        self._row_shard = np.repeat(np.arange(self.num_shards), sizes)
        super().__init__(schema, max_answers_per_cell=max_answers_per_cell)

    def _reset(self) -> None:
        super()._reset()
        self._shard_open = self._shard_sizes * self.schema.num_columns

    def ingest(self, answer: Answer) -> None:
        """Fold one new answer in and charge its shard's open-pool (O(1))."""
        was_open = self._open[answer.row, answer.col]
        super().ingest(answer)
        if was_open and not self._open[answer.row, answer.col]:
            self._shard_open[self._row_shard[answer.row]] -= 1

    # -- shard queries ------------------------------------------------------

    def shard_of_row(self, row: int) -> int:
        """Index of the shard owning ``row`` (the O(1) routing table)."""
        return int(self._row_shard[row])

    def shard_bounds(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` row range owned by ``shard``."""
        return int(self._starts[shard]), int(self._stops[shard])

    def shard_open_count(self, shard: int) -> int:
        """Number of open cells inside ``shard``."""
        return int(self._shard_open[shard])

    def shard_candidate_cells(self, shard: int, worker: str) -> List[Cell]:
        """Cells of ``shard`` assignable to ``worker``, in row-major order.

        Concatenating the results over all shards reproduces
        :meth:`SessionState.candidate_cells` exactly — the property the
        partitioned top-K merge relies on.
        """
        start, stop = self.shard_bounds(shard)
        answered = self._answered.get(worker)
        block = self._open[start:stop]
        if answered is not None:
            block = block & ~answered[start:stop]
        flat = np.flatnonzero(block.ravel())
        rows, cols = np.divmod(flat, self.schema.num_columns)
        return list(zip((rows + start).tolist(), cols.tolist()))
