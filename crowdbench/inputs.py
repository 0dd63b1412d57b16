"""Seeded benchmark inputs: tables, ground truth, worker pool and answers.

Everything here is a function of the workload seed.  Answers are a *pure*
function of ``(seed, worker, cell)`` — no shared random stream — so two
clients posting in any interleaving send identical values, and a request
reordering cannot change what the server sees.  The answer model follows
the paper's worker model (Eqs. 1-3): an answer's variance is the worker's
variance times the row and column difficulty times a per-(worker, row)
familiarity factor; categorical answers are correct with probability
``erf(1 / sqrt(2 v))``; continuous answers carry Gaussian noise plus a
per-(worker, row) shift shared across the row's columns (the within-row
error correlation Section 5.2 exploits).  A fraction of workers are
spammers who often answer uniformly at random.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_CELEBRITY_COLUMNS = (
    ("name", "categorical", 60),
    ("nationality", "categorical", 12),
    ("ethnicity", "categorical", 6),
    ("age", "continuous", (18.0, 80.0)),
    ("height", "continuous", (150.0, 200.0)),
    ("notability", "continuous", (0.0, 100.0)),
    ("facial", "continuous", (0.0, 100.0)),
)


def _unit_floats(seed: int, *key) -> Tuple[float, ...]:
    """Eight uniforms in (0, 1), a pure function of ``(seed, *key)``."""
    digest = hashlib.blake2b(
        repr((int(seed),) + tuple(key)).encode("utf-8"), digest_size=64
    ).digest()
    return tuple(
        (value + 0.5) / 2.0**64 for value in struct.unpack("<8Q", digest)
    )


def _normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (bisection on ``erf``; exact enough here)."""
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _normal(u1: float, u2: float) -> float:
    """One standard normal from two uniforms (Box-Muller)."""
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "categorical" | "continuous"
    labels: Tuple[str, ...] = ()
    domain: Tuple[float, float] = (0.0, 1.0)

    @property
    def categorical(self) -> bool:
        return self.kind == "categorical"

    @property
    def noise_scale(self) -> float:
        """Answer noise per unit variance: a tenth of the domain width."""
        return 0.1 * (self.domain[1] - self.domain[0])

    def payload(self) -> dict:
        if self.categorical:
            return {"name": self.name, "type": "categorical", "labels": list(self.labels)}
        return {"name": self.name, "type": "continuous", "domain": list(self.domain)}


@dataclass(frozen=True)
class Table:
    """A table with ground truth and per-row / per-column difficulty."""

    entity: str
    columns: Tuple[Column, ...]
    truth: Tuple[tuple, ...]  # truth[row][col]: label or float
    row_difficulty: Tuple[float, ...]
    col_difficulty: Tuple[float, ...]

    @property
    def num_rows(self) -> int:
        return len(self.truth)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def num_cells(self) -> int:
        return self.num_rows * self.num_columns

    @property
    def categorical_columns(self) -> List[int]:
        return [j for j, column in enumerate(self.columns) if column.categorical]

    @property
    def continuous_columns(self) -> List[int]:
        return [j for j, column in enumerate(self.columns) if not column.categorical]

    def schema_payload(self) -> dict:
        """The inline ``schema`` of a ``POST /sessions`` body."""
        return {
            "entity_attribute": self.entity,
            "num_rows": self.num_rows,
            "columns": [column.payload() for column in self.columns],
        }


def _difficulties(rng: np.random.Generator, count: int) -> Tuple[float, ...]:
    """Stratified log-normal difficulties (log-spread 0.25) in ``rng``'s order."""
    values = [math.exp(0.25 * _normal_quantile((r + 0.5) / count)) for r in range(count)]
    return tuple(float(values[i]) for i in rng.permutation(count))


#: Column-level properties are few, so their order is fixed rather than
#: seeded: a seed must not decide whether the categorical columns are the
#: hard ones.
_FIXED = 20180416


def _truth(rng: np.random.Generator, columns: Sequence[Column], rows: int):
    truth = []
    for _row in range(rows):
        values = []
        for column in columns:
            if column.categorical:
                values.append(column.labels[int(rng.integers(len(column.labels)))])
            else:
                values.append(float(rng.uniform(*column.domain)))
        truth.append(tuple(values))
    return tuple(truth)


def celebrity_table(seed: int, rows: int = 174) -> Table:
    """A Celebrity-shaped table: 3 categorical and 4 continuous columns."""
    rng = np.random.default_rng([int(seed), 1])
    columns = []
    for name, kind, spec in _CELEBRITY_COLUMNS:
        if kind == "categorical":
            labels = tuple(f"{name}_{z}" for z in range(spec))
            columns.append(Column(name, kind, labels=labels))
        else:
            columns.append(Column(name, kind, domain=spec))
    columns = tuple(columns)
    return Table(
        "picture", columns, _truth(rng, columns, rows),
        _difficulties(rng, rows), _difficulties(np.random.default_rng(_FIXED), len(columns)),
    )


def synthetic_table(seed: int, rows: int, num_columns: int = 10) -> Table:
    """A Section 6.5-shaped table: half categorical, domain 0-1000.

    Label counts spread evenly over 2-10, so every seed draws tables of the
    same difficulty profile.
    """
    rng = np.random.default_rng([int(seed), 2])
    categorical = num_columns // 2
    counts = np.linspace(2, 10, categorical).round().astype(int)
    columns = []
    for j in range(num_columns):
        if j < categorical:
            count = int(counts[j])
            columns.append(
                Column(f"cat_{j}", "categorical",
                       labels=tuple(f"label_{j}_{z}" for z in range(count)))
            )
        else:
            columns.append(Column(f"num_{j}", "continuous", domain=(0.0, 1000.0)))
    columns = tuple(columns)
    return Table(
        "entity", columns, _truth(rng, columns, rows),
        _difficulties(rng, rows), _difficulties(np.random.default_rng(_FIXED), len(columns)),
    )


@dataclass(frozen=True)
class WorkerPool:
    """A long-tail crowd: log-normal variances, spammers, power-law activity.

    The crowd's *profile* is fixed by design so quality is comparable
    across seeds: variances are the stratified quantiles of a log-normal
    (median 1.2, log-spread 0.9), a tenth of the workers are spammers, and
    activities follow a power law, paired with variances and spam flags by
    one fixed permutation.  The seed decides which worker id holds which
    profile.
    """

    ids: Tuple[str, ...]
    variance: Tuple[float, ...]
    contamination: Tuple[float, ...]
    activity: Tuple[float, ...]  # arrival weights, sum to 1

    @classmethod
    def generate(cls, seed: int, size: int) -> "WorkerPool":
        ranks = np.arange(size)
        quantiles = np.array([_normal_quantile((r + 0.5) / size) for r in ranks])
        variance = np.exp(math.log(1.2) + 0.9 * quantiles)
        pairing = np.random.default_rng(_FIXED).permutation(size)
        variance = variance[pairing]
        spammer = np.zeros(size, dtype=bool)
        # Spammers sit outside the most active fifth of the crowd.
        spammer[size // 5:][np.random.default_rng(_FIXED + 1).permutation(size - size // 5)
                            [: max(1, round(0.1 * size))]] = True
        activity = (1.0 + ranks) ** -1.2
        activity = activity / activity.sum()
        order = np.random.default_rng([int(seed), 3]).permutation(size)
        return cls(
            ids=tuple(f"w{index:03d}" for index in range(size)),
            variance=tuple(float(variance[order[i]]) for i in range(size)),
            contamination=tuple(0.6 if spammer[order[i]] else 0.03 for i in range(size)),
            activity=tuple(float(activity[order[i]]) for i in range(size)),
        )

    def index(self, worker: str) -> int:
        return int(worker[1:])


class Crowd:
    """The simulated crowd answering over one table."""

    def __init__(self, seed: int, table: Table, pool: WorkerPool) -> None:
        self.seed = int(seed)
        self.table = table
        self.pool = pool

    def answer(self, worker: str, row: int, col: int):
        """The answer ``worker`` gives for cell ``(row, col)`` — pure."""
        column = self.table.columns[col]
        index = self.pool.index(worker)
        u = _unit_floats(self.seed, "answer", index, row, col)
        if u[0] < self.pool.contamination[index]:
            if column.categorical:
                return column.labels[int(u[1] * len(column.labels))]
            low, high = column.domain
            return low + u[1] * (high - low)
        row_u = _unit_floats(self.seed, "row", index, row)
        familiarity = math.exp(0.35 * _normal(row_u[0], row_u[1]))
        if row_u[2] < 0.1:
            familiarity *= 4.0  # the worker does not know this entity at all
        variance = (
            self.pool.variance[index] * familiarity
            * self.table.row_difficulty[row] * self.table.col_difficulty[col]
        )
        truth = self.table.truth[row][col]
        if column.categorical:
            quality = math.erf(1.0 / math.sqrt(2.0 * variance))
            if u[1] < quality or len(column.labels) == 1:
                return truth
            others = [label for label in column.labels if label != truth]
            return others[int(u[2] * len(others))]
        shift = 0.4 * _normal(row_u[3], row_u[4])
        noise = math.sqrt(variance) * _normal(u[1], u[2])
        low, high = column.domain
        value = truth + (shift + noise) * column.noise_scale
        return min(max(value, low), high)


class Arrivals:
    """Activity-weighted worker arrivals from one seeded stream."""

    def __init__(self, seed: int, pool: WorkerPool, workers: Sequence[str], stream: int):
        self.workers = list(workers)
        weights = np.array([pool.activity[pool.index(w)] for w in self.workers])
        self._weights = weights / weights.sum()
        self._rng = np.random.default_rng([int(seed), 4, int(stream)])

    def next(self) -> str:
        return self.workers[int(self._rng.choice(len(self.workers), p=self._weights))]


def seed_batches(seed: int, crowd: Crowd) -> List[Tuple[str, list]]:
    """Algorithm 2 line 1: one answer per cell, one batch per row.

    Each row is answered in full by one worker, posted as one ``POST
    /answers``.  Workers get rows in exact proportion to their activity
    (largest-remainder rounding), in seeded order, so the seeding mix is
    the same for every seed.
    """
    table, pool = crowd.table, crowd.pool
    shares = np.array(pool.activity) * table.num_rows
    counts = np.floor(shares).astype(int)
    remainder = table.num_rows - int(counts.sum())
    counts[np.argsort(-(shares - counts), kind="stable")[:remainder]] += 1
    order = [worker for worker, count in zip(pool.ids, counts) for _ in range(count)]
    rng = np.random.default_rng([int(seed), 5])
    batches = []
    for row, index in enumerate(rng.permutation(len(order))):
        worker = order[index]
        items = [
            {"row": row, "col": col, "value": crowd.answer(worker, row, col)}
            for col in range(table.num_columns)
        ]
        batches.append((worker, items))
    return batches


def inputs_digest(table: Table, pool: WorkerPool, batches, extra: Optional[Dict] = None) -> str:
    """SHA-256 over the generated table, crowd and seeding answers."""
    document = {
        "schema": table.schema_payload(),
        "truth": [list(row) for row in table.truth],
        "row_difficulty": list(table.row_difficulty),
        "col_difficulty": list(table.col_difficulty),
        "pool": [list(pool.ids), list(pool.variance), list(pool.contamination),
                 list(pool.activity)],
        "seed_batches": batches,
        "extra": extra or {},
    }
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
