"""Percentiles with sample counts, and the benchmark's own quality scoring.

Percentiles are nearest-rank: the p-quantile of ``n`` sorted samples is the
sample at rank ``ceil(p * n)``.  A percentile is only trusted when at least
:data:`MIN_BEYOND` samples lie beyond it, so a p90 needs ``n >= 100``.

Quality follows the paper's Section 6.2 definitions, exactly as
``repro.metrics`` computes them: the error rate is the share of categorical
cells whose estimate differs from the truth (a missing estimate is wrong),
and MNAD averages, over continuous columns, the RMSE of the estimates
divided by the standard deviation of the answers collected in that column
(a missing estimate counts as twice the column's truth spread).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from crowdbench.inputs import Table

#: Samples a reported percentile needs beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-quantile of ``count``."""
    return count - max(1, math.ceil(q * count))


def summary(samples: Sequence[float], q: float) -> Dict[str, float]:
    """``{"value", "n", "beyond"}`` of one percentile."""
    return {
        "value": percentile(samples, q),
        "n": len(samples),
        "beyond": beyond(len(samples), q),
    }


def median(values: Iterable[float]) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of an empty sample")
    middle = len(values) // 2
    if len(values) % 2:
        return float(values[middle])
    return (values[middle - 1] + values[middle]) / 2.0


def parse_estimates(payload: Mapping[str, object]) -> Dict[Tuple[int, int], object]:
    """``{"row,col": value}`` from ``GET /estimates`` as ``{(row, col): value}``."""
    cells = {}
    for key, value in payload.items():
        row, col = key.split(",")
        cells[(int(row), int(col))] = value
    return cells


def estimate_problems(table: Table, estimates: Mapping[Tuple[int, int], object]) -> List[str]:
    """Output check: a declared label per categorical cell, a finite value per continuous one."""
    problems = []
    for row in range(table.num_rows):
        for col, column in enumerate(table.columns):
            value = estimates.get((row, col))
            if column.categorical:
                if value not in column.labels:
                    problems.append(f"cell ({row},{col}) estimate {value!r} is not a declared label")
            elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                problems.append(f"cell ({row},{col}) estimate {value!r} is not a finite number")
        if len(problems) >= 10:
            break
    return problems


def error_rate(table: Table, estimates: Mapping[Tuple[int, int], object]) -> float:
    """Share of categorical cells whose estimate differs from the truth."""
    cells = [
        (row, col) for row in range(table.num_rows) for col in table.categorical_columns
    ]
    if not cells:
        raise ValueError("the table has no categorical cells")
    wrong = sum(
        1 for row, col in cells
        if estimates.get((row, col)) is None or estimates[(row, col)] != table.truth[row][col]
    )
    return wrong / len(cells)


def mnad(
    table: Table,
    estimates: Mapping[Tuple[int, int], object],
    answer_values: Mapping[int, Sequence[float]],
) -> float:
    """Mean over continuous columns of RMSE / std of the column's answers."""
    columns = table.continuous_columns
    if not columns:
        raise ValueError("the table has no continuous cells")
    normalized = []
    for col in columns:
        truths = np.array([float(table.truth[row][col]) for row in range(table.num_rows)])
        truth_std = float(np.std(truths))
        errors = []
        for row in range(table.num_rows):
            estimate = estimates.get((row, col))
            if estimate is None:
                errors.append(truth_std * 2.0)
            else:
                errors.append(float(estimate) - float(truths[row]))
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        values = np.array(answer_values.get(col, ()), dtype=float)
        if len(values) < 2:
            denominator = max(truth_std, 1e-9)
        else:
            denominator = max(float(np.std(values)), 1e-9)
        normalized.append(rmse / denominator)
    return float(np.mean(normalized))
