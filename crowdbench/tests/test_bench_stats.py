"""Percentiles, sample counts and the quality scoring of the benchmark."""

import math

import pytest

from crowdbench import inputs, stats
from crowdbench.workloads import check_samples


def test_nearest_rank_percentiles():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.9) == 90
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile([7.0], 0.9) == 7.0
    assert stats.percentile([3, 1, 2], 0.5) == 2


def test_percentile_of_empty_sample_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_summary_reports_value_count_and_beyond():
    summary = stats.summary([float(v) for v in range(110)], 0.9)
    assert summary == {"value": 98.0, "n": 110, "beyond": 11}


@pytest.mark.parametrize("count, beyond", [(100, 10), (99, 9), (110, 11), (10, 1), (1, 0)])
def test_samples_beyond_p90(count, beyond):
    assert stats.beyond(count, 0.9) == beyond


def test_ten_beyond_rule():
    assert check_samples("select_p90_ms", [1.0] * 100, 0.9) is None
    problem = check_samples("select_p90_ms", [1.0] * 99, 0.9)
    assert "only 9 of 99" in problem
    assert check_samples("select_p50_ms", [1.0] * 20, 0.5) is None
    assert check_samples("select_p50_ms", [1.0] * 19, 0.5) is not None


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5


def _table():
    return inputs.celebrity_table(3, rows=6)


def _truth_estimates(table):
    return {
        (row, col): table.truth[row][col]
        for row in range(table.num_rows) for col in range(table.num_columns)
    }


def test_perfect_estimates_score_zero_and_pass_checks():
    table = _table()
    estimates = _truth_estimates(table)
    values = {col: [1.0, 2.0, 3.0] for col in table.continuous_columns}
    assert stats.error_rate(table, estimates) == 0.0
    assert stats.mnad(table, estimates, values) == 0.0
    assert stats.estimate_problems(table, estimates) == []


def test_estimate_checks_catch_bad_outputs():
    table = _table()
    estimates = _truth_estimates(table)
    categorical, continuous = table.categorical_columns[0], table.continuous_columns[0]
    estimates[(0, categorical)] = "not-a-label"
    estimates[(1, continuous)] = math.nan
    del estimates[(2, continuous)]
    problems = stats.estimate_problems(table, estimates)
    assert len(problems) == 3
    assert stats.error_rate(table, estimates) == pytest.approx(
        1 / (table.num_rows * len(table.categorical_columns))
    )


def test_parse_estimates():
    assert stats.parse_estimates({"0,1": "a", "12,3": 4.5}) == {(0, 1): "a", (12, 3): 4.5}
