"""The benchmark's own error rate and MNAD equal ``repro.metrics`` on the same estimates."""

import pytest

repro_metrics = pytest.importorskip("repro.metrics")

from repro.core.answers import AnswerSet  # noqa: E402
from repro.datasets.base import CrowdDataset  # noqa: E402
from repro.service.registry import schema_from_dict  # noqa: E402

from crowdbench import inputs, stats  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", ["celebrity", "synthetic"])
def test_scores_equal_repro_metrics(seed, make):
    if make == "celebrity":
        table = inputs.celebrity_table(seed, rows=20)
    else:
        table = inputs.synthetic_table(seed, rows=20)
    pool = inputs.WorkerPool.generate(seed, 30)
    crowd = inputs.Crowd(seed, table, pool)
    schema = schema_from_dict(table.schema_payload())
    answers = AnswerSet(schema)
    values = {col: [] for col in table.continuous_columns}
    arrivals = inputs.Arrivals(seed, pool, pool.ids, stream=1)
    batches = inputs.seed_batches(seed, crowd)
    extra = [(arrivals.next(), row % table.num_rows) for row in range(30)]
    for worker, items in batches:
        for item in items:
            answers.add_answer(worker, item["row"], item["col"], item["value"])
    for worker, row in extra:
        for col in range(table.num_columns):
            if not answers.has_answered(worker, row, col):
                answers.add_answer(worker, row, col, crowd.answer(worker, row, col))
    for answer in answers:
        if answer.col in values:
            values[answer.col].append(float(answer.value))
    # Estimates: the first answer of each cell, with one cell left missing.
    estimates = {}
    for answer in answers:
        estimates.setdefault((answer.row, answer.col), answer.value)
    estimates.pop((0, table.continuous_columns[0]))
    truth = {
        (row, col): table.truth[row][col]
        for row in range(table.num_rows) for col in range(table.num_columns)
    }
    dataset = CrowdDataset("bench", schema, truth, answers)
    assert stats.error_rate(table, estimates) == repro_metrics.error_rate(estimates, dataset)
    assert stats.mnad(table, estimates, values) == repro_metrics.mnad(estimates, dataset)
