"""Shared fixtures for the test suite.

Expensive objects (simulated datasets, fitted inference results) are
session-scoped so the several hundred tests stay fast; tests must not mutate
them — tests that need a mutable answer set build their own via the factory
fixtures.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.inference import TCrowdModel
from repro.core.schema import Column, TableSchema
from repro.core.worker_model import WorkerModel
from repro.datasets import generate_synthetic, load_restaurant


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Give every test the ``repro`` logger tree it started with.

    The service CLI's ``build_server`` configures that tree for its process
    (its own handler, no propagation); a test that builds a server
    in-process must not leave it behind, or later ``caplog`` checks see
    nothing.
    """
    logger = logging.getLogger("repro")
    handlers, level, propagate = logger.handlers[:], logger.level, logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.propagate = propagate
    logger.setLevel(level)


@pytest.fixture(scope="session")
def mixed_schema() -> TableSchema:
    """A small schema with two categorical and two continuous columns."""
    columns = (
        Column.categorical("color", ("red", "green", "blue")),
        Column.categorical("size", ("small", "large")),
        Column.continuous("weight", (0.0, 100.0)),
        Column.continuous("price", (0.0, 1000.0)),
    )
    return TableSchema.build("item", columns, num_rows=8)


@pytest.fixture(scope="session")
def worker_variances() -> dict:
    """Latent worker variances used by the hand-built answer sets."""
    return {
        "expert": 0.1,
        "good": 0.4,
        "average": 1.0,
        "poor": 3.0,
        "spammer": 9.0,
    }


def _generate_answers(schema, variances, seed=0, answers_per_cell=4):
    """Build an answer set from the paper's generative model."""
    rng = np.random.default_rng(seed)
    model = WorkerModel(1.0)
    truth = {}
    for i in range(schema.num_rows):
        for j, column in enumerate(schema.columns):
            if column.is_categorical:
                truth[(i, j)] = column.labels[int(rng.integers(column.num_labels))]
            else:
                low, high = column.domain
                truth[(i, j)] = float(rng.uniform(low, high))
    answers = AnswerSet(schema)
    workers = list(variances)
    for i in range(schema.num_rows):
        for j, column in enumerate(schema.columns):
            chosen = rng.choice(workers, size=answers_per_cell, replace=False)
            for worker in chosen:
                variance = variances[worker]
                if column.is_categorical:
                    quality = float(model.quality_from_variance(variance))
                    index = model.sample_categorical_answer(
                        rng, column.label_index(truth[(i, j)]), quality,
                        column.num_labels,
                    )
                    answers.add_answer(worker, i, j, column.labels[index])
                else:
                    low, high = column.domain
                    scale = (high - low) / 10.0
                    noise = rng.normal(0.0, scale * np.sqrt(variance))
                    answers.add_answer(worker, i, j, float(truth[(i, j)]) + noise)
    return truth, answers


@pytest.fixture(scope="session")
def mixed_truth_and_answers(mixed_schema, worker_variances):
    """Ground truth and generated answers for the mixed schema."""
    return _generate_answers(mixed_schema, worker_variances, seed=0)


@pytest.fixture(scope="session")
def mixed_answers(mixed_truth_and_answers) -> AnswerSet:
    """Answer set over the mixed schema (do not mutate; copy() first)."""
    return mixed_truth_and_answers[1]


@pytest.fixture(scope="session")
def mixed_truth(mixed_truth_and_answers) -> dict:
    """Ground truth for the mixed schema."""
    return mixed_truth_and_answers[0]


@pytest.fixture(scope="session")
def fitted_result(mixed_schema, mixed_answers):
    """A fitted T-Crowd inference result over the mixed schema."""
    model = TCrowdModel(max_iterations=20)
    return model.fit(mixed_schema, mixed_answers)


@pytest.fixture(scope="session")
def small_dataset():
    """A small synthetic dataset with oracle and worker pool."""
    return generate_synthetic(
        num_rows=15,
        num_columns=6,
        categorical_ratio=0.5,
        answers_per_task=3,
        num_workers=20,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_restaurant():
    """A reduced simulated Restaurant dataset (30 rows)."""
    return load_restaurant(seed=5, num_rows=30)


@pytest.fixture()
def answer_factory(mixed_schema, worker_variances):
    """Factory building fresh (truth, answers) pairs with a chosen seed."""

    def build(seed=0, answers_per_cell=4):
        return _generate_answers(
            mixed_schema, worker_variances, seed=seed,
            answers_per_cell=answers_per_cell,
        )

    return build
