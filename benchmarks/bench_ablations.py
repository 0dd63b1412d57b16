"""Ablation benchmarks for three of the reproduction's design choices.

These go beyond the paper's own tables: they isolate the contribution of
(1) the unified worker quality across datatypes, (2) the row/column
difficulty model, and (3) the closed-form continuous information gain versus
the paper's sampling estimator.
"""

import numpy as np
from conftest import FAST_MODEL, run_once

from repro.core.inference import TCrowdModel
from repro.core.information_gain import InformationGainCalculator
from repro.core.restricted import TCrowdCategoricalOnly, TCrowdContinuousOnly
from repro.datasets import load_restaurant
from repro.metrics import error_rate, mnad


def _dataset():
    return load_restaurant(seed=11, num_rows=60)


def test_ablation_unified_vs_per_datatype(benchmark):
    """Unified quality (full T-Crowd) vs per-datatype restricted variants."""
    dataset = _dataset()

    def run():
        full = TCrowdModel(**FAST_MODEL).fit(dataset.schema, dataset.answers)
        cat_only = TCrowdCategoricalOnly(**FAST_MODEL).fit(dataset.schema, dataset.answers)
        cont_only = TCrowdContinuousOnly(**FAST_MODEL).fit(dataset.schema, dataset.answers)
        return {
            "full_error": error_rate(full, dataset),
            "cat_only_error": error_rate(cat_only, dataset),
            "full_mnad": mnad(full, dataset),
            "cont_only_mnad": mnad(cont_only, dataset),
        }

    metrics = run_once(benchmark, run)
    # Sharing quality across datatypes should not hurt either datatype.
    assert metrics["full_error"] <= metrics["cat_only_error"] + 0.02
    assert metrics["full_mnad"] <= metrics["cont_only_mnad"] + 0.02


def test_ablation_difficulty_model(benchmark):
    """Row/column difficulty model on vs off (alpha_i = beta_j = 1)."""
    dataset = _dataset()

    def run():
        with_difficulty = TCrowdModel(**FAST_MODEL).fit(dataset.schema, dataset.answers)
        without_difficulty = TCrowdModel(use_difficulty=False, **FAST_MODEL).fit(
            dataset.schema, dataset.answers
        )
        return {
            "with": error_rate(with_difficulty, dataset),
            "without": error_rate(without_difficulty, dataset),
        }

    metrics = run_once(benchmark, run)
    assert metrics["with"] <= metrics["without"] + 0.03


def _sampled_gain(posterior, answer_variance, samples, rng):
    """The paper's ``s_cont`` estimator: the entropy drop averaged over
    hypothetical answers drawn from the predictive distribution."""
    predictive_std = np.sqrt(posterior.predictive_variance(answer_variance))
    draws = rng.normal(posterior.mean, predictive_std, samples)
    expected = np.mean(
        [posterior.updated_with_answer(a, answer_variance).entropy() for a in draws]
    )
    return posterior.entropy() - expected


def test_ablation_closed_form_vs_sampled_gain(benchmark):
    """Closed-form continuous information gain vs the sampling estimator."""
    dataset = _dataset()
    result = TCrowdModel(**FAST_MODEL).fit(dataset.schema, dataset.answers)
    worker = result.worker_ids[0]
    cont_col = dataset.schema.continuous_indices[0]
    cells = [(row, cont_col) for row in range(min(dataset.schema.num_rows, 20))]

    def run():
        closed = InformationGainCalculator(result)
        rng = np.random.default_rng(0)
        closed_gains = [closed.gain(worker, *cell) for cell in cells]
        sampled_gains = [
            _sampled_gain(
                result.posterior(*cell), result.answer_variance(worker, *cell), 50, rng
            )
            for cell in cells
        ]
        return closed_gains, sampled_gains

    closed_gains, sampled_gains = run_once(benchmark, run)
    # The two estimators agree closely; the closed form is what T-Crowd uses.
    difference = np.mean(np.abs(np.array(closed_gains) - np.array(sampled_gains)))
    assert difference < 0.1
