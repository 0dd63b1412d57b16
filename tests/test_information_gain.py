"""Tests for inherent and structure-aware information gain."""

import numpy as np
import pytest

from repro.core.information_gain import InformationGainCalculator
from repro.core.structure_gain import StructureAwareGainCalculator


def sampled_continuous_gain(posterior, answer_variance, samples, rng):
    """The paper's ``s_cont`` estimator: the entropy drop averaged over
    hypothetical answers drawn from the predictive distribution."""
    predictive_std = np.sqrt(posterior.predictive_variance(answer_variance))
    draws = rng.normal(posterior.mean, predictive_std, samples)
    expected = np.mean(
        [posterior.updated_with_answer(a, answer_variance).entropy() for a in draws]
    )
    return posterior.entropy() - expected


class TestInherentInformationGain:
    def test_gain_positive_for_every_cell(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        worker = fitted_result.worker_ids[0]
        for cell in list(mixed_schema.cells())[:16]:
            assert calculator.gain(worker, *cell) >= -1e-9

    def test_better_worker_has_higher_gain(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        cont_col = mixed_schema.continuous_indices[0]
        cat_col = mixed_schema.categorical_indices[0]
        for col in (cont_col, cat_col):
            expert_gain = calculator.gain("expert", 0, col)
            spammer_gain = calculator.gain("spammer", 0, col)
            assert expert_gain >= spammer_gain

    def test_quality_override_controls_categorical_gain(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        cat_col = mixed_schema.categorical_indices[0]
        high = calculator.gain("average", 0, cat_col, quality_override=0.95)
        low = calculator.gain("average", 0, cat_col, quality_override=0.4)
        assert high > low

    def test_variance_override_controls_continuous_gain(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        cont_col = mixed_schema.continuous_indices[0]
        precise = calculator.gain("average", 0, cont_col, variance_override=0.5)
        noisy = calculator.gain("average", 0, cont_col, variance_override=500.0)
        assert precise > noisy

    def test_continuous_closed_form_matches_formula(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        cont_col = mixed_schema.continuous_indices[0]
        posterior = fitted_result.posterior(0, cont_col)
        answer_variance = fitted_result.answer_variance("good", 0, cont_col)
        expected = 0.5 * np.log(
            posterior.variance / posterior.updated_variance(answer_variance)
        )
        assert calculator.gain("good", 0, cont_col) == pytest.approx(expected)

    def test_sampling_estimator_close_to_closed_form(self, mixed_schema, fitted_result):
        """A conjugate Gaussian update's variance does not depend on the
        answer, so every sample gives the closed form's entropy."""
        closed = InformationGainCalculator(fitted_result)
        cont_col = mixed_schema.continuous_indices[0]
        sampled = sampled_continuous_gain(
            fitted_result.posterior(0, cont_col),
            fitted_result.answer_variance("good", 0, cont_col),
            samples=400,
            rng=np.random.default_rng(0),
        )
        assert sampled == pytest.approx(closed.gain("good", 0, cont_col), abs=1e-12)

    def test_categorical_gain_zero_for_chance_level_worker(self, mixed_schema, fitted_result):
        calculator = InformationGainCalculator(fitted_result)
        cat_col = mixed_schema.categorical_indices[0]
        num_labels = mixed_schema.columns[cat_col].num_labels
        gain = calculator.gain("average", 0, cat_col, quality_override=1.0 / num_labels)
        assert gain == pytest.approx(0.0, abs=1e-6)



class TestStructureAwareGain:
    def test_falls_back_to_inherent_without_row_history(self, mixed_schema, mixed_answers, fitted_result):
        structure = StructureAwareGainCalculator(fitted_result, mixed_answers, min_pairs=3)
        inherent = InformationGainCalculator(fitted_result)
        # Find a (worker, row) pair where the worker answered nothing.
        target = None
        for row in range(mixed_schema.num_rows):
            for worker in fitted_result.worker_ids:
                if not mixed_answers.worker_answers_in_row(worker, row):
                    target = (worker, row)
                    break
            if target:
                break
        if target is None:
            pytest.skip("every worker answered every row in this fixture")
        worker, row = target
        for col in range(mixed_schema.num_columns):
            assert structure.gain(worker, row, col) == pytest.approx(
                inherent.gain(worker, row, col)
            )

    def test_gain_differs_with_row_history(self, mixed_schema, mixed_answers, fitted_result):
        structure = StructureAwareGainCalculator(fitted_result, mixed_answers, min_pairs=3)
        inherent = InformationGainCalculator(fitted_result)
        differences = 0
        for answer in mixed_answers:
            worker, row = answer.worker, answer.row
            for col in range(mixed_schema.num_columns):
                if mixed_answers.has_answered(worker, row, col):
                    continue
                if mixed_answers.worker_answers_in_row(worker, row):
                    if abs(
                        structure.gain(worker, row, col) - inherent.gain(worker, row, col)
                    ) > 1e-12:
                        differences += 1
            if differences:
                break
        assert differences > 0

    def test_accepts_prefitted_correlation_model(self, mixed_answers, fitted_result):
        from repro.core.correlation import AttributeCorrelationModel

        correlation = AttributeCorrelationModel.fit(mixed_answers, fitted_result, min_pairs=3)
        structure = StructureAwareGainCalculator(
            fitted_result, mixed_answers, correlation_model=correlation
        )
        assert structure.correlation is correlation
