"""Tests for T-Crowd truth inference (repro.core.inference)."""

import numpy as np
import pytest

from repro.baselines import MajorityVoting, MedianAggregator
from repro.core.answers import AnswerSet
from repro.core.inference import TCrowdModel
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.core.restricted import TCrowdCategoricalOnly, TCrowdContinuousOnly
from repro.core.schema import Column, TableSchema
from repro.utils.exceptions import ConfigurationError, InferenceError


class TestFitBasics:
    def test_fit_returns_posteriors_for_answered_cells(self, mixed_schema, mixed_answers, fitted_result):
        answered = {(a.row, a.col) for a in mixed_answers}
        assert set(fitted_result.answered_cells()) == answered

    def test_posterior_types_match_column_types(self, mixed_schema, fitted_result):
        for (row, col) in fitted_result.answered_cells():
            posterior = fitted_result.posterior(row, col)
            if mixed_schema.columns[col].is_categorical:
                assert isinstance(posterior, CategoricalPosterior)
            else:
                assert isinstance(posterior, GaussianPosterior)

    def test_estimates_cover_every_cell(self, mixed_schema, fitted_result):
        estimates = fitted_result.estimates()
        assert len(estimates) == mixed_schema.num_cells

    def test_estimate_values_valid(self, mixed_schema, fitted_result):
        for (row, col), value in fitted_result.estimates().items():
            column = mixed_schema.columns[col]
            if column.is_categorical:
                assert column.contains_label(value)
            else:
                assert isinstance(value, float)

    def test_unanswered_cell_gets_prior_posterior(self, mixed_schema, fitted_result):
        # Cells outside the schema bounds are invalid, but any unanswered
        # valid cell should produce a prior-based posterior.
        missing = None
        for cell in mixed_schema.cells():
            if cell not in fitted_result.answered_cells():
                missing = cell
                break
        if missing is None:
            pytest.skip("every cell was answered in this fixture")
        posterior = fitted_result.posterior(*missing)
        assert posterior.entropy() > 0

    def test_difficulties_positive(self, fitted_result):
        assert np.all(fitted_result.alpha > 0)
        assert np.all(fitted_result.beta > 0)
        assert np.all(fitted_result.phi > 0)

    def test_difficulty_normalisation(self, fitted_result):
        # Geometric means of alpha and beta are anchored at one.
        assert np.exp(np.mean(np.log(fitted_result.alpha))) == pytest.approx(1.0, rel=1e-6)
        assert np.exp(np.mean(np.log(fitted_result.beta))) == pytest.approx(1.0, rel=1e-6)

    def test_row_and_column_difficulty_accessors(self, fitted_result):
        assert fitted_result.row_difficulty(0) == pytest.approx(float(fitted_result.alpha[0]))
        assert fitted_result.column_difficulty(1) == pytest.approx(float(fitted_result.beta[1]))

    def test_objective_trace_monotone_overall(self, fitted_result):
        trace = fitted_result.objective_trace
        assert len(trace) >= 2
        assert trace[-1] >= trace[0]

    def test_empty_answer_set_rejected(self, mixed_schema):
        with pytest.raises(InferenceError):
            TCrowdModel().fit(mixed_schema, AnswerSet(mixed_schema))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            TCrowdModel(epsilon=-1.0)
        with pytest.raises(ConfigurationError):
            TCrowdModel(max_iterations=0)
        with pytest.raises(ConfigurationError, match="warm_iterations"):
            TCrowdModel(warm_iterations=0)


class TestWorkerQuality:
    def test_worker_quality_in_unit_interval(self, fitted_result):
        for worker in fitted_result.worker_ids:
            assert 0.0 < fitted_result.worker_quality(worker) < 1.0

    def test_worker_quality_ranking_matches_latent(self, fitted_result, worker_variances):
        # Better (lower-variance) workers should receive higher quality.
        qualities = fitted_result.worker_qualities()
        assert qualities["expert"] > qualities["average"] > qualities["spammer"]

    def test_unknown_worker_raises(self, fitted_result):
        with pytest.raises(InferenceError):
            fitted_result.worker_variance("nobody")

    def test_has_worker(self, fitted_result):
        assert fitted_result.has_worker("expert")
        assert not fitted_result.has_worker("nobody")

    def test_cell_quality_depends_on_difficulty(self, fitted_result, mixed_schema):
        worker = fitted_result.worker_ids[0]
        hardest_row = int(np.argmax(fitted_result.alpha))
        easiest_row = int(np.argmin(fitted_result.alpha))
        col = 0
        assert fitted_result.cell_quality(worker, easiest_row, col) >= fitted_result.cell_quality(
            worker, hardest_row, col
        )

    def test_answer_variance_in_original_scale(self, fitted_result, mixed_schema):
        worker = fitted_result.worker_ids[0]
        cont_col = mixed_schema.continuous_indices[0]
        cat_col = mixed_schema.categorical_indices[0]
        cont_var = fitted_result.answer_variance(worker, 0, cont_col)
        std_var = fitted_result.standardized_answer_variance(worker, 0, cont_col)
        scale = float(fitted_result.column_scale[cont_col])
        assert cont_var == pytest.approx(std_var * scale**2)
        # Categorical columns have scale one.
        assert fitted_result.answer_variance(worker, 0, cat_col) == pytest.approx(
            fitted_result.standardized_answer_variance(worker, 0, cat_col)
        )


class TestAccuracy:
    def test_beats_majority_voting_on_categorical(self, mixed_schema, mixed_answers, mixed_truth, fitted_result):
        mv = MajorityVoting().fit(mixed_schema, mixed_answers)
        cat_cells = [
            cell for cell in mixed_truth if mixed_schema.columns[cell[1]].is_categorical
        ]
        tcrowd_errors = sum(
            fitted_result.estimate(*cell) != mixed_truth[cell] for cell in cat_cells
        )
        mv_errors = sum(
            mv.estimate(*cell) != mixed_truth[cell] for cell in cat_cells
        )
        assert tcrowd_errors <= mv_errors

    def test_beats_median_on_continuous(self, mixed_schema, mixed_answers, mixed_truth, fitted_result):
        median = MedianAggregator().fit(mixed_schema, mixed_answers)
        cont_cells = [
            cell for cell in mixed_truth if mixed_schema.columns[cell[1]].is_continuous
        ]
        tcrowd_rmse = np.sqrt(np.mean([
            (fitted_result.estimate(*cell) - mixed_truth[cell]) ** 2 for cell in cont_cells
        ]))
        median_rmse = np.sqrt(np.mean([
            (median.estimate(*cell) - mixed_truth[cell]) ** 2 for cell in cont_cells
        ]))
        assert tcrowd_rmse <= median_rmse * 1.05

    def test_reproducible_given_same_inputs(self, mixed_schema, mixed_answers):
        result_a = TCrowdModel(max_iterations=10).fit(mixed_schema, mixed_answers)
        result_b = TCrowdModel(max_iterations=10).fit(mixed_schema, mixed_answers)
        assert np.allclose(result_a.phi, result_b.phi)
        assert result_a.estimates() == result_b.estimates()


class TestVariants:
    def test_use_difficulty_false_fixes_alpha_beta(self, mixed_schema, mixed_answers):
        result = TCrowdModel(max_iterations=8, use_difficulty=False).fit(
            mixed_schema, mixed_answers
        )
        assert np.allclose(result.alpha, 1.0)
        assert np.allclose(result.beta, 1.0)

    def test_no_standardisation_still_works(self, mixed_schema, mixed_answers):
        result = TCrowdModel(max_iterations=8, standardize_continuous=False).fit(
            mixed_schema, mixed_answers
        )
        assert np.allclose(result.column_scale, 1.0)
        assert len(result.estimates()) == mixed_schema.num_cells

    def test_categorical_only_variant(self, mixed_schema, mixed_answers):
        result = TCrowdCategoricalOnly(max_iterations=8).fit(mixed_schema, mixed_answers)
        cat_cols = set(mixed_schema.categorical_indices)
        assert all(col in cat_cols for (_row, col) in result.answered_cells())

    def test_continuous_only_variant(self, mixed_schema, mixed_answers):
        result = TCrowdContinuousOnly(max_iterations=8).fit(mixed_schema, mixed_answers)
        cont_cols = set(mixed_schema.continuous_indices)
        assert all(col in cont_cols for (_row, col) in result.answered_cells())

    def test_restricted_variant_requires_matching_columns(self, mixed_answers):
        schema = TableSchema.build(
            "e", [Column.continuous("x", (0, 1)), Column.continuous("y", (0, 1))], 3
        )
        with pytest.raises(InferenceError):
            TCrowdCategoricalOnly().fit(schema, AnswerSet(schema))

    def test_single_datatype_tables(self):
        # All-continuous table.
        schema = TableSchema.build(
            "e", [Column.continuous("a", (0, 10)), Column.continuous("b", (0, 10))], 5
        )
        rng = np.random.default_rng(0)
        answers = AnswerSet(schema)
        for i in range(5):
            for j in range(2):
                for worker in ("w1", "w2", "w3"):
                    answers.add_answer(worker, i, j, float(rng.uniform(0, 10)))
        result = TCrowdModel(max_iterations=5).fit(schema, answers)
        assert len(result.estimates()) == 10

        # All-categorical table.
        schema2 = TableSchema.build(
            "e", [Column.categorical("c", ["x", "y"]), Column.categorical("d", ["p", "q", "r"])], 4
        )
        answers2 = AnswerSet(schema2)
        for i in range(4):
            answers2.add_answer("w1", i, 0, "x")
            answers2.add_answer("w2", i, 0, "x")
            answers2.add_answer("w1", i, 1, "p")
            answers2.add_answer("w2", i, 1, "q")
        result2 = TCrowdModel(max_iterations=5).fit(schema2, answers2)
        assert result2.estimate(0, 0) == "x"
