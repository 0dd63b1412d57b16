"""Tests for the attribute error-correlation models (repro.core.correlation)."""

import numpy as np
import pytest

from repro.core.correlation import (
    AttributeCorrelationModel,
    BernoulliError,
    GaussianError,
    answer_error,
)
from repro.core.inference import TCrowdModel
from repro.utils.exceptions import DataError


@pytest.fixture(scope="module")
def correlation_setup(request):
    """Fit a correlation model on the shared mixed answers."""
    mixed_schema = request.getfixturevalue("mixed_schema")
    mixed_answers = request.getfixturevalue("mixed_answers")
    result = TCrowdModel(max_iterations=15).fit(mixed_schema, mixed_answers)
    model = AttributeCorrelationModel.fit(mixed_answers, result, min_pairs=3)
    return mixed_schema, mixed_answers, result, model


class TestErrorDistributions:
    def test_bernoulli_error_clipped(self):
        assert BernoulliError(1.7).p_wrong == 1.0
        assert BernoulliError(-0.3).p_wrong == 0.0
        assert BernoulliError(0.3).quality() == pytest.approx(0.7)
        assert BernoulliError(0.3).is_categorical

    def test_gaussian_error_floor_and_moment(self):
        error = GaussianError(2.0, 0.0)
        assert error.variance > 0
        assert error.second_moment() == pytest.approx(error.variance + 4.0)
        assert not error.is_categorical


class TestAnswerError:
    def test_categorical_error_is_indicator(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        for answer in answers:
            if schema.columns[answer.col].is_categorical:
                error = answer_error(answer, result)
                assert error in (0.0, 1.0)
                expected = 0.0 if answer.value == result.estimate(answer.row, answer.col) else 1.0
                assert error == expected
                break

    def test_continuous_error_is_signed_difference(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        for answer in answers:
            if schema.columns[answer.col].is_continuous:
                error = answer_error(answer, result)
                expected = float(answer.value) - float(result.estimate(answer.row, answer.col))
                assert error == pytest.approx(expected)
                break


class TestAttributeCorrelationModel:
    def test_marginals_exist_for_every_column(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        for col, column in enumerate(schema.columns):
            marginal = model.marginal_error(col)
            assert marginal.is_categorical == column.is_categorical

    def test_marginal_unknown_column(self, correlation_setup):
        *_rest, model = correlation_setup
        with pytest.raises(DataError):
            model.marginal_error(99)

    def test_pairwise_models_fitted(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        # The fixture answers are dense enough to fit every ordered pair.
        fitted = [
            (j, k)
            for j in range(schema.num_columns)
            for k in range(schema.num_columns)
            if j != k and model.has_pair(j, k)
        ]
        assert fitted, "expected at least one fitted column pair"

    def test_weight_symmetric_in_magnitude(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        for j in range(schema.num_columns):
            for k in range(schema.num_columns):
                if j != k and model.has_pair(j, k) and model.has_pair(k, j):
                    assert abs(model.weight(j, k)) == pytest.approx(
                        abs(model.weight(k, j)), abs=1e-9
                    )

    def test_weight_zero_for_missing_pair(self, correlation_setup):
        *_rest, model = correlation_setup
        assert model.weight(0, 0) == 0.0

    def test_conditional_error_types(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cat = schema.categorical_indices[0]
        cont = schema.continuous_indices[0]
        if model.has_pair(cat, cont):
            assert model.conditional_error(cat, cont, 0.5).is_categorical
        if model.has_pair(cont, cat):
            assert not model.conditional_error(cont, cat, 1.0).is_categorical
        if model.has_pair(cat, schema.categorical_indices[1]):
            conditional = model.conditional_error(cat, schema.categorical_indices[1], 1.0)
            assert 0.0 <= conditional.p_wrong <= 1.0

    def test_conditional_falls_back_to_marginal(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        sparse = AttributeCorrelationModel.fit(answers, result, min_pairs=10**9)
        marginal = sparse.marginal_error(0)
        conditional = sparse.conditional_error(0, 1, 1.0)
        assert conditional.p_wrong == pytest.approx(marginal.p_wrong)

    def test_predict_error_without_evidence_is_marginal(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        prediction = model.predict_error(0, {})
        assert prediction.p_wrong == pytest.approx(model.marginal_error(0).p_wrong)

    def test_predict_error_with_evidence(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cat0, cat1 = schema.categorical_indices[:2]
        if not model.has_pair(cat0, cat1):
            pytest.skip("pair not fitted in fixture")
        wrong_prediction = model.predict_error(cat0, {cat1: 1.0})
        right_prediction = model.predict_error(cat0, {cat1: 0.0})
        assert 0.0 <= wrong_prediction.p_wrong <= 1.0
        assert 0.0 <= right_prediction.p_wrong <= 1.0

    def test_predict_error_continuous_target(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cont0, cont1 = schema.continuous_indices[:2]
        if not model.has_pair(cont0, cont1):
            pytest.skip("pair not fitted in fixture")
        prediction = model.predict_error(cont0, {cont1: 2.0})
        assert prediction.variance > 0


class TestSyntheticCorrelationRecovery:
    def test_strong_positive_continuous_correlation_recovered(self, mixed_schema):
        """Errors generated with a shared per-(worker,row) shift must yield a
        clearly positive fitted correlation between the two continuous columns."""
        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(9)
        answers = AnswerSet(mixed_schema)
        cont_cols = mixed_schema.continuous_indices
        for i in range(mixed_schema.num_rows):
            for worker in ("a", "b", "c", "d"):
                shared = rng.normal(0.0, 5.0)
                for j in range(mixed_schema.num_columns):
                    column = mixed_schema.columns[j]
                    if column.is_categorical:
                        answers.add_answer(worker, i, j, column.labels[0])
                    else:
                        answers.add_answer(
                            worker, i, j, 50.0 + shared + rng.normal(0.0, 1.0)
                        )
        result = TCrowdModel(max_iterations=10).fit(mixed_schema, answers)
        model = AttributeCorrelationModel.fit(answers, result, min_pairs=5)
        weight = model.weight(cont_cols[0], cont_cols[1])
        assert weight > 0.5
