"""Tests for the incremental assignment engine (repro.engine) and its
warm-start / vectorised counterparts in repro.core."""

import numpy as np
import pytest
from test_golden_trace import SeedPathAssigner, rescan_candidates

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner, top_k_stable
from repro.core.inference import TCrowdModel
from repro.core.information_gain import InformationGainCalculator
from repro.core.posteriors import Posterior
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.datasets import generate_synthetic
from repro.utils.exceptions import AssignmentError


@pytest.fixture()
def fast_model():
    return TCrowdModel(max_iterations=8, m_step_iterations=12)


class TestSessionState:
    """Candidate cells and the open-cell check, derived from the answers."""

    def test_candidates_match_legacy_scan(self, mixed_schema, mixed_answers):
        # Every fixture cell has 4 answers; the strided subset has 1 or 2.
        sparse = AnswerSet(mixed_schema, list(mixed_answers)[::3])
        for answers in (mixed_answers, sparse):
            for cap in (None, 1, 2, 3, 4, 5):
                policy = TCrowdAssigner(mixed_schema, max_answers_per_cell=cap)
                for worker in mixed_answers.workers + ["brand-new"]:
                    assert policy.candidate_cells(worker, answers) == (
                        rescan_candidates(mixed_schema, answers, worker, cap=cap)
                    )

    def test_open_cell_pool_shrinks_to_zero(self, mixed_schema):
        answers = AnswerSet(mixed_schema)
        policy = TCrowdAssigner(mixed_schema, max_answers_per_cell=1)
        assert policy.has_open_cells(answers)
        assert len(policy.candidate_array("other", answers)) == mixed_schema.num_cells
        for i in range(mixed_schema.num_rows):
            for j, column in enumerate(mixed_schema.columns):
                value = column.labels[0] if column.is_categorical else 1.0
                answers.add_answer("solo", i, j, value)
        assert not policy.has_open_cells(answers)
        assert policy.candidate_cells("other", answers) == []
        assert policy.candidate_array("other", answers).shape == (0, 2)

    def test_rebuilds_for_a_different_answer_set(self, mixed_schema, mixed_answers):
        """One policy follows whichever answer set it is given."""
        policy = TCrowdAssigner(mixed_schema, max_answers_per_cell=5)
        other = mixed_answers.copy()
        label = mixed_schema.columns[0].labels[0]
        other.add_answer("fresh", 0, 0, label)
        assert (0, 0) in policy.candidate_cells("fresh", mixed_answers)
        assert (0, 0) not in policy.candidate_cells("fresh", other)
        for answers in (mixed_answers, other, mixed_answers):
            for worker in ("fresh", mixed_answers.workers[0]):
                assert policy.candidate_cells(worker, answers) == rescan_candidates(
                    mixed_schema, answers, worker, cap=5
                )

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_a_cap_below_one(self, mixed_schema, cap):
        with pytest.raises(AssignmentError, match="max_answers_per_cell"):
            TCrowdAssigner(mixed_schema, max_answers_per_cell=cap)

    def test_policy_candidate_cells_identical_to_legacy(
        self, mixed_schema, mixed_answers, fast_model
    ):
        engine = TCrowdAssigner(mixed_schema, model=fast_model)
        for worker in mixed_answers.workers:
            assert engine.candidate_cells(worker, mixed_answers) == (
                rescan_candidates(mixed_schema, mixed_answers, worker)
            )


class TestWarmStart:
    def _grow(self, dataset, extra=6, seed=3):
        rng = np.random.default_rng(seed)
        answers = dataset.answers.copy()
        worker = dataset.answers.workers[0]
        added = 0
        for i in range(dataset.schema.num_rows):
            for j in range(dataset.schema.num_columns):
                if added >= extra:
                    return answers
                if not answers.has_answered(worker, i, j):
                    value = dataset.oracle.answer(worker, i, j, rng)
                    answers.add_answer(worker, i, j, value)
                    added += 1
        return answers

    def test_warm_refit_matches_cold_fit_within_tolerance(self):
        """Warm and cold starts approach the same EM fixed point.

        The EM crawl is slow (difficulty parameters keep creeping), so the
        two trajectories only agree once both have run long enough; with 200
        iterations the qualities match to ~1e-3 and the posterior means to a
        few percent.  The warm fit gets the same 200-iteration budget as the
        cold one (``warm_iterations``), not the short serving budget.
        """
        dataset = generate_synthetic(
            num_rows=10, num_columns=4, categorical_ratio=0.5,
            answers_per_task=4, seed=11,
        )
        model = TCrowdModel(
            max_iterations=200, warm_iterations=200, m_step_iterations=25
        )
        previous = model.fit(dataset.schema, dataset.answers)
        grown = self._grow(dataset)
        cold = model.fit(dataset.schema, grown)
        warm = model.fit(dataset.schema, grown, init=previous)

        cold_q = cold.worker_qualities()
        warm_q = warm.worker_qualities()
        assert set(cold_q) == set(warm_q)
        for worker, quality in cold_q.items():
            assert warm_q[worker] == pytest.approx(quality, abs=0.01)
        for (i, j) in cold.answered_cells():
            posterior, other = cold.posterior(i, j), warm.posterior(i, j)
            if posterior.is_categorical:
                assert np.allclose(posterior.probs, other.probs, atol=0.05)
            else:
                assert other.mean == pytest.approx(posterior.mean, rel=0.05, abs=0.1)

    def test_warm_and_cold_agree_on_top_k_assignments(self):
        dataset = generate_synthetic(
            num_rows=10, num_columns=4, categorical_ratio=0.5,
            answers_per_task=4, seed=11,
        )
        model = TCrowdModel(max_iterations=40, m_step_iterations=25)
        previous = model.fit(dataset.schema, dataset.answers)
        grown = self._grow(dataset)
        cold = model.fit(dataset.schema, grown)
        warm = model.fit(dataset.schema, grown, init=previous)
        worker = dataset.answers.workers[1]
        cells = list(dataset.schema.cells())
        k = 5
        cold_gains = InformationGainCalculator(cold).gains_batch(worker, cells)
        warm_gains = InformationGainCalculator(warm).gains_batch(worker, cells)
        cold_top = {cells[i] for i in top_k_stable(cold_gains, k)}
        warm_top = {cells[i] for i in top_k_stable(warm_gains, k)}
        assert cold_top == warm_top

    def test_new_workers_start_at_median_phi(self):
        dataset = generate_synthetic(
            num_rows=8, num_columns=4, categorical_ratio=0.5,
            answers_per_task=3, seed=5,
        )
        model = TCrowdModel(max_iterations=5, m_step_iterations=10)
        previous = model.fit(dataset.schema, dataset.answers)
        grown = dataset.answers.copy()
        column = dataset.schema.columns[0]
        value = (
            column.labels[0] if column.is_categorical else 1.0
        )
        grown.add_answer("never-seen-before", 0, 0, value)
        result = model.fit(dataset.schema, grown, init=previous)
        assert result.has_worker("never-seen-before")
        assert np.isfinite(result.worker_variance("never-seen-before"))


class TestVectorizedSelect:
    def test_vectorized_select_matches_scalar_select(
        self, mixed_schema, mixed_answers
    ):
        def build(assigner):
            return assigner(
                mixed_schema,
                model=TCrowdModel(max_iterations=8, m_step_iterations=12),
                use_structure=True,
                warm_start=False,
            )

        for worker in ("expert", "good", "brand-new"):
            fast = build(TCrowdAssigner).select(worker, mixed_answers, k=4)
            slow = build(SeedPathAssigner).select(worker, mixed_answers, k=4)
            assert fast.cells == slow.cells
            assert fast.gains == pytest.approx(slow.gains, rel=1e-9, abs=1e-12)

    def test_gains_batch_matches_scalar_gain(self, mixed_schema, mixed_answers):
        model = TCrowdModel(max_iterations=8, m_step_iterations=12)
        result = model.fit(mixed_schema, mixed_answers)
        cells = list(mixed_schema.cells())
        worker = mixed_answers.workers[0]
        for calculator in (
            InformationGainCalculator(result),
            StructureAwareGainCalculator(result, mixed_answers),
        ):
            batch = calculator.gains_batch(worker, cells)
            scalar = [calculator.gain(worker, r, c) for r, c in cells]
            assert batch == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_top_k_stable_breaks_ties_by_index(self):
        gains = np.array([0.5, 1.0, 1.0, 0.25, 1.0])
        assert list(top_k_stable(gains, 2)) == [1, 2]
        assert list(top_k_stable(gains, 4)) == [1, 2, 4, 0]
        assert list(top_k_stable(gains, 10)) == [1, 2, 4, 0, 3]


class TestPosteriorProtocol:
    def test_both_families_satisfy_protocol(self, mixed_schema, mixed_answers):
        model = TCrowdModel(max_iterations=5, m_step_iterations=8)
        result = model.fit(mixed_schema, mixed_answers)
        for cell in result.answered_cells():
            posterior = result.posterior(*cell)
            assert isinstance(posterior, Posterior)
            assert np.isfinite(posterior.entropy())
            assert posterior.point_estimate() is not None

