"""Hot-path tests: scoring cache, profile stages, Newton M-step.

The async serving path's speed features (the snapshot-keyed
scoring-calculator cache of :class:`~repro.engine.AsyncRefitPolicy`) and the
Newton M-step must be behaviour-neutral where the equivalence bits say so
and objective-equivalent where EM tolerance allows.  These tests pin each
claim in isolation; the end-to-end bit-identity stays with the golden-trace
matrix and the benchmark gates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import STRATEGY_NAMES, SessionSpec
from repro.config.factory import build_assigner
from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.engine import AsyncRefitPolicy
from repro.engine.profiling import BUCKET_BOUNDS, HotPathProfile, stage
from repro.utils.exceptions import InferenceError

FAST_MODEL = {"max_iterations": 3, "m_step_iterations": 6}


def _seeded_answers(schema, answers_per_cell=2, seed=0) -> AnswerSet:
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        for col, column in enumerate(schema.columns):
            for index in range(answers_per_cell):
                worker = f"w{(row + index) % 5}"
                if column.is_categorical:
                    value = column.labels[int(rng.integers(column.num_labels))]
                else:
                    low, high = column.domain
                    value = float(rng.uniform(low, high))
                answers.add_answer(worker, row, col, value)
    return answers


def _assigner(schema, **kwargs) -> TCrowdAssigner:
    options = dict(refit_every=1, warm_start=True)
    options.update(kwargs)
    return TCrowdAssigner(schema, model=TCrowdModel(**FAST_MODEL), **options)


# -- snapshot-keyed scoring-calculator cache ----------------------------------


class TestScoringCache:
    def _policy(self, schema):
        return AsyncRefitPolicy(_assigner(schema), max_stale_answers=0)

    def test_repeat_select_hits_cache(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = self._policy(mixed_schema)
        first = policy.select("w0", answers, k=2)
        assert policy.scoring_cache_misses == 1
        second = policy.select("w0", answers, k=2)
        assert policy.scoring_cache_hits == 1
        assert first.cells == second.cells

    def test_new_answers_invalidate(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = self._policy(mixed_schema)
        policy.select("w0", answers, k=1)
        answers.add_answer("w9", 0, 0, "red")
        policy.observe(answers)
        policy.select("w0", answers, k=1)
        assert policy.scoring_cache_hits == 0
        assert policy.scoring_cache_misses == 2

    def test_epoch_change_invalidates_same_answer_count(self, mixed_schema):
        """A refit that publishes a new epoch must drop the cache even when
        the answer count is unchanged."""
        answers = _seeded_answers(mixed_schema)
        policy = self._policy(mixed_schema)
        policy.select("w0", answers, k=1)
        snapshot = policy.engine.snapshot
        # Re-publish the same result under a new epoch directly on the
        # engine (the policy's own restore_state clears the cache, which
        # would make this test vacuous): only the key's epoch changes.
        policy.engine.restore(snapshot.result, snapshot.answers_seen)
        assert policy.engine.snapshot.epoch > snapshot.epoch
        policy.select("w0", answers, k=1)
        assert policy.scoring_cache_hits == 0
        assert policy.scoring_cache_misses == 2

    def test_restore_clears_cache(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = self._policy(mixed_schema)
        policy.select("w0", answers, k=1)
        result, seen = policy.snapshot_state()
        policy.restore_state(result, seen)
        policy.select("w0", answers, k=1)
        assert policy.scoring_cache_misses == 2

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_cache_hit_scores_like_a_rebuild(self, mixed_schema, strategy):
        """Every strategy's calculator is a pure function of the snapshot
        and the answer prefix, so a hit serves another worker exactly what
        a policy without cache history computes."""
        spec = (
            SessionSpec.builder()
            .model(**FAST_MODEL)
            .strategy(strategy, seed=3, epsilon=0.5)
            .build()
        )
        answers = _seeded_answers(mixed_schema)
        cached = AsyncRefitPolicy(build_assigner(mixed_schema, spec))
        cold = AsyncRefitPolicy(build_assigner(mixed_schema, spec))
        cached.select("w0", answers, k=3)
        hit = cached.select("w3", answers, k=3)
        assert cached.scoring_cache_hits == 1
        rebuilt = cold.select("w3", answers, k=3)
        assert hit.cells == rebuilt.cells
        assert hit.gains == rebuilt.gains

    def test_cache_keeps_one_calculator_alive(self, mixed_schema):
        import gc
        import weakref

        answers = _seeded_answers(mixed_schema)
        policy = self._policy(mixed_schema)
        policy.select("w0", answers, k=1)
        first = weakref.ref(policy._cached_calculator)
        answers.add_answer("w9", 0, 0, "red")
        policy.select("w0", answers, k=1)
        gc.collect()
        assert first() is None
        assert policy._cached_calculator is not None


# -- Newton M-step ------------------------------------------------------------


class TestNewtonMStep:
    def test_rejects_unknown_m_step(self):
        with pytest.raises(InferenceError):
            TCrowdModel(m_step="sgd")

    def test_converges_to_same_objective(self, mixed_schema):
        """Both M-steps maximise the same Eq. 5; at convergence the EM
        objectives must agree within the relative stopping tolerance."""
        answers = _seeded_answers(mixed_schema, answers_per_cell=3)
        tol = 1e-4
        results = {}
        for variant in ("lbfgs", "newton"):
            model = TCrowdModel(
                max_iterations=40, m_step_iterations=30, m_step=variant
            )
            results[variant] = model.fit(mixed_schema, answers, tol=tol)
        obj_lbfgs = results["lbfgs"].objective_trace[-1]
        obj_newton = results["newton"].objective_trace[-1]
        assert obj_newton == pytest.approx(
            obj_lbfgs, rel=10 * tol, abs=10 * tol * max(1.0, abs(obj_lbfgs))
        )

    def test_newton_objective_is_monotone(self, mixed_schema):
        """Generalized EM: every Newton M-step must improve (or match) the
        objective — the L-BFGS fallback guarantees it."""
        answers = _seeded_answers(mixed_schema, answers_per_cell=3)
        model = TCrowdModel(max_iterations=15, m_step="newton")
        trace = model.fit(mixed_schema, answers).objective_trace
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-6 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_newton_decodes_same_truths(self, mixed_schema):
        answers = _seeded_answers(mixed_schema, answers_per_cell=3)
        fits = {
            variant: TCrowdModel(
                max_iterations=40, m_step_iterations=30, m_step=variant
            ).fit(mixed_schema, answers, tol=1e-4)
            for variant in ("lbfgs", "newton")
        }
        matches = 0
        for row in range(mixed_schema.num_rows):
            for col, column in enumerate(mixed_schema.columns):
                a = fits["lbfgs"].estimate(row, col)
                b = fits["newton"].estimate(row, col)
                if column.is_categorical:
                    matches += a == b
                else:
                    matches += abs(float(a) - float(b)) <= max(
                        0.05 * abs(float(a)), 0.1
                    )
        assert matches / mixed_schema.num_cells >= 0.9

    def test_default_path_is_lbfgs(self):
        assert TCrowdModel().m_step == "lbfgs"


# -- HotPathProfile -----------------------------------------------------------


class TestHotPathProfile:
    def test_stage_contextmanager_records(self):
        profile = HotPathProfile()
        with profile.stage("gains_batch"):
            pass
        stats = profile.stats("gains_batch")
        assert stats.calls == 1
        assert stats.seconds >= 0.0

    def test_none_profile_stage_is_noop(self):
        with stage(None, "gains_batch"):
            pass  # must not raise

    def test_buckets_are_cumulative_in_render(self):
        profile = HotPathProfile()
        profile.record("em_refit", 0.0002)
        profile.record("em_refit", 0.02)
        profile.record("em_refit", 2.0)  # beyond the last bound -> +Inf only
        lines = profile.render_prometheus()
        inf_line = next(
            line for line in lines
            if 'stage="em_refit"' in line and 'le="+Inf"' in line
        )
        assert inf_line.endswith(" 3")
        count_line = next(
            line for line in lines
            if line.startswith("repro_hotpath_stage_seconds_count")
            and 'stage="em_refit"' in line
        )
        assert count_line.endswith(" 3")

    def test_to_dict_orders_canonical_stages_first(self):
        profile = HotPathProfile()
        profile.record("top_k_merge", 0.001)
        profile.record("custom_stage", 0.001)
        profile.record("snapshot_acquire", 0.001)
        names = list(profile.to_dict())
        assert names == ["snapshot_acquire", "top_k_merge", "custom_stage"]

    def test_bucket_bounds_are_increasing(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)

    def test_profile_wired_through_async_policy(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = AsyncRefitPolicy(_assigner(mixed_schema), max_stale_answers=0)
        profile = HotPathProfile()
        policy.set_profile(profile)
        policy.select("w0", answers, k=2)
        snapshot = profile.to_dict()
        for name in ("snapshot_acquire", "calculator_build", "gains_batch",
                     "top_k_merge"):
            assert snapshot[name]["calls"] >= 1

    def test_profile_counts_one_build_per_cache_miss(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = AsyncRefitPolicy(_assigner(mixed_schema), max_stale_answers=0)
        profile = HotPathProfile()
        policy.set_profile(profile)
        for worker in ("w0", "w1", "w2"):
            policy.select(worker, answers, k=1)
        stages = profile.to_dict()
        assert policy.scoring_cache_misses == 1
        assert stages["calculator_build"]["calls"] == 1
        assert stages["gains_batch"]["calls"] == 3

    @staticmethod
    def _drive(policy, answers, schema):
        """Three selects, each followed by its observed answers, then one
        unobserved answer and two reads (the first catches the model up)."""
        rng = np.random.default_rng(5)

        def answer(worker, row, col):
            column = schema.columns[col]
            value = (
                column.labels[int(rng.integers(column.num_labels))]
                if column.is_categorical
                else float(rng.uniform(*column.domain))
            )
            answers.add_answer(worker, row, col, value)

        selects = 0
        for worker in ("w0", "w1", "w2"):
            assignment = policy.select(worker, answers, k=2)
            selects += 1
            for row, col in assignment.cells:
                answer(worker, row, col)
            policy.observe(answers)
        answer("w9", 0, 0)
        policy.final_result(answers)
        policy.final_result(answers)
        return selects

    def test_profile_wired_through_sync_assigner(self, mixed_schema, monkeypatch):
        fits = []
        original = TCrowdModel.fit

        def fit(model, *args, **kwargs):
            fits.append(1)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(TCrowdModel, "fit", fit)
        answers = _seeded_answers(mixed_schema)
        policy = _assigner(mixed_schema)
        profile = HotPathProfile()
        policy.set_profile(profile)
        selects = self._drive(policy, answers, mixed_schema)
        stages = profile.to_dict()
        # The first select's, one per observe, the first read's.
        assert len(fits) == 5
        assert stages["em_refit"]["calls"] == len(fits)
        for name in ("calculator_build", "gains_batch", "top_k_merge"):
            assert stages[name]["calls"] == selects
        assert "snapshot_acquire" not in stages
        policy.set_profile(None)
        policy.select("w3", answers, k=1)
        assert profile.to_dict() == stages

    def test_async_policy_counts_each_stage_once(self, mixed_schema, monkeypatch):
        """The wrapped assigner carries no profile, so nothing it does is
        timed a second time."""
        fits = []
        original = TCrowdModel.fit

        def fit(model, *args, **kwargs):
            fits.append(1)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(TCrowdModel, "fit", fit)
        answers = _seeded_answers(mixed_schema)
        policy = AsyncRefitPolicy(_assigner(mixed_schema), max_stale_answers=0)
        profile = HotPathProfile()
        policy.set_profile(profile)
        selects = self._drive(policy, answers, mixed_schema)
        assert policy.inner.profile is None
        stages = profile.to_dict()
        assert stages["em_refit"]["calls"] == len(fits) == 4
        assert stages["calculator_build"]["calls"] == policy.scoring_cache_misses
        for name in ("snapshot_acquire", "gains_batch", "top_k_merge"):
            assert stages[name]["calls"] == selects
