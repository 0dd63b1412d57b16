"""Tests for the async refit engine (repro.engine.refit_worker), the
durable snapshot protocol its policy shares with the bare assigner, and the
objective-based EM early stopping it builds on (repro.core.inference).

The scoring cache of :class:`~repro.engine.AsyncRefitPolicy` is pinned in
``tests/test_hotpath.py``; end-to-end bit-identity stays with the
golden-trace matrix and the benchmark's ``identical_*_async`` bits.
"""

import threading

import numpy as np
import pytest

from repro.config import SessionSpec
from repro.config.factory import build_policy
from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.core.schema import Column, TableSchema
from repro.datasets import load_celebrity
from repro.engine import (
    AsyncRefitEngine,
    AsyncRefitPolicy,
    ModelSnapshot,
    VirtualClock,
)
from repro.utils.exceptions import AssignmentError, ConfigurationError


# -- deterministic stand-ins ---------------------------------------------------


class StubResult:
    """Opaque inference result; the engine never looks inside it."""

    def __init__(self, tag):
        self.tag = tag


class StubModel:
    """Records every fit call; returns :class:`StubResult` tagged by order."""

    supports_warm_start = True
    supports_objective_tol = True

    def __init__(self, fail_at=None):
        self.calls = []
        self.fail_at = fail_at
        self.lock = threading.Lock()

    def fit(self, schema, answers, init=None, tol=None):
        with self.lock:
            order = len(self.calls)
            self.calls.append(
                {"n": len(answers), "init": init, "tol": tol, "order": order}
            )
            if self.fail_at is not None and order == self.fail_at:
                raise RuntimeError(f"stub fit #{order} failed")
            return StubResult(order)


@pytest.fixture()
def tiny_schema():
    columns = (
        Column.categorical("kind", ("a", "b")),
        Column.continuous("size", (0.0, 10.0)),
    )
    return TableSchema.build("row", columns, num_rows=3)


def _add_answers(answers, count, worker="w"):
    """Append ``count`` valid answers round-robin over the cells."""
    schema = answers.schema
    added = 0
    suffix = 0
    while added < count:
        for row in range(schema.num_rows):
            for col in range(schema.num_columns):
                if added >= count:
                    return
                column = schema.columns[col]
                value = column.labels[0] if column.is_categorical else 1.0
                answers.add_answer(f"{worker}{suffix}", row, col, value)
                added += 1
        suffix += 1


# -- ModelSnapshot -------------------------------------------------------------


class TestModelSnapshot:
    def test_staleness_counts_unseen_answers(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 4)
        snapshot = ModelSnapshot(epoch=0, result=StubResult(0), answers_seen=3)
        assert snapshot.staleness(answers) == 1

    def test_snapshot_is_immutable(self):
        snapshot = ModelSnapshot(epoch=1, result=StubResult(0), answers_seen=5)
        with pytest.raises(AttributeError):
            snapshot.epoch = 2


# -- VirtualClock --------------------------------------------------------------


class TestVirtualClock:
    def test_jobs_run_only_on_run_pending_in_order(self):
        clock = VirtualClock()
        ran = []
        clock.submit(lambda: ran.append("a"))
        clock.submit(lambda: ran.append("b"))
        assert ran == []
        assert clock.pending_jobs == 2
        assert clock.run_pending() == 2
        assert ran == ["a", "b"]
        assert clock.pending_jobs == 0
        assert clock.run_pending() == 0

    def test_drain_is_a_synchronous_alias(self):
        clock = VirtualClock()
        ran = []
        clock.submit(lambda: ran.append(1))
        assert clock.drain(timeout=0.0) is True
        assert ran == [1]

    def test_closed_clock_rejects_submissions(self):
        clock = VirtualClock()
        clock.submit(lambda: None)
        clock.close()
        assert clock.pending_jobs == 0  # close drops queued jobs
        with pytest.raises(ConfigurationError):
            clock.submit(lambda: None)


# -- AsyncRefitEngine scheduling ----------------------------------------------


class TestAsyncRefitEngine:
    def _engine(self, tiny_schema, model=None, **kwargs):
        kwargs.setdefault("clock", VirtualClock())
        return AsyncRefitEngine(model or StubModel(), tiny_schema, **kwargs)

    def test_parameter_validation(self, tiny_schema):
        with pytest.raises(ConfigurationError):
            AsyncRefitEngine(StubModel(), tiny_schema, refit_every=0)
        with pytest.raises(ConfigurationError):
            AsyncRefitEngine(StubModel(), tiny_schema, max_stale_answers=-1)

    def test_first_result_blocks_and_publishes_epoch_zero(self, tiny_schema):
        model = StubModel()
        engine = self._engine(tiny_schema, model, max_stale_answers=5)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 3)
        assert engine.snapshot is None
        assert engine.epoch == -1
        assert engine.staleness(answers) == 3
        result = engine.result_for(answers)
        assert isinstance(result, StubResult)
        assert engine.epoch == 0
        assert engine.blocking_refits == 1
        assert engine.snapshot.answers_seen == 3
        # The cold fit never receives the warm-start tolerance.
        assert model.calls[0]["init"] is None
        assert model.calls[0]["tol"] is None

    def test_bounded_staleness_serves_stale_then_blocks(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=2)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        first = engine.result_for(answers)
        # Two more answers: staleness 2 <= bound, snapshot served lock-free.
        _add_answers(answers, 2, worker="x")
        assert engine.result_for(answers) is first
        assert engine.blocking_refits == 1
        # One more: staleness 3 > bound, the select path must catch up.
        _add_answers(answers, 1, worker="y")
        second = engine.result_for(answers)
        assert second is not first
        assert engine.blocking_refits == 2
        assert engine.snapshot.epoch == 1
        assert engine.snapshot.answers_seen == 5

    def test_unbounded_staleness_never_blocks_again(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=None)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 1)
        first = engine.result_for(answers)
        _add_answers(answers, 8, worker="x")
        assert engine.result_for(answers) is first
        assert engine.blocking_refits == 1

    def test_max_stale_zero_disables_background_refits(self, tiny_schema):
        clock = VirtualClock()
        engine = self._engine(tiny_schema, max_stale_answers=0, clock=clock)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.notify(answers)
        assert clock.pending_jobs == 0
        engine.result_for(answers)
        _add_answers(answers, 1, worker="x")
        engine.notify(answers)
        assert clock.pending_jobs == 0
        engine.result_for(answers)
        assert engine.blocking_refits == 2
        assert engine.background_refits == 0

    def test_notify_coalesces_requests_to_newest_count(self, tiny_schema):
        model = StubModel()
        clock = VirtualClock()
        engine = self._engine(
            tiny_schema, model, max_stale_answers=100, clock=clock
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.notify(answers)
        _add_answers(answers, 3, worker="x")
        engine.notify(answers)
        assert clock.pending_jobs == 1  # second request coalesced
        assert clock.run_pending() == 1
        assert engine.background_refits == 1
        assert engine.snapshot.answers_seen == 5  # newest count won
        assert model.calls[-1]["n"] == 5

    def test_notify_skips_when_snapshot_fresh_enough(self, tiny_schema):
        clock = VirtualClock()
        engine = self._engine(
            tiny_schema, refit_every=3, max_stale_answers=100, clock=clock
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        _add_answers(answers, 2, worker="x")
        engine.notify(answers)  # staleness 2 < refit_every 3
        assert clock.pending_jobs == 0
        _add_answers(answers, 1, worker="y")
        engine.notify(answers)  # staleness 3 -> request
        assert clock.pending_jobs == 1

    def test_background_fit_skipped_if_blocking_refit_overtook(self, tiny_schema):
        clock = VirtualClock()
        engine = self._engine(tiny_schema, max_stale_answers=100, clock=clock)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.notify(answers)
        assert clock.pending_jobs == 1
        engine.refit_now(answers)  # blocking refit lands first
        clock.run_pending()
        assert engine.background_refits == 0  # stale request dropped
        assert engine.blocking_refits == 1
        assert engine.epoch == 0

    def test_refit_now_returns_existing_snapshot_when_caught_up(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=100)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 3)
        first = engine.refit_now(answers)
        assert engine.refit_now(answers) is first
        assert engine.blocking_refits == 1

    def test_warm_chain_and_tolerance_plumbing(self, tiny_schema):
        model = StubModel()
        clock = VirtualClock()
        engine = AsyncRefitEngine(
            model, tiny_schema, max_stale_answers=100, tol=1e-3, clock=clock
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        _add_answers(answers, 2, worker="x")
        engine.notify(answers)
        clock.run_pending()
        cold, warm = model.calls
        assert cold["init"] is None and cold["tol"] is None
        assert isinstance(warm["init"], StubResult)
        assert warm["init"].tag == cold["order"]
        assert warm["tol"] == 1e-3

    def test_cold_starts_never_get_tolerance_when_warm_start_off(self, tiny_schema):
        model = StubModel()
        engine = AsyncRefitEngine(
            model, tiny_schema, warm_start=False, tol=1e-3,
            max_stale_answers=100, clock=VirtualClock(),
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        _add_answers(answers, 2, worker="x")
        engine.refit_now(answers)
        assert all(call["init"] is None for call in model.calls)
        assert all(call["tol"] is None for call in model.calls)

    def test_background_error_surfaces_on_next_serving_call(self, tiny_schema):
        model = StubModel(fail_at=1)
        clock = VirtualClock()
        engine = self._engine(tiny_schema, model, max_stale_answers=100, clock=clock)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.result_for(answers)
        _add_answers(answers, 2, worker="x")
        engine.notify(answers)
        clock.run_pending()  # the background fit raises, error is stored
        with pytest.raises(RuntimeError, match="stub fit #1 failed"):
            engine.result_for(answers)
        # The error is raised once, then cleared.
        assert engine.result_for(answers) is not None

    def test_epochs_increase_monotonically(self, tiny_schema):
        clock = VirtualClock()
        engine = self._engine(tiny_schema, max_stale_answers=1, clock=clock)
        answers = AnswerSet(tiny_schema)
        epochs = []
        for batch in range(3):
            _add_answers(answers, 2, worker=f"b{batch}")
            engine.result_for(answers)
            engine.notify(answers)
            clock.run_pending()
            epochs.append(engine.epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_threaded_worker_drain_and_close(self, tiny_schema):
        model = StubModel()
        engine = AsyncRefitEngine(model, tiny_schema, max_stale_answers=100)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.result_for(answers)
        _add_answers(answers, 2, worker="x")
        engine.notify(answers)
        assert engine.drain(timeout=30.0)
        assert engine.snapshot.answers_seen == 4
        assert engine.background_refits == 1
        engine.close()
        engine.close()  # idempotent
        # notify after close is a silent no-op, not a crash.
        _add_answers(answers, 1, worker="y")
        engine.notify(answers)

    def test_context_manager_closes_owned_worker(self, tiny_schema):
        with AsyncRefitEngine(StubModel(), tiny_schema, max_stale_answers=5) as engine:
            answers = AnswerSet(tiny_schema)
            _add_answers(answers, 2)
            engine.result_for(answers)
        assert engine.epoch == 0


# -- AsyncRefitPolicy ----------------------------------------------------------


@pytest.fixture(scope="module")
def celebrity():
    return load_celebrity(seed=7, num_rows=10)


def _seeded_answers(dataset, seed=7):
    schema = dataset.schema
    worker_ids = dataset.worker_pool.worker_ids()
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.integers(len(worker_ids)))]
        for col in range(schema.num_columns):
            answers.add_answer(
                worker, row, col, dataset.oracle.answer(worker, row, col, rng)
            )
    return answers


class TestAsyncRefitPolicy:
    def _inner(self, schema, **kwargs):
        kwargs.setdefault("model", TCrowdModel(max_iterations=4, m_step_iterations=8))
        return TCrowdAssigner(schema, **kwargs)

    @staticmethod
    def _async_spec():
        return (
            SessionSpec.builder()
            .model(max_iterations=4, m_step_iterations=8)
            .async_refit(max_stale=0)
            .build()
        )

    def test_rejects_monte_carlo_gain_path(self, celebrity):
        inner = self._inner(celebrity.schema, continuous_samples=4)
        with pytest.raises(ConfigurationError):
            AsyncRefitPolicy(inner)

    def test_select_validates_inputs(self, celebrity):
        policy = AsyncRefitPolicy(
            self._inner(celebrity.schema), clock=VirtualClock()
        )
        answers = _seeded_answers(celebrity)
        with pytest.raises(AssignmentError):
            policy.select("w", answers, k=0)
        with pytest.raises(AssignmentError):
            policy.select("w", AnswerSet(celebrity.schema), k=1)

    def test_select_matches_synchronous_assigner(self, celebrity):
        answers = _seeded_answers(celebrity)
        sync = self._inner(celebrity.schema)
        worker = celebrity.worker_pool.worker_ids()[1]
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), max_stale_answers=0,
            clock=VirtualClock(),
        ) as policy:
            fast = policy.select(worker, answers, k=4)
            slow = sync.select(worker, answers, k=4)
            assert fast.cells == slow.cells
            assert fast.gains == pytest.approx(slow.gains, rel=1e-12, abs=1e-15)
            assert policy.last_result is not None

    def test_matches_plain_assigner_at_zero_staleness(self, celebrity):
        """Two workers on one answer prefix: the second select is a scoring
        cache hit and must still match the synchronous assigner exactly."""
        answers = _seeded_answers(celebrity)
        sync = self._inner(celebrity.schema)
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), max_stale_answers=0,
            clock=VirtualClock(),
        ) as policy:
            for worker in celebrity.worker_pool.worker_ids()[1:3]:
                fast = policy.select(worker, answers, k=4)
                slow = sync.select(worker, answers, k=4)
                assert fast.cells == slow.cells
                assert fast.gains == slow.gains
            assert policy.scoring_cache_hits == 1

    def test_name_reflects_the_serving_mode(self, celebrity):
        """An async-refit spec is served by the async wrapper, and its name
        says so."""
        spec = self._async_spec()
        assert spec.serving.describe() == "async refit (max_stale=0)"
        with build_policy(celebrity.schema, spec, clock=VirtualClock()) as policy:
            assert isinstance(policy, AsyncRefitPolicy)
            assert policy.name == f"{policy.inner.name} [async refit]"

    def test_empty_answers_rejected(self, celebrity):
        """The empty answer set is refused before any fit or scoring."""
        spec = self._async_spec()
        with build_policy(celebrity.schema, spec, clock=VirtualClock()) as policy:
            with pytest.raises(AssignmentError):
                policy.select("w0", AnswerSet(celebrity.schema), k=1)
            assert policy.engine.epoch == -1
            assert policy.engine.blocking_refits == 0
            assert policy.scoring_cache_misses == 0

    def test_observe_schedules_and_final_result_catches_up(self, celebrity):
        clock = VirtualClock()
        answers = _seeded_answers(celebrity)
        worker = celebrity.worker_pool.worker_ids()[2]
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), max_stale_answers=10 ** 6, clock=clock,
        ) as policy:
            assert policy.last_result is None
            assignment = policy.select(worker, answers, k=2)
            rng = np.random.default_rng(0)
            for row, col in assignment.cells:
                answers.add_answer(
                    worker, row, col, celebrity.oracle.answer(worker, row, col, rng)
                )
            policy.observe(answers)
            assert clock.pending_jobs == 1
            final = policy.final_result(answers)
            assert policy.engine.snapshot.answers_seen == len(answers)
            assert final is policy.last_result
            assert final.estimate(0, 0) is not None

    def test_final_result_catches_up(self, celebrity):
        """final_result on a policy that never served a select fits the
        whole answer set and publishes that fit."""
        answers = _seeded_answers(celebrity)
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), max_stale_answers=100,
            clock=VirtualClock(),
        ) as policy:
            result = policy.final_result(answers)
            assert policy.engine.snapshot.answers_seen == len(answers)
            assert result is policy.last_result

    def test_exhausted_pool_raises_assignment_error(self, celebrity):
        answers = _seeded_answers(celebrity)
        inner = self._inner(celebrity.schema, max_answers_per_cell=1)
        with AsyncRefitPolicy(inner, clock=VirtualClock()) as policy:
            worker = celebrity.worker_pool.worker_ids()[3]
            with pytest.raises(AssignmentError):
                policy.select(worker, answers, k=1)

    def test_close_is_idempotent(self, celebrity):
        policy = AsyncRefitPolicy(self._inner(celebrity.schema))
        policy.close()
        policy.close()

    def test_bounded_staleness_serves_stale_snapshot(self, celebrity):
        answers = _seeded_answers(celebrity)
        clock = VirtualClock()
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), max_stale_answers=100, clock=clock,
        ) as policy:
            policy.select("w", answers, k=1)
            epoch_before = policy.engine.epoch
            _add_answers(answers, 1, worker="late")
            policy.observe(answers)  # schedules a background refit
            assert clock.pending_jobs == 1
            policy.select("w", answers, k=1)  # lock-free on the stale snapshot
            assert policy.engine.epoch == epoch_before
            clock.run_pending()
            assert policy.engine.epoch == epoch_before + 1


# -- the durable snapshot protocol ---------------------------------------------


class TestDurabilityProtocol:
    def _inner(self, schema, **kwargs):
        model = TCrowdModel(max_iterations=4, m_step_iterations=8)
        return TCrowdAssigner(schema, model=model, **kwargs)

    def test_snapshot_state_round_trip(self, celebrity):
        answers = _seeded_answers(celebrity)
        with AsyncRefitPolicy(
            self._inner(celebrity.schema), clock=VirtualClock()
        ) as policy, AsyncRefitPolicy(
            self._inner(celebrity.schema), clock=VirtualClock()
        ) as fresh:
            assert policy.snapshot_state() is None
            policy.select("w", answers, k=1)
            result, answers_seen = policy.snapshot_state()
            assert answers_seen == len(answers)
            fresh.restore_state(result, answers_seen)
            assert fresh.last_result is result
            assert fresh.engine.snapshot.answers_seen == answers_seen

    def test_engine_restore_advances_epoch(self, tiny_schema):
        engine = AsyncRefitEngine(StubModel(), tiny_schema, clock=VirtualClock())
        result = StubResult("persisted")
        assert engine.restore(result, answers_seen=12).epoch == 0
        assert engine.restore(result, answers_seen=20).epoch == 1
        engine.restore(result, answers_seen=25, epoch=9)
        assert engine.epoch == 9
        engine.close()

    def test_plain_assigner_snapshot_protocol(self, celebrity):
        answers = _seeded_answers(celebrity)
        assigner = self._inner(celebrity.schema)
        assert assigner.snapshot_state() is None
        assigner.observe(answers)
        result, seen = assigner.snapshot_state()
        assert seen == len(answers)
        fresh = self._inner(celebrity.schema)
        fresh.restore_state(result, seen)
        assert fresh.last_result is result
        assert fresh.answers_at_last_fit == seen

    def test_final_result_records_the_fit(self, celebrity):
        """final_result is a real chain event: bookkeeping must advance."""
        answers = _seeded_answers(celebrity)
        assigner = self._inner(celebrity.schema, refit_every=50)
        first = assigner.final_result(answers)
        assert assigner.answers_at_last_fit == len(answers)
        # Up to date: a second call is a no-op returning the same object.
        assert assigner.final_result(answers) is first


# -- objective-based EM early stopping ----------------------------------------


class TestObjectiveEarlyStopping:
    def test_fit_validates_tol_and_max_iter(self, celebrity):
        model = TCrowdModel(max_iterations=3, m_step_iterations=6)
        answers = _seeded_answers(celebrity)
        with pytest.raises(ConfigurationError):
            model.fit(celebrity.schema, answers, tol=-1.0)
        with pytest.raises(ConfigurationError):
            model.fit(celebrity.schema, answers, max_iter=0)

    def test_max_iter_overrides_budget_for_one_call(self, celebrity):
        model = TCrowdModel(max_iterations=6, m_step_iterations=6)
        answers = _seeded_answers(celebrity)
        result = model.fit(celebrity.schema, answers, max_iter=2)
        assert result.n_iterations == 2
        assert result.iterations_run == 2
        assert result.stopped_by == "max_iterations"
        assert model.max_iterations == 6  # untouched

    def test_warm_refit_with_tol_stops_early_with_unchanged_estimates(self):
        """The acceptance property: a warm-started refit with ``tol`` stops
        in under half the fixed iteration budget and decodes to the same
        truth estimates as the full-budget warm refit."""
        dataset = load_celebrity(seed=7, num_rows=15)
        model = TCrowdModel(max_iterations=10, m_step_iterations=15)
        cold = model.fit(dataset.schema, dataset.answers)
        assert cold.stopped_by == "max_iterations"  # cold fit: full budget

        rng = np.random.default_rng(3)
        grown = dataset.answers.copy()
        worker = dataset.answers.workers[0]
        added = 0
        for row in range(dataset.schema.num_rows):
            for col in range(dataset.schema.num_columns):
                if added >= 6:
                    break
                if not grown.has_answered(worker, row, col):
                    value = dataset.oracle.answer(worker, row, col, rng)
                    grown.add_answer(worker, row, col, value)
                    added += 1

        full = model.fit(dataset.schema, grown, init=cold)
        early = model.fit(dataset.schema, grown, init=cold, tol=1e-3)

        assert early.stopped_by == "objective"
        assert early.converged
        assert early.n_iterations < 0.5 * model.max_iterations
        assert full.n_iterations == model.max_iterations

        for row in range(dataset.schema.num_rows):
            for col in range(dataset.schema.num_columns):
                a = full.estimate(row, col)
                b = early.estimate(row, col)
                if dataset.schema.columns[col].is_categorical:
                    assert a == b, (row, col)
                else:
                    assert float(b) == pytest.approx(
                        float(a), rel=0.05, abs=0.1
                    ), (row, col)
        for worker_id, quality in full.worker_qualities().items():
            assert early.worker_quality(worker_id) == pytest.approx(
                quality, abs=0.02
            )

    def test_tol_does_not_fire_while_objective_still_climbs(self):
        """On a small set whose EM improvements stay above the relative
        threshold, the criterion must not trigger."""
        from repro.datasets import generate_synthetic

        dataset = generate_synthetic(
            num_rows=10, num_columns=4, categorical_ratio=0.5,
            answers_per_task=4, seed=11,
        )
        model = TCrowdModel(max_iterations=10, m_step_iterations=15)
        cold = model.fit(dataset.schema, dataset.answers)
        rng = np.random.default_rng(3)
        grown = dataset.answers.copy()
        worker = dataset.answers.workers[0]
        added = 0
        for row in range(dataset.schema.num_rows):
            for col in range(dataset.schema.num_columns):
                if added >= 6:
                    break
                if not grown.has_answered(worker, row, col):
                    grown.add_answer(
                        worker, row, col,
                        dataset.oracle.answer(worker, row, col, rng),
                    )
                    added += 1
        result = model.fit(dataset.schema, grown, init=cold, tol=1e-3)
        # Every recorded improvement exceeds the relative threshold, so the
        # fit must have used its whole budget.
        deltas = np.abs(np.diff(result.objective_trace))
        scale = max(1.0, abs(result.objective_trace[-1]))
        assert np.all(deltas > 1e-3 * scale)
        assert result.stopped_by == "max_iterations"
        assert result.n_iterations == model.max_iterations


class TestWorkerThreadEdgeCases:
    def test_submit_after_close_raises(self):
        from repro.engine.refit_worker import _RefitWorker

        worker = _RefitWorker()
        worker.close()
        with pytest.raises(ConfigurationError):
            worker.submit(lambda: None)

    def test_drain_times_out_on_a_stuck_job(self):
        from repro.engine.refit_worker import _RefitWorker

        release = threading.Event()
        worker = _RefitWorker()
        worker.submit(release.wait)
        assert worker.drain(timeout=0.05) is False
        release.set()
        assert worker.drain(timeout=30.0) is True
        worker.close()

    def test_staleness_with_published_snapshot(self, tiny_schema):
        engine = AsyncRefitEngine(
            StubModel(), tiny_schema, max_stale_answers=100, clock=VirtualClock()
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        assert engine.staleness(answers) == 0
        _add_answers(answers, 3, worker="x")
        assert engine.staleness(answers) == 3

    def test_run_pending_without_request_is_a_noop(self, tiny_schema):
        engine = AsyncRefitEngine(
            StubModel(), tiny_schema, max_stale_answers=100, clock=VirtualClock()
        )
        engine._run_pending()  # no pending request: nothing published
        assert engine.epoch == -1


class TestCadenceEquivalence:
    def test_strict_mode_honours_refit_every_cadence(self, tiny_schema):
        """At max_stale_answers=0 the blocking threshold follows the refit
        cadence: the synchronous assigner itself serves a model up to
        refit_every-1 answers old between refits."""
        model = StubModel()
        engine = AsyncRefitEngine(
            model, tiny_schema, refit_every=3, max_stale_answers=0,
            clock=VirtualClock(),
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        first = engine.result_for(answers)  # cold fit
        _add_answers(answers, 2, worker="x")
        # staleness 2 < refit_every 3: the synchronous path would not have
        # refitted either, so the stale model is served.
        assert engine.result_for(answers) is first
        _add_answers(answers, 1, worker="y")
        # staleness 3 crosses the cadence: blocking catch-up.
        assert engine.result_for(answers) is not first
        assert engine.blocking_refits == 2
        assert engine.background_refits == 0
