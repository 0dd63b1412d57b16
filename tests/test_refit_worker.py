"""Tests for the bounded-staleness refit engine
(repro.engine.refit_worker), the durable snapshot protocol its policy
shares with the bare assigner, and the warm-refit EM budget every serving
path shares (repro.core.inference).

The scoring cache of :class:`~repro.engine.AsyncRefitPolicy` is pinned in
``tests/test_hotpath.py``; end-to-end bit-identity stays with the
golden-trace matrix and the scripted recovery tests.
"""

import threading

import numpy as np
import pytest

from repro.config import ServingSpec, SessionSpec
from repro.config.factory import build_policy, wrap_policy
from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.core.schema import Column, TableSchema
from repro.datasets import load_celebrity
from repro.engine import AsyncRefitEngine, AsyncRefitPolicy, ModelSnapshot
from repro.utils.exceptions import AssignmentError, ConfigurationError


# -- deterministic stand-ins ---------------------------------------------------


class StubResult:
    """Opaque inference result; the engine never looks inside it."""

    def __init__(self, tag):
        self.tag = tag


class StubModel:
    """Records every fit call; returns :class:`StubResult` tagged by order."""

    supports_warm_start = True

    def __init__(self):
        self.calls = []

    def fit(self, schema, answers, init=None):
        order = len(self.calls)
        self.calls.append({"n": len(answers), "init": init, "order": order})
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


# -- AsyncRefitEngine scheduling ----------------------------------------------


class TestAsyncRefitEngine:
    def _engine(self, tiny_schema, model=None, **kwargs):
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
        result = engine.snapshot_for(answers).result
        assert isinstance(result, StubResult)
        assert engine.epoch == 0
        assert engine.blocking_refits == 1
        assert engine.snapshot.answers_seen == 3
        # The first fit is cold.
        assert model.calls[0]["init"] is None

    def test_bounded_staleness_serves_stale_then_blocks(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=2)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        first = engine.snapshot_for(answers).result
        # Two more answers: staleness 2 <= bound, the stale snapshot serves.
        _add_answers(answers, 2, worker="x")
        assert engine.snapshot_for(answers).result is first
        assert engine.blocking_refits == 1
        # One more: staleness 3 > bound, one inline refit catches up.
        _add_answers(answers, 1, worker="y")
        second = engine.snapshot_for(answers).result
        assert second is not first
        assert engine.blocking_refits == 2
        assert engine.snapshot.epoch == 1
        assert engine.snapshot.answers_seen == 5

    def test_unbounded_staleness_never_blocks_again(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=None)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 1)
        first = engine.snapshot_for(answers).result
        _add_answers(answers, 8, worker="x")
        assert engine.snapshot_for(answers).result is first
        assert engine.blocking_refits == 1

    def test_max_stale_zero_disables_background_refits(self, tiny_schema):
        """At bound 0 nothing fits between selects: every select whose
        answers grew refits inline, up to every collected answer."""
        engine = self._engine(tiny_schema, max_stale_answers=0)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.snapshot_for(answers)
        _add_answers(answers, 1, worker="x")
        assert engine.blocking_refits == 1
        assert engine.staleness(answers) == 1
        engine.snapshot_for(answers)
        assert engine.blocking_refits == 2
        assert engine.staleness(answers) == 0

    def test_refit_now_returns_existing_snapshot_when_caught_up(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=100)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 3)
        first = engine.refit_now(answers)
        assert engine.refit_now(answers) is first
        assert engine.blocking_refits == 1

    def test_warm_chain_plumbing(self, tiny_schema):
        model = StubModel()
        engine = AsyncRefitEngine(model, tiny_schema, max_stale_answers=1)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.snapshot_for(answers)
        _add_answers(answers, 2, worker="x")
        engine.snapshot_for(answers)  # staleness 2 > bound: inline warm refit
        cold, warm = model.calls
        assert cold["init"] is None
        assert isinstance(warm["init"], StubResult)
        assert warm["init"].tag == cold["order"]

    def test_every_fit_is_cold_when_warm_start_off(self, tiny_schema):
        model = StubModel()
        engine = AsyncRefitEngine(
            model, tiny_schema, warm_start=False, max_stale_answers=100,
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        _add_answers(answers, 2, worker="x")
        engine.refit_now(answers)
        assert [call["init"] for call in model.calls] == [None, None]

    def test_epochs_increase_monotonically(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=1)
        answers = AnswerSet(tiny_schema)
        epochs = []
        for batch in range(3):
            _add_answers(answers, 2, worker=f"b{batch}")
            engine.snapshot_for(answers)
            epochs.append(engine.epoch)
            _add_answers(answers, 1, worker=f"c{batch}")
            engine.refit_now(answers)
            epochs.append(engine.epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_staleness_with_published_snapshot(self, tiny_schema):
        engine = self._engine(tiny_schema, max_stale_answers=100)
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        engine.refit_now(answers)
        assert engine.staleness(answers) == 0
        _add_answers(answers, 3, worker="x")
        assert engine.staleness(answers) == 3


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
    def _async_spec(max_stale=0):
        return (
            SessionSpec.builder()
            .model(max_iterations=4, m_step_iterations=8)
            .async_refit(max_stale=max_stale)
            .build()
        )

    def test_serving_starts_no_thread(self, celebrity):
        """Stale selects, catch-up refits and a final fit all run on the
        caller's thread.  (Compared by identity, so a thread another test
        left behind cannot make this flaky by exiting meanwhile.)"""
        before = set(threading.enumerate())
        policy = build_policy(celebrity.schema, self._async_spec(max_stale=3))
        answers = _seeded_answers(celebrity)
        for step in range(4):
            policy.select("w", answers, k=1)
            _add_answers(answers, 2, worker=f"late{step}")
        policy.final_result(answers)
        assert policy.engine.blocking_refits > 1
        assert set(threading.enumerate()) - before == set()

    def test_select_validates_inputs(self, celebrity):
        policy = AsyncRefitPolicy(self._inner(celebrity.schema))
        answers = _seeded_answers(celebrity)
        with pytest.raises(AssignmentError):
            policy.select("w", answers, k=0)
        with pytest.raises(AssignmentError):
            policy.select("w", AnswerSet(celebrity.schema), k=1)

    def test_select_matches_synchronous_assigner(self, celebrity):
        answers = _seeded_answers(celebrity)
        sync = self._inner(celebrity.schema)
        worker = celebrity.worker_pool.worker_ids()[1]
        policy = AsyncRefitPolicy(self._inner(celebrity.schema), max_stale_answers=0)
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
        policy = AsyncRefitPolicy(self._inner(celebrity.schema), max_stale_answers=0)
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
        policy = build_policy(celebrity.schema, spec)
        assert isinstance(policy, AsyncRefitPolicy)
        assert policy.name == f"{policy.inner.name} [async refit]"

    def test_empty_answers_rejected(self, celebrity):
        """The empty answer set is refused before any fit or scoring."""
        policy = build_policy(celebrity.schema, self._async_spec())
        with pytest.raises(AssignmentError):
            policy.select("w0", AnswerSet(celebrity.schema), k=1)
        assert policy.engine.epoch == -1
        assert policy.engine.blocking_refits == 0
        assert policy.scoring_cache_misses == 0

    def test_observe_fits_nothing_and_final_result_catches_up(self, celebrity):
        answers = _seeded_answers(celebrity)
        worker = celebrity.worker_pool.worker_ids()[2]
        policy = AsyncRefitPolicy(self._inner(celebrity.schema), max_stale_answers=0)
        assert policy.last_result is None
        assignment = policy.select(worker, answers, k=2)
        rng = np.random.default_rng(0)
        for row, col in assignment.cells:
            answers.add_answer(
                worker, row, col, celebrity.oracle.answer(worker, row, col, rng)
            )
        policy.observe(answers)
        assert policy.engine.blocking_refits == 1
        assert policy.engine.staleness(answers) == 2
        final = policy.final_result(answers)
        assert policy.engine.blocking_refits == 2
        assert policy.engine.snapshot.answers_seen == len(answers)
        assert final is policy.last_result
        assert final.estimate(0, 0) is not None

    def test_final_result_catches_up(self, celebrity):
        """final_result on a policy that never served a select fits the
        whole answer set and publishes that fit."""
        answers = _seeded_answers(celebrity)
        policy = AsyncRefitPolicy(self._inner(celebrity.schema), max_stale_answers=100)
        result = policy.final_result(answers)
        assert policy.engine.snapshot.answers_seen == len(answers)
        assert result is policy.last_result

    def test_exhausted_pool_raises_assignment_error(self, celebrity):
        answers = _seeded_answers(celebrity)
        inner = self._inner(celebrity.schema, max_answers_per_cell=1)
        policy = AsyncRefitPolicy(inner)
        worker = celebrity.worker_pool.worker_ids()[3]
        with pytest.raises(AssignmentError):
            policy.select(worker, answers, k=1)

    def test_bounded_staleness_serves_stale_snapshot(self, celebrity):
        answers = _seeded_answers(celebrity)
        policy = AsyncRefitPolicy(self._inner(celebrity.schema), max_stale_answers=2)
        policy.select("w", answers, k=1)
        epoch_before = policy.engine.epoch
        _add_answers(answers, 2, worker="late")
        policy.select("w", answers, k=1)  # staleness 2: the stale snapshot serves
        assert policy.engine.epoch == epoch_before
        assert policy.engine.blocking_refits == 1
        _add_answers(answers, 1, worker="later")
        policy.select("w", answers, k=1)  # staleness 3 trips the bound
        assert policy.engine.epoch == epoch_before + 1
        assert policy.engine.blocking_refits == 2
        assert policy.engine.staleness(answers) == 0


# -- the durable snapshot protocol ---------------------------------------------


class TestDurabilityProtocol:
    def _inner(self, schema, **kwargs):
        model = TCrowdModel(max_iterations=4, m_step_iterations=8)
        return TCrowdAssigner(schema, model=model, **kwargs)

    def test_snapshot_state_round_trip(self, celebrity):
        answers = _seeded_answers(celebrity)
        policy = AsyncRefitPolicy(self._inner(celebrity.schema))
        fresh = AsyncRefitPolicy(self._inner(celebrity.schema))
        assert policy.snapshot_state() is None
        policy.select("w", answers, k=1)
        result, answers_seen = policy.snapshot_state()
        assert answers_seen == len(answers)
        fresh.restore_state(result, answers_seen)
        assert fresh.last_result is result
        assert fresh.engine.snapshot.answers_seen == answers_seen

    def test_engine_restore_advances_epoch(self, tiny_schema):
        engine = AsyncRefitEngine(StubModel(), tiny_schema)
        result = StubResult("persisted")
        assert engine.restore(result, answers_seen=12).epoch == 0
        assert engine.restore(result, answers_seen=20).epoch == 1
        engine.restore(result, answers_seen=25, epoch=9)
        assert engine.epoch == 9

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


# -- the warm-refit EM budget ---------------------------------------------------


class CountingModel(TCrowdModel):
    """Records ``(warm, iterations_run)`` of every fit.  Its parameter
    tolerance is never reached, so every fit runs its whole budget."""

    def __init__(self, **options):
        super().__init__(tolerance=1e-12, m_step_iterations=6, **options)
        self.fits = []

    def fit(self, schema, answers, init=None):
        result = super().fit(schema, answers, init=init)
        self.fits.append((init is not None, result.iterations_run))
        return result


class TestWarmBudget:
    @pytest.mark.parametrize(
        "max_iterations, warm_iterations, expected", [(6, 2, 2), (6, 3, 3), (1, 2, 1)]
    )
    def test_warm_fits_run_the_budget(
        self, celebrity, max_iterations, warm_iterations, expected
    ):
        schema, answers = celebrity.schema, _seeded_answers(celebrity)
        model = CountingModel(
            max_iterations=max_iterations, warm_iterations=warm_iterations
        )
        cold = model.fit(schema, AnswerSet(schema, list(answers)[:-7]))
        warm = model.fit(schema, answers, init=cold)
        assert model.fits == [(False, max_iterations), (True, expected)]
        assert len(warm.objective_trace) == expected
        assert warm.stopped_by == "max_iterations"

    @pytest.mark.parametrize(
        "serving", [{}, {"async_refit": True, "max_stale_answers": 0},
                    {"async_refit": True, "max_stale_answers": 12}],
        ids=["sync", "async-0", "async-12"],
    )
    def test_every_serving_path_fits_cold_once_then_on_the_budget(
        self, celebrity, serving
    ):
        """Selects and the ``final_result`` catch-up share the budget (WAL
        replay is pinned in ``tests/test_wal.py``)."""
        model = CountingModel(max_iterations=6)
        policy = wrap_policy(
            TCrowdAssigner(celebrity.schema, model=model), ServingSpec(**serving)
        )
        answers = _seeded_answers(celebrity)
        for step in range(10):
            policy.select("w", answers, k=1)
            _add_answers(answers, 2, worker=f"late{step}")
        assert policy.final_result(answers).iterations_run == 2
        assert len(model.fits) >= 3
        assert model.fits == [(False, 6)] + [(True, 2)] * (len(model.fits) - 1)


def test_default_budget_agrees_with_the_full_chain():
    """Over 100 warm refits of a seeded 174 x 7 Celebrity stream, the
    default budget keeps at least 98 % of the categorical estimates of the
    chain whose warm refits run the full ``max_iterations`` (99.4 % when
    this was written)."""
    dataset = load_celebrity(seed=7)
    schema, answers = dataset.schema, _seeded_answers(dataset, seed=11)
    short = TCrowdModel(max_iterations=6, m_step_iterations=10)
    full = TCrowdModel(max_iterations=6, warm_iterations=6, m_step_iterations=10)
    short_fit = full_fit = short.fit(schema, answers)  # the same cold fit
    categorical = np.tile(
        [column.is_categorical for column in schema.columns], schema.num_rows
    )
    workers = dataset.worker_pool.worker_ids()
    rng = np.random.default_rng(11)
    agree = 0
    for _refit in range(100):
        worker = workers[int(rng.integers(len(workers)))]
        row = int(rng.integers(schema.num_rows))
        for col in range(schema.num_columns):
            if not answers.has_answered(worker, row, col):
                value = dataset.oracle.answer(worker, row, col, rng)
                answers.add_answer(worker, row, col, value)
        short_fit = short.fit(schema, answers, init=short_fit)
        full_fit = full.fit(schema, answers, init=full_fit)
        same = short_fit.estimate_codes() == full_fit.estimate_codes()
        agree += int(np.sum(same[categorical]))
    assert agree / (100 * np.sum(categorical)) >= 0.98


class TestCadenceEquivalence:
    def test_strict_mode_honours_refit_every_cadence(self, tiny_schema):
        """At max_stale_answers=0 the blocking threshold follows the refit
        cadence: the synchronous assigner itself serves a model up to
        refit_every-1 answers old between refits."""
        model = StubModel()
        engine = AsyncRefitEngine(
            model, tiny_schema, refit_every=3, max_stale_answers=0
        )
        answers = AnswerSet(tiny_schema)
        _add_answers(answers, 2)
        first = engine.snapshot_for(answers).result  # cold fit
        _add_answers(answers, 2, worker="x")
        # staleness 2 < refit_every 3: the synchronous path would not have
        # refitted either, so the stale model is served.
        assert engine.snapshot_for(answers).result is first
        _add_answers(answers, 1, worker="y")
        # staleness 3 crosses the cadence: blocking catch-up.
        assert engine.snapshot_for(answers).result is not first
        assert engine.blocking_refits == 2
