"""Tests for the crowdsourcing-platform simulator (repro.platform)."""

import pytest

from repro.baselines.assignment_simple import RandomAssigner
from repro.baselines.combined import CombinedInference
from repro.config import SessionSpec, SimulationSpec
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.datasets import WorkerPool, generate_synthetic
from repro.platform import (
    Budget,
    CrowdsourcingSession,
    DifficultyDrift,
    WorkerArrivalProcess,
    build_scenario,
    spam_pool,
)
from repro.utils.exceptions import ConfigurationError


class TestBudget:
    def test_charge_and_exhaustion(self):
        budget = Budget(total_answers=5)
        assert not budget.exhausted
        budget.charge(3)
        assert budget.remaining_answers == 2
        budget.charge(2)
        assert budget.exhausted
        assert budget.remaining_answers == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Budget(total_answers=5).charge(-1)

    def test_money_accounting(self):
        budget = Budget(total_answers=10, cost_per_answer=0.05)
        budget.charge(4)
        assert budget.spent_money == pytest.approx(0.2)

    def test_from_answers_per_task(self, mixed_schema):
        budget = Budget.from_answers_per_task(mixed_schema, 2.0)
        assert budget.total_answers == 2 * mixed_schema.num_cells
        budget.charge(mixed_schema.num_cells)
        assert budget.answers_per_task(mixed_schema) == pytest.approx(1.0)

    def test_positive_total_required(self):
        with pytest.raises(ConfigurationError):
            Budget(total_answers=0)

    def test_zero_budget_rate_rejected(self, mixed_schema):
        # A session budgeted at 0 answers per task must fail at
        # construction, not loop on an empty budget.
        with pytest.raises(ConfigurationError):
            Budget.from_answers_per_task(mixed_schema, 0.0)

    def test_overspend_clamps_remaining(self):
        budget = Budget(total_answers=3)
        budget.charge(5)
        assert budget.exhausted
        assert budget.remaining_answers == 0


class TestWorkerArrivalProcess:
    def test_yields_known_workers(self):
        pool = WorkerPool.generate(10, seed=0)
        arrival = WorkerArrivalProcess(pool, seed=1)
        workers = list(arrival.stream(50))
        assert len(workers) == 50
        assert set(workers) <= set(pool.worker_ids())

    def test_sessions_create_repeat_visits(self):
        pool = WorkerPool.generate(30, seed=0)
        arrival = WorkerArrivalProcess(pool, seed=2, session_continue_probability=0.9)
        workers = list(arrival.stream(100))
        repeats = sum(1 for a, b in zip(workers, workers[1:]) if a == b)
        assert repeats > 30

    def test_no_sessions_when_probability_zero(self):
        pool = WorkerPool.generate(30, seed=0)
        arrival = WorkerArrivalProcess(pool, seed=3, session_continue_probability=0.0)
        workers = list(arrival.stream(200))
        assert len(set(workers)) > 10

    def test_reproducible(self):
        pool = WorkerPool.generate(10, seed=0)
        a = list(WorkerArrivalProcess(pool, seed=7).stream(20))
        b = list(WorkerArrivalProcess(pool, seed=7).stream(20))
        assert a == b

    def test_invalid_probability(self):
        pool = WorkerPool.generate(5, seed=0)
        with pytest.raises(ConfigurationError):
            WorkerArrivalProcess(pool, session_continue_probability=1.0)

    def test_invalid_churn_parameters(self):
        pool = WorkerPool.generate(5, seed=0)
        with pytest.raises(ConfigurationError):
            WorkerArrivalProcess(pool, churn_rate=1.0)
        with pytest.raises(ConfigurationError):
            WorkerArrivalProcess(pool, churn_rate=0.2, active_fraction=0.0)

    def test_churn_off_draws_are_unchanged(self):
        # churn_rate=0 must not consume a single extra variate: the stream
        # is identical to a process that never knew about the knob, and the
        # whole pool stays eligible.
        pool = WorkerPool.generate(12, seed=0)
        baseline = WorkerArrivalProcess(pool, seed=7)
        explicit = WorkerArrivalProcess(
            pool, seed=7, churn_rate=0.0, active_fraction=0.2
        )
        assert explicit.active_worker_ids() == pool.worker_ids()
        assert list(baseline.stream(100)) == list(explicit.stream(100))

    def test_churn_restricts_arrivals_to_active_subset(self):
        pool = WorkerPool.generate(20, seed=0)
        arrival = WorkerArrivalProcess(
            pool, seed=5, churn_rate=0.3, active_fraction=0.3
        )
        assert len(arrival.active_worker_ids()) == 6
        for _ in range(100):
            worker = arrival.next_worker()
            assert worker in arrival.active_worker_ids()

    def test_churned_worker_re_arrival(self):
        pool = WorkerPool.generate(20, seed=0)
        arrival = WorkerArrivalProcess(
            pool,
            seed=11,
            session_continue_probability=0.0,
            churn_rate=0.5,
            active_fraction=0.3,
        )
        everyone = set(pool.worker_ids())
        churned_out = everyone - set(arrival.active_worker_ids())
        re_arrived = set()
        for _ in range(300):
            worker = arrival.next_worker()
            if worker in churned_out:
                re_arrived.add(worker)
            churned_out |= everyone - set(arrival.active_worker_ids())
        # Churn is not permanent: workers who left the platform came back
        # and picked up HITs again.
        assert re_arrived

    def test_churn_reproducible(self):
        pool = WorkerPool.generate(15, seed=0)
        kwargs = dict(seed=9, churn_rate=0.4, active_fraction=0.4)
        a = list(WorkerArrivalProcess(pool, **kwargs).stream(80))
        b = list(WorkerArrivalProcess(pool, **kwargs).stream(80))
        assert a == b


class TestCrowdsourcingSession:
    @pytest.fixture(scope="class")
    def session_dataset(self):
        return generate_synthetic(
            num_rows=10, num_columns=4, categorical_ratio=0.5,
            answers_per_task=2, num_workers=15, seed=8,
        )

    def test_requires_oracle(self, session_dataset):
        stripped = session_dataset.with_answers(session_dataset.answers)
        stripped.oracle = None
        with pytest.raises(ConfigurationError):
            CrowdsourcingSession(
                stripped, RandomAssigner(stripped.schema, seed=0),
                CombinedInference(), target_answers_per_task=3.0,
            )

    def test_budget_must_exceed_seed(self, session_dataset):
        with pytest.raises(ConfigurationError):
            CrowdsourcingSession(
                session_dataset, RandomAssigner(session_dataset.schema, seed=0),
                CombinedInference(), target_answers_per_task=1.0,
                initial_answers_per_task=1,
            )

    def test_random_policy_session(self, session_dataset):
        session = CrowdsourcingSession(
            session_dataset,
            RandomAssigner(session_dataset.schema, seed=0),
            CombinedInference(),
            target_answers_per_task=3.0,
            initial_answers_per_task=1,
            eval_every_answers_per_task=1.0,
            seed=4,
        )
        trace = session.run()
        assert trace.records[0].answers_per_task == pytest.approx(1.0)
        assert trace.final.answers_per_task == pytest.approx(3.0, abs=0.1)
        assert trace.final.error_rate is not None
        assert trace.final.mnad is not None
        # Budget axis is monotone.
        apts = [record.answers_per_task for record in trace.records]
        assert apts == sorted(apts)

    def test_quality_improves_with_budget(self, session_dataset):
        session = CrowdsourcingSession(
            session_dataset,
            RandomAssigner(session_dataset.schema, seed=1),
            CombinedInference(),
            target_answers_per_task=5.0,
            initial_answers_per_task=1,
            eval_every_answers_per_task=2.0,
            seed=5,
        )
        trace = session.run()
        # Going from 1 to 5 answers per task should not leave the estimate
        # quality worse than at the start (small slack for the stochastic
        # denominator of MNAD).
        assert trace.final.mnad <= trace.records[0].mnad + 0.05

    def test_tcrowd_policy_session(self, session_dataset):
        model = TCrowdModel(max_iterations=6, m_step_iterations=10)
        policy = TCrowdAssigner(
            session_dataset.schema, model=model, refit_every=8, use_structure=True
        )
        session = CrowdsourcingSession(
            session_dataset, policy, model,
            target_answers_per_task=2.5,
            initial_answers_per_task=1,
            eval_every_answers_per_task=1.0,
            seed=6,
        )
        trace = session.run()
        assert trace.policy_name.startswith("T-Crowd")
        assert len(trace.records) >= 2

    def test_trace_helpers(self, session_dataset):
        session = CrowdsourcingSession(
            session_dataset,
            RandomAssigner(session_dataset.schema, seed=2),
            CombinedInference(),
            target_answers_per_task=3.0,
            eval_every_answers_per_task=1.0,
            seed=7,
        )
        trace = session.run()
        series = trace.series("mnad")
        assert all(len(point) == 2 for point in series)
        # answers_to_reach returns None for unreachable targets and a value
        # within the budget for trivially reachable ones.
        assert trace.answers_to_reach("mnad", -1.0) is None
        assert trace.answers_to_reach("mnad", 10.0) is not None

    def test_max_steps_guard(self, session_dataset):
        session = CrowdsourcingSession(
            session_dataset,
            RandomAssigner(session_dataset.schema, seed=3),
            CombinedInference(),
            target_answers_per_task=4.0,
            eval_every_answers_per_task=1.0,
            seed=8,
            max_steps=2,
        )
        trace = session.run()
        assert trace.final.answers_per_task < 4.0


class TestSessionTraceEdgeCases:
    def _record(self, answers_per_task, error_rate=None, mnad=None):
        from repro.platform.session import SessionRecord

        return SessionRecord(
            answers_collected=int(answers_per_task * 10),
            answers_per_task=answers_per_task,
            error_rate=error_rate,
            mnad=mnad,
            spent_money=0.0,
        )

    def _trace(self, records=()):
        from repro.platform.session import SessionTrace

        return SessionTrace("policy", "inference", "dataset", list(records))

    def test_final_raises_on_empty_trace(self):
        with pytest.raises(ConfigurationError):
            self._trace().final

    def test_answers_to_reach_on_empty_trace(self):
        assert self._trace().answers_to_reach("error_rate", 0.5) is None

    def test_answers_to_reach_when_target_never_reached(self):
        trace = self._trace(
            [
                self._record(1.0, error_rate=0.5),
                self._record(2.0, error_rate=0.4),
                self._record(3.0, error_rate=0.35),
            ]
        )
        assert trace.answers_to_reach("error_rate", 0.1) is None

    def test_answers_to_reach_skips_missing_metric_values(self):
        trace = self._trace(
            [
                self._record(1.0, error_rate=0.5),          # mnad missing
                self._record(2.0, error_rate=0.4, mnad=0.3),
            ]
        )
        assert trace.answers_to_reach("mnad", 0.3) == pytest.approx(2.0)
        # A metric that never gets a value is never reached.
        trace_missing = self._trace([self._record(1.0, error_rate=0.5)])
        assert trace_missing.answers_to_reach("mnad", 1.0) is None

    def test_answers_to_reach_returns_first_crossing(self):
        trace = self._trace(
            [
                self._record(1.0, error_rate=0.5),
                self._record(2.0, error_rate=0.2),
                self._record(3.0, error_rate=0.1),
            ]
        )
        assert trace.answers_to_reach("error_rate", 0.2) == pytest.approx(2.0)


class TestAsyncRefitSession:
    @pytest.fixture(scope="class")
    def async_dataset(self):
        return generate_synthetic(
            num_rows=8, num_columns=3, categorical_ratio=0.5,
            answers_per_task=2, num_workers=12, seed=9,
        )

    @staticmethod
    def _spec_builder():
        return (
            SessionSpec.builder()
            .model(max_iterations=4, m_step_iterations=8)
            .policy(refit_every=1)
            .simulation(
                target_answers_per_task=1.6,
                eval_every_answers_per_task=0.5,
                seed=6,
            )
        )

    def _session(self, dataset, spec=None):
        spec = spec if spec is not None else self._spec_builder().build()
        model = TCrowdModel(max_iterations=4, m_step_iterations=8)
        policy = TCrowdAssigner(
            dataset.schema, model=model, refit_every=1,
        )
        return CrowdsourcingSession(dataset, policy, model, spec=spec)

    def test_async_exact_session_replays_synchronous_trace(self, async_dataset):
        sync_trace = self._session(async_dataset).run()
        async_trace = self._session(
            async_dataset,
            spec=self._spec_builder().async_refit(max_stale=0).build(),
        ).run()
        assert async_trace.records == sync_trace.records
        assert async_trace.policy_name.endswith("[async refit]")

    def test_from_spec_builds_policy_and_inference(self, async_dataset):
        """from_spec needs nothing but the dataset and the spec document."""
        spec = self._spec_builder().build()
        session = CrowdsourcingSession.from_spec(async_dataset, spec)
        assert session.spec is spec
        trace = session.run()
        assert trace.final.answers_per_task > 1.0
        reference = CrowdsourcingSession.from_spec(async_dataset, spec).run()
        assert trace.records == reference.records

    def test_bounded_staleness_session_completes(self, async_dataset):
        """A seeded bound-6 session finishes and reproduces its trace."""
        spec = self._spec_builder().async_refit(max_stale=6).build()
        trace = self._session(async_dataset, spec=spec).run()
        assert trace.final.answers_per_task > 1.0
        assert trace.final.error_rate is not None
        assert self._session(async_dataset, spec=spec).run().records == trace.records

    def test_async_requires_tcrowd_policy(self, async_dataset):
        model = TCrowdModel(max_iterations=4, m_step_iterations=8)
        spec = SessionSpec.builder().async_refit().simulation(
            target_answers_per_task=2.0
        ).build()
        with pytest.raises(ConfigurationError):
            CrowdsourcingSession(
                async_dataset,
                RandomAssigner(async_dataset.schema, seed=0),
                model,
                spec=spec,
            )


class TestLegacyKwargsShim:
    """The simulation-budget keyword aliases (the rest of the pre-spec
    keyword surface is gone)."""

    @pytest.fixture(scope="class")
    def shim_dataset(self):
        return generate_synthetic(
            num_rows=6, num_columns=3, categorical_ratio=0.5,
            answers_per_task=2, num_workers=10, seed=21,
        )

    def _policy(self, dataset):
        return TCrowdAssigner(
            dataset.schema,
            model=TCrowdModel(max_iterations=3, m_step_iterations=6),
            refit_every=1,
        )

    def test_simulation_kwargs_build_the_simulation_section(self, shim_dataset):
        session = CrowdsourcingSession(
            shim_dataset,
            self._policy(shim_dataset),
            TCrowdModel(max_iterations=3, m_step_iterations=6),
            target_answers_per_task=1.5,
            seed=13,
            max_steps=4,
        )
        assert session.spec == SessionSpec.builder().simulation(
            target_answers_per_task=1.5, seed=13, max_steps=4
        ).build()

    def test_non_integer_seed_is_used_but_not_recorded(self, shim_dataset):
        import numpy as np

        session = CrowdsourcingSession(
            shim_dataset,
            self._policy(shim_dataset),
            TCrowdModel(max_iterations=3, m_step_iterations=6),
            target_answers_per_task=1.5,
            seed=np.random.default_rng(0),
        )
        assert session.spec.simulation.seed is None
        assert session.spec.simulation.target_answers_per_task == 1.5

    def test_simulation_kwargs_do_not_warn(self, shim_dataset, recwarn):
        CrowdsourcingSession(
            shim_dataset,
            self._policy(shim_dataset),
            TCrowdModel(max_iterations=3, m_step_iterations=6),
            target_answers_per_task=1.5,
            seed=13,
        )
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_spec_and_legacy_kwargs_are_mutually_exclusive(self, shim_dataset):
        with pytest.raises(ConfigurationError, match="not both"):
            CrowdsourcingSession(
                shim_dataset,
                self._policy(shim_dataset),
                TCrowdModel(max_iterations=3, m_step_iterations=6),
                target_answers_per_task=1.5,
                spec=SessionSpec.builder().simulation(
                    target_answers_per_task=1.5
                ).build(),
            )

    def test_single_worker_session_stops_gracefully(self):
        dataset = generate_synthetic(
            num_rows=5, num_columns=3, categorical_ratio=0.5,
            answers_per_task=1, num_workers=1, seed=12,
        )
        session = CrowdsourcingSession(
            dataset,
            RandomAssigner(dataset.schema, seed=0),
            CombinedInference(),
            target_answers_per_task=3.0,
            eval_every_answers_per_task=1.0,
            seed=3,
        )
        # The only worker answered every cell during seeding, so no further
        # assignment is possible; the session must terminate with the seed
        # evaluation rather than loop on assignment failures.
        trace = session.run()
        assert len(trace.records) >= 1
        assert trace.final.answers_per_task == pytest.approx(1.0)


class TestSessionBudgetEdges:
    def test_final_burst_is_clamped_to_the_budget(self):
        # batch_size does not divide the extra budget: the last arrival
        # asks for a full batch but may only receive the remainder — the
        # session must land exactly on the target, never overshoot it.
        dataset = generate_synthetic(
            num_rows=5, num_columns=3, categorical_ratio=0.5,
            answers_per_task=2, num_workers=15, seed=14,
        )
        session = CrowdsourcingSession(
            dataset,
            RandomAssigner(dataset.schema, seed=0),
            CombinedInference(),
            target_answers_per_task=2.0,
            initial_answers_per_task=1,
            batch_size=4,  # extra budget is 15 answers: 3 full bursts + 3
            eval_every_answers_per_task=1.0,
            seed=15,
        )
        trace = session.run()
        assert trace.final.answers_per_task == pytest.approx(2.0)
        assert trace.final.answers_collected <= 2 * dataset.schema.num_cells


class TestScenario:
    """Seeded crowd perturbations (repro.platform.scenario)."""

    @pytest.fixture(scope="class")
    def scenario_dataset(self):
        return generate_synthetic(
            num_rows=8, num_columns=3, categorical_ratio=0.5,
            answers_per_task=2, num_workers=20, seed=17,
        )

    def test_spam_pool_deterministic(self):
        pool = WorkerPool.generate(20, seed=0)
        first, first_ids = spam_pool(pool, 0.3, 0.9, seed=7)
        second, second_ids = spam_pool(pool, 0.3, 0.9, seed=7)
        assert first_ids == second_ids
        assert len(first_ids) == 6
        for a, b in zip(first, second):
            assert a == b
        # A different seed converts a different subset.
        _, other_ids = spam_pool(pool, 0.3, 0.9, seed=8)
        assert other_ids != first_ids

    def test_spam_pool_raises_contamination_monotonically(self):
        pool = WorkerPool.generate(20, seed=0)
        spammed, ids = spam_pool(pool, 0.25, 0.9, seed=7)
        originals = {worker.worker_id: worker for worker in pool}
        for worker in spammed:
            if worker.worker_id in ids:
                assert worker.contamination >= 0.9
            else:
                assert worker == originals[worker.worker_id]
        # The input pool is never mutated.
        assert all(worker.contamination < 0.9 for worker in pool)

    def test_spam_pool_zero_fraction_is_identity(self):
        pool = WorkerPool.generate(10, seed=0)
        same, ids = spam_pool(pool, 0.0, 0.9, seed=7)
        assert same is pool
        assert ids == frozenset()

    def test_difficulty_drift_advances_and_caps(self, scenario_dataset):
        import dataclasses

        import numpy as np

        oracle = dataclasses.replace(scenario_dataset.oracle)
        base = np.array(oracle.row_difficulty, copy=True)
        drift = DifficultyDrift(oracle, rate=1.0)
        drift.advance()
        assert oracle.row_difficulty == pytest.approx(base * np.e)
        drift.advance(100)
        assert oracle.row_difficulty == pytest.approx(base * 10.0)  # capped

    def test_clean_scenario_is_the_dataset_itself(self, scenario_dataset):
        scenario = build_scenario(scenario_dataset, SimulationSpec(), seed=7)
        assert scenario.pool is scenario_dataset.worker_pool
        assert scenario.oracle is scenario_dataset.oracle
        assert scenario.drift is None
        assert scenario.spam_worker_ids == frozenset()

    def test_perturbed_scenario_never_mutates_the_dataset(self, scenario_dataset):
        import numpy as np

        before = np.array(scenario_dataset.oracle.row_difficulty, copy=True)
        simulation = SimulationSpec(spam_fraction=0.3, difficulty_drift=0.5)
        scenario = build_scenario(scenario_dataset, simulation, seed=7)
        assert scenario.oracle is not scenario_dataset.oracle
        assert scenario.spam_worker_ids
        scenario.drift.advance(5)
        assert scenario_dataset.oracle.row_difficulty == pytest.approx(before)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"worker_churn_rate": 0.5},
            {"spam_fraction": 0.3, "spam_contamination": 0.95},
            {"difficulty_drift": 0.05},
        ],
    )
    def test_perturbed_sessions_replay_exactly(self, scenario_dataset, knobs):
        spec = (
            SessionSpec.builder()
            .model(max_iterations=3, m_step_iterations=6)
            .policy(refit_every=2)
            .simulation(
                target_answers_per_task=1.5,
                eval_every_answers_per_task=0.5,
                seed=19,
                **knobs,
            )
            .build()
        )
        first = CrowdsourcingSession.from_spec(scenario_dataset, spec).run()
        second = CrowdsourcingSession.from_spec(scenario_dataset, spec).run()
        assert first.records == second.records
