"""Tests for the pluggable assignment-strategy zoo (repro.strategies)."""

import numpy as np
import pytest

from repro.config import SessionSpec, SpecValidationError, StrategySpec
from repro.engine.provenance import (
    GENESIS_HASH,
    DecisionRecorder,
    strategy_genesis,
)
from repro.service.bench import SERVING_MODES, run_scripted_session, verify_audit_replay
from repro.strategies import (
    RETIRED_GAIN,
    BudgetVoIStrategy,
    EpsilonGreedyStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    StrategyCalculator,
    UncertaintyStrategy,
    build_strategy,
    hash_unit,
    posterior_confidence,
)
from repro.strategies.zoo import _RandomCalculator, _VoICalculator

FAST_MODEL = {"max_iterations": 3, "m_step_iterations": 6}


class TestStrategySpec:
    def test_defaults_to_paper(self):
        spec = StrategySpec()
        assert spec.name == "paper"
        assert spec.base == "paper"

    def test_round_trip_exact(self):
        spec = StrategySpec(
            name="epsilon_greedy",
            epsilon=0.25,
            base="budget_voi",
            confidence=0.85,
            min_answers=3,
            seed=11,
        )
        assert StrategySpec.from_dict(spec.to_dict()) == spec

    def test_string_shorthand(self):
        assert StrategySpec.from_dict("uncertainty") == StrategySpec(
            name="uncertainty"
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecValidationError, match="policy.strategy.name"):
            StrategySpec(name="greedy")

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecValidationError, match="temperature"):
            StrategySpec.from_dict({"name": "random", "temperature": 2.0})

    def test_epsilon_bounded(self):
        with pytest.raises(SpecValidationError, match="policy.strategy.epsilon"):
            StrategySpec(name="epsilon_greedy", epsilon=1.5)

    def test_composite_base_rejected(self):
        with pytest.raises(SpecValidationError, match="policy.strategy.base"):
            StrategySpec(name="epsilon_greedy", base="epsilon_greedy")

    def test_session_spec_round_trips_strategy(self):
        spec = (
            SessionSpec.builder()
            .strategy("epsilon_greedy", epsilon=0.2, base="uncertainty", seed=3)
            .build()
        )
        rebuilt = SessionSpec.from_dict(spec.to_dict())
        assert rebuilt.policy.strategy == spec.policy.strategy
        assert rebuilt.policy.strategy.base == "uncertainty"


class TestRegistry:
    def test_paper_builds_to_none(self):
        assert build_strategy(None) is None
        assert build_strategy(StrategySpec(name="paper")) is None

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("random", RandomStrategy),
            ("round_robin", RoundRobinStrategy),
            ("uncertainty", UncertaintyStrategy),
            ("budget_voi", BudgetVoIStrategy),
        ],
    )
    def test_simple_strategies(self, name, cls):
        strategy = build_strategy(StrategySpec(name=name))
        assert isinstance(strategy, cls)
        assert strategy.name == name

    def test_epsilon_greedy_over_paper_has_no_base(self):
        strategy = build_strategy(StrategySpec(name="epsilon_greedy"))
        assert isinstance(strategy, EpsilonGreedyStrategy)
        assert strategy.base is None

    def test_epsilon_greedy_composition_propagates_knobs(self):
        spec = StrategySpec(
            name="epsilon_greedy",
            base="budget_voi",
            confidence=0.7,
            min_answers=5,
            seed=13,
        )
        strategy = build_strategy(spec)
        assert isinstance(strategy.base, BudgetVoIStrategy)
        assert strategy.base.spec.confidence == 0.7
        assert strategy.base.spec.min_answers == 5
        assert strategy.base.spec.seed == 13


class TestHashUnit:
    def test_deterministic_and_in_unit_interval(self):
        draws = [hash_unit(7, "explore", step) for step in range(64)]
        assert draws == [hash_unit(7, "explore", step) for step in range(64)]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        # The stream actually varies with the context.
        assert len(set(draws)) == len(draws)

    def test_context_separates_streams(self):
        assert hash_unit(7, "explore", 0) != hash_unit(7, "score", 0)
        assert hash_unit(7, "explore", 0) != hash_unit(8, "explore", 0)

    def test_none_seed_is_its_own_stream(self):
        assert hash_unit(None, "score", 0) != hash_unit(0, "score", 0)
        assert hash_unit(None, "score", 0) == hash_unit(None, "score", 0)


class _ConstantCalculator(StrategyCalculator):
    def __init__(self, value: float) -> None:
        self.value = value

    def gain(self, worker, row, col):
        return self.value


class _StubPosterior:
    def __init__(self, probs=None, variance=None):
        self.is_categorical = probs is not None
        self.probs = None if probs is None else np.asarray(probs, dtype=float)
        self.variance = variance


class _StubResult:
    """posterior() keyed on the column: col 0 settled, col 1 contested."""

    def posterior(self, row, col):
        if col == 0:
            return _StubPosterior(probs=[0.98, 0.02])
        return _StubPosterior(probs=[0.55, 0.45])


class TestPosteriorConfidence:
    def test_categorical_is_max_prob(self):
        assert posterior_confidence(
            _StubPosterior(probs=[0.2, 0.7, 0.1])
        ) == pytest.approx(0.7)

    def test_continuous_shrinks_with_variance(self):
        assert posterior_confidence(
            _StubPosterior(variance=0.0)
        ) == pytest.approx(1.0)
        assert posterior_confidence(
            _StubPosterior(variance=3.0)
        ) == pytest.approx(0.25)


class TestVoIRetirement:
    def _calculator(self, counts):
        return _VoICalculator(
            _ConstantCalculator(1.0),
            _StubResult(),
            np.asarray(counts),
            confidence=0.9,
            min_answers=2,
        )

    def test_confident_cell_retires(self):
        calc = self._calculator([[2, 2]])
        assert calc.gain("w", 0, 0) == RETIRED_GAIN
        assert calc.gain("w", 0, 1) == 1.0

    def test_min_answers_gates_retirement(self):
        calc = self._calculator([[1, 1]])
        assert calc.gain("w", 0, 0) == 1.0

    def test_batch_substitutes_retired_cells(self):
        calc = self._calculator([[2, 2]])
        gains = calc.gains_batch("w", [(0, 0), (0, 1)])
        assert gains.tolist() == [RETIRED_GAIN, 1.0]

    def test_retired_gain_is_json_safe(self):
        import json

        assert json.loads(json.dumps(RETIRED_GAIN)) == RETIRED_GAIN
        assert np.isfinite(RETIRED_GAIN)


class _StubAnswers:
    def __init__(self, total, counts):
        self._total = total
        self._counts = np.asarray(counts)

    def __len__(self):
        return self._total

    def answer_counts(self):
        return self._counts


class TestEpsilonGreedy:
    def test_always_explore_scores_randomly(self):
        strategy = build_strategy(
            StrategySpec(name="epsilon_greedy", epsilon=1.0, seed=5)
        )
        calc = strategy.build_calculator(None, None, _StubAnswers(9, [[0]]))
        assert isinstance(calc, _RandomCalculator)
        assert calc.gain("w", 0, 0) == hash_unit(5, "score", "w", 9, 0, 0)

    def test_never_explore_delegates_to_base(self):
        strategy = build_strategy(
            StrategySpec(name="epsilon_greedy", epsilon=0.0, base="round_robin")
        )
        calc = strategy.build_calculator(
            None, None, _StubAnswers(9, [[4, 1]])
        )
        assert calc.gain("w", 0, 0) == -4.0
        assert calc.gain("w", 0, 1) == -1.0

    def test_explore_branch_is_worker_free_and_replayable(self):
        spec = StrategySpec(
            name="epsilon_greedy", epsilon=0.4, base="round_robin", seed=2
        )
        first = build_strategy(spec)
        second = build_strategy(spec)
        for total in range(12):
            answers = _StubAnswers(total, [[0]])
            a = first.build_calculator(None, None, answers)
            b = second.build_calculator(None, None, answers)
            # The explore decision depends only on (seed, answers_total):
            # every serving mode takes the same branch at the same state.
            assert type(a) is type(b)


class TestStrategyBinding:
    def test_paper_keeps_historic_genesis(self):
        assert strategy_genesis(None) == GENESIS_HASH
        assert strategy_genesis("paper") == GENESIS_HASH

    def test_non_paper_genesis_is_strategy_specific(self):
        heads = {
            strategy_genesis(name)
            for name in ("random", "uncertainty", "budget_voi")
        }
        assert len(heads) == 3
        assert GENESIS_HASH not in heads
        assert strategy_genesis("uncertainty") == strategy_genesis("uncertainty")

    def test_recorder_normalises_paper_to_none(self):
        recorder = DecisionRecorder(strategy="paper")
        assert recorder.strategy is None
        assert recorder.chain_head == GENESIS_HASH
        assert recorder.state()["strategy"] is None

    def test_recorder_binds_strategy_under_the_chain(self):
        recorder = DecisionRecorder(strategy="uncertainty")
        genesis = strategy_genesis("uncertainty")
        assert recorder.chain_head == genesis
        state = recorder.state()
        assert state["strategy"] == "uncertainty"
        assert state["chain_head"] == genesis

    def test_restore_defaults_head_to_own_genesis(self):
        recorder = DecisionRecorder(strategy="uncertainty")
        recorder.restore({"records": []})
        assert recorder.chain_head == strategy_genesis("uncertainty")


class TestStrategySessions:
    """Live scripted sessions: the default stays identical, others diverge."""

    SCENARIO = {"model_kwargs": FAST_MODEL}

    @pytest.fixture(scope="class")
    def default_outcome(self):
        return run_scripted_session("plain", scenario=dict(self.SCENARIO))

    def test_default_identical_to_pinned_paper(self, default_outcome):
        pinned = run_scripted_session(
            "plain", scenario={**self.SCENARIO, "strategy": "paper"}
        )
        assert pinned["decisions"] == default_outcome["decisions"]
        assert pinned["estimates"] == default_outcome["estimates"]
        assert (
            pinned["session"].recorder.chain_head
            == default_outcome["session"].recorder.chain_head
        )

    @pytest.mark.parametrize("name", ["random", "round_robin", "uncertainty"])
    def test_non_default_strategies_diverge(self, name, default_outcome):
        outcome = run_scripted_session(
            "plain", scenario={**self.SCENARIO, "strategy": name}
        )
        assert outcome["decisions"]
        assert outcome["decisions"] != default_outcome["decisions"]
        assert (
            outcome["session"].recorder.chain_head
            != default_outcome["session"].recorder.chain_head
        )

    def test_wal_recovery_replays_a_non_paper_chain(self, tmp_path):
        summary = verify_audit_replay(
            directory=tmp_path, scenario={**self.SCENARIO, "strategy": "uncertainty"}
        )
        assert summary["audit_replay_identical"], summary
        assert summary["audit_replay_mismatches"] == 0, summary


class TestCrossModeStrategyIdentity:
    """A non-paper strategy is bit-identical across the serving matrix."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        scenario = {"model_kwargs": FAST_MODEL, "strategy": "uncertainty"}
        return {
            mode: run_scripted_session(mode, scenario=dict(scenario))
            for mode in SERVING_MODES
        }

    def test_decisions_identical_across_modes(self, outcomes):
        reference = outcomes["plain"]["decisions"]
        assert reference
        for mode, outcome in outcomes.items():
            assert outcome["decisions"] == reference, mode

    def test_chain_heads_identical_across_modes(self, outcomes):
        heads = {
            mode: outcome["session"].recorder.chain_head
            for mode, outcome in outcomes.items()
        }
        assert len(set(heads.values())) == 1, heads
        assert GENESIS_HASH not in heads.values()

    def test_recorders_pin_the_strategy(self, outcomes):
        for outcome in outcomes.values():
            assert outcome["session"].recorder.state()["strategy"] == "uncertainty"
