"""Tests for the baseline assignment policies."""

import pytest

from repro.baselines.assignment_askit import AskItAssigner
from repro.baselines.assignment_cdas import CDASAssigner
from repro.baselines.assignment_simple import LoopingAssigner, RandomAssigner
from repro.config import StrategySpec
from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.core.schema import Column, TableSchema
from repro.strategies import build_strategy
from repro.utils.exceptions import AssignmentError


@pytest.fixture()
def tiny_schema():
    return TableSchema.build(
        "e",
        [
            Column.categorical("cat", ["a", "b", "c"]),
            Column.continuous("num", (0, 100)),
        ],
        3,
    )


@pytest.fixture()
def tiny_answers(tiny_schema):
    answers = AnswerSet(tiny_schema)
    for i in range(3):
        for worker, label in (("w1", "a"), ("w2", "a"), ("w3", "b")):
            answers.add_answer(worker, i, 0, label)
        for worker, value in (("w1", 50.0), ("w2", 52.0), ("w3", 48.0)):
            answers.add_answer(worker, i, 1, value)
    return answers


class TestRandomAssigner:
    def test_selects_candidate_cells(self, tiny_schema, tiny_answers):
        assigner = RandomAssigner(tiny_schema, seed=0)
        batch = assigner.select("new-worker", tiny_answers, k=2)
        assert len(batch) == 2
        assert len(set(batch.cells)) == 2

    def test_never_assigns_already_answered_cell(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        # w1 answered the whole first row; the other rows are untouched.
        answers.add_answer("w1", 0, 0, "a")
        answers.add_answer("w1", 0, 1, 50.0)
        assigner = RandomAssigner(tiny_schema, seed=0)
        batch = assigner.select("w1", answers, k=6)
        assert all(not answers.has_answered("w1", *cell) for cell in batch.cells)
        assert (0, 0) not in batch.cells
        assert (0, 1) not in batch.cells

    def test_k_capped_by_candidates(self, tiny_schema, tiny_answers):
        assigner = RandomAssigner(tiny_schema, seed=0)
        batch = assigner.select("new-worker", tiny_answers, k=100)
        assert len(batch) == tiny_schema.num_cells

    def test_raises_without_candidates(self, tiny_schema, tiny_answers):
        assigner = RandomAssigner(tiny_schema, seed=0, max_answers_per_cell=1)
        with pytest.raises(AssignmentError):
            assigner.select("w1", tiny_answers, k=1)

    def test_name(self, tiny_schema):
        assert RandomAssigner(tiny_schema).name == "Random"


class TestLoopingAssigner:
    def test_round_robin_order(self, tiny_schema, tiny_answers):
        assigner = LoopingAssigner(tiny_schema)
        first = assigner.select("new", tiny_answers, k=2)
        second = assigner.select("new2", tiny_answers, k=2)
        assert first.cells == ((0, 0), (0, 1))
        assert second.cells == ((1, 0), (1, 1))

    def test_skips_answered_cells(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        answers.add_answer("w1", 0, 0, "a")
        answers.add_answer("w1", 0, 1, 50.0)
        assigner = LoopingAssigner(tiny_schema)
        batch = assigner.select("w1", answers, k=3)
        assert all(not answers.has_answered("w1", *cell) for cell in batch.cells)
        assert batch.cells[0] == (1, 0)

    def test_wraps_around(self, tiny_schema, tiny_answers):
        assigner = LoopingAssigner(tiny_schema)
        for _ in range(4):
            batch = assigner.select("fresh", tiny_answers, k=2)
        assert len(batch) == 2


class TestEntropyHeuristic:
    """Figure 5's Entropy heuristic: the ``uncertainty`` strategy."""

    @staticmethod
    def _assigner(schema, model):
        strategy = build_strategy(StrategySpec(name="uncertainty"))
        return TCrowdAssigner(schema, model=model, strategy=strategy)

    def test_prefers_most_uncertain_cell(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        # Cell (0,0) gets unanimous answers, (1,0) gets split answers.
        for worker in ("w1", "w2", "w3", "w4"):
            answers.add_answer(worker, 0, 0, "a")
        for worker, label in (("w1", "a"), ("w2", "b"), ("w3", "c"), ("w4", "a")):
            answers.add_answer(worker, 1, 0, label)
        for i in range(3):
            for worker in ("w1", "w2"):
                answers.add_answer(worker, i, 1, 50.0)
        assigner = self._assigner(tiny_schema, TCrowdModel(max_iterations=5))
        batch = assigner.select("new", answers, k=1)
        assert batch.cells[0] != (0, 0)

    def test_requires_seed_answers(self, tiny_schema):
        assigner = self._assigner(tiny_schema, TCrowdModel(max_iterations=3))
        with pytest.raises(AssignmentError):
            assigner.select("w", AnswerSet(tiny_schema), k=1)


class TestCDASAssigner:
    def test_terminates_confident_categorical_cell(self, tiny_schema, tiny_answers):
        assigner = CDASAssigner(
            tiny_schema, seed=0, confidence_threshold=0.6, min_answers=3
        )
        assert assigner.is_terminated(tiny_answers, 0, 0)

    def test_does_not_terminate_split_votes(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        for worker, label in (("w1", "a"), ("w2", "b"), ("w3", "c")):
            answers.add_answer(worker, 0, 0, label)
        assigner = CDASAssigner(tiny_schema, seed=0, confidence_threshold=0.8)
        assert not assigner.is_terminated(answers, 0, 0)

    def test_does_not_terminate_with_few_answers(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        answers.add_answer("w1", 0, 0, "a")
        assigner = CDASAssigner(tiny_schema, seed=0, min_answers=3)
        assert not assigner.is_terminated(answers, 0, 0)

    def test_select_prefers_open_cells(self, tiny_schema, tiny_answers):
        assigner = CDASAssigner(
            tiny_schema, seed=1, confidence_threshold=0.6, sem_threshold=0.5,
            min_answers=3,
        )
        batch = assigner.select("new", tiny_answers, k=1)
        assert not assigner.is_terminated(tiny_answers, *batch.cells[0])

    def test_falls_back_to_terminated_cells_when_all_done(self, tiny_schema, tiny_answers):
        assigner = CDASAssigner(
            tiny_schema, seed=1, confidence_threshold=0.0, sem_threshold=10.0,
            min_answers=1,
        )
        batch = assigner.select("new", tiny_answers, k=1)
        assert len(batch) == 1

    def test_name(self, tiny_schema):
        assert CDASAssigner(tiny_schema).name == "CDAS"


class TestAskItAssigner:
    def test_prefers_wide_domain_continuous_cells_first(self, tiny_schema, tiny_answers):
        assigner = AskItAssigner(tiny_schema)
        batch = assigner.select("new", tiny_answers, k=1)
        # Raw differential entropy of a wide continuous domain dominates the
        # bounded Shannon entropy of a 3-label categorical cell.
        assert tiny_schema.columns[batch.cells[0][1]].is_continuous

    def test_uncertainty_decreases_with_agreement(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        for worker, label in (("w1", "a"), ("w2", "b"), ("w3", "c")):
            answers.add_answer(worker, 0, 0, label)
        for worker in ("w1", "w2", "w3"):
            answers.add_answer(worker, 1, 0, "a")
        assigner = AskItAssigner(tiny_schema)
        split = assigner.uncertainty(answers, 0, 0)
        unanimous = assigner.uncertainty(answers, 1, 0)
        assert split > unanimous

    def test_continuous_uncertainty_shrinks_with_more_answers(self, tiny_schema):
        answers = AnswerSet(tiny_schema)
        assigner = AskItAssigner(tiny_schema)
        prior = assigner.uncertainty(answers, 0, 1)
        for worker in ("w1", "w2", "w3", "w4"):
            answers.add_answer(worker, 0, 1, 50.0 + 0.1 * hash(worker) % 3)
        posterior = assigner.uncertainty(answers, 0, 1)
        assert posterior < prior

    def test_name(self, tiny_schema):
        assert AskItAssigner(tiny_schema).name == "AskIt!"
