"""Tests for the row-range shard partition and the stable top-K merge.

:class:`~repro.engine.ShardedSessionState` is the process coordinator's
partition: its per-shard indexes must agree with the monolithic ones at
every step, and the concatenation of its per-shard candidate lists must be
the monolithic row-major list, which is what makes the coordinator's
merged top-K bit-identical to the single-process selection.  In-process
serving ignores ``serving.shards`` altogether.
"""

import numpy as np
import pytest

from repro.config import ServingSpec, SessionSpec
from repro.config.factory import build_policy, wrap_policy
from repro.core.answers import AnswerSet
from repro.core.assignment import (
    TCrowdAssigner,
    merge_top_k_stable,
    top_k_stable,
)
from repro.datasets import generate_synthetic
from repro.engine import SessionState, ShardedSessionState
from repro.platform import CrowdsourcingSession
from repro.utils.exceptions import AssignmentError, ConfigurationError


def _random_answers(schema, steps=80, seed=2, workers=6):
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    ids = [f"w{i}" for i in range(workers)]
    for _ in range(steps):
        worker = ids[int(rng.integers(len(ids)))]
        row = int(rng.integers(schema.num_rows))
        col = int(rng.integers(schema.num_columns))
        column = schema.columns[col]
        value = (
            column.labels[int(rng.integers(column.num_labels))]
            if column.is_categorical
            else float(rng.normal())
        )
        answers.add_answer(worker, row, col, value)
    return answers


class TestPartition:
    def test_contiguous_cover_with_uneven_rows(self, mixed_schema):
        # 8 rows: 1/2/3/5/7 shards all cover [0, 8) contiguously.
        for num_shards in (1, 2, 3, 5, 7):
            state = ShardedSessionState(mixed_schema, num_shards=num_shards)
            bounds = [state.shard_bounds(s) for s in range(state.num_shards)]
            assert bounds[0][0] == 0
            assert bounds[-1][1] == mixed_schema.num_rows
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1
            for row in range(mixed_schema.num_rows):
                shard = state.shard_of_row(row)
                start, stop = state.shard_bounds(shard)
                assert start <= row < stop

    def test_more_shards_than_rows_is_clipped(self, mixed_schema):
        state = ShardedSessionState(mixed_schema, num_shards=100)
        assert state.num_shards == mixed_schema.num_rows

    def test_zero_shards_rejected(self, mixed_schema):
        with pytest.raises(ConfigurationError):
            ShardedSessionState(mixed_schema, num_shards=0)


class TestShardedSessionState:
    def test_matches_monolith_under_interleaved_syncs(self, mixed_schema):
        answers = _random_answers(mixed_schema, steps=90)
        for num_shards, cap in ((2, None), (3, 3), (4, 2)):
            mono = SessionState(mixed_schema, max_answers_per_cell=cap)
            sharded = ShardedSessionState(
                mixed_schema, num_shards=num_shards, max_answers_per_cell=cap
            )
            partial = AnswerSet(mixed_schema)
            for index, answer in enumerate(answers):
                partial.add(answer)
                if index % 7 == 0 or index == len(answers) - 1:
                    mono.sync(partial)
                    sharded.sync(partial)
                    assert np.array_equal(mono.counts, sharded.counts)
                    assert mono.open_cell_count() == sharded.open_cell_count()
                    per_shard = sum(
                        sharded.shard_open_count(s)
                        for s in range(sharded.num_shards)
                    )
                    assert per_shard == sharded.open_cell_count()
                    for worker in ("w0", "w3", "never-seen"):
                        assert (
                            mono.candidate_cells(worker)
                            == sharded.candidate_cells(worker)
                        )

    def test_shard_candidates_concatenate_to_global(self, mixed_schema):
        answers = _random_answers(mixed_schema, steps=60, seed=9)
        state = ShardedSessionState(
            mixed_schema, num_shards=3, max_answers_per_cell=3
        )
        state.sync(answers)
        for worker in ("w0", "w5", "fresh"):
            concatenated = [
                cell
                for shard in range(state.num_shards)
                for cell in state.shard_candidate_cells(shard, worker)
            ]
            assert concatenated == state.candidate_cells(worker)

    def test_cap_hit_inside_a_single_shard(self, mixed_schema):
        # Fill every cell of shard 0's rows up to the cap: that shard's open
        # pool must drain to zero while the other shards stay untouched.
        state = ShardedSessionState(
            mixed_schema, num_shards=4, max_answers_per_cell=1
        )
        start, stop = state.shard_bounds(0)
        answers = AnswerSet(mixed_schema)
        for row in range(start, stop):
            for col, column in enumerate(mixed_schema.columns):
                value = column.labels[0] if column.is_categorical else 1.0
                answers.add_answer("filler", row, col, value)
        state.sync(answers)
        assert state.shard_open_count(0) == 0
        for shard in range(1, state.num_shards):
            bounds = state.shard_bounds(shard)
            expected = (bounds[1] - bounds[0]) * mixed_schema.num_columns
            assert state.shard_open_count(shard) == expected
        assert state.shard_candidate_cells(0, "someone-else") == []
        assert state.has_open_cells()

    def test_routing_after_sync_rebuild(self, mixed_schema):
        # Presenting a different answer set rebuilds from scratch; the
        # per-shard open accounting must be rebuilt with it, not carried
        # over from the previous source.
        state = ShardedSessionState(
            mixed_schema, num_shards=2, max_answers_per_cell=1
        )
        first = _random_answers(mixed_schema, steps=40, seed=1)
        state.sync(first)
        other = AnswerSet(mixed_schema)
        label = mixed_schema.columns[0].labels[0]
        other.add_answer("solo", mixed_schema.num_rows - 1, 0, label)
        state.sync(other)
        assert np.array_equal(state.counts, other.answer_counts())
        last_shard = state.shard_of_row(mixed_schema.num_rows - 1)
        start, stop = state.shard_bounds(last_shard)
        expected = (stop - start) * mixed_schema.num_columns - 1
        assert state.shard_open_count(last_shard) == expected
        per_shard = sum(
            state.shard_open_count(s) for s in range(state.num_shards)
        )
        assert per_shard == state.open_cell_count()


class TestMergeTopK:
    def test_matches_global_stable_top_k(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            # Draw from few distinct values so cross-shard ties are common.
            gains = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
            cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 5))))
            parts = np.split(gains, cuts)
            k = int(rng.integers(1, n + 3))
            assert list(merge_top_k_stable(parts, k)) == list(
                top_k_stable(gains, k)
            )

    def test_empty_parts_are_skipped(self):
        parts = [np.zeros(0), np.array([1.0, 3.0]), np.zeros(0), np.array([2.0])]
        assert list(merge_top_k_stable(parts, 2)) == [1, 2]


class TestShardsWithoutProcesses:
    """``serving.shards`` partitions rows only for the process coordinator;
    an in-process session serves every row from one candidate pool."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(
            num_rows=10, num_columns=4, categorical_ratio=0.5,
            answers_per_task=2, num_workers=8, seed=3,
        )

    def _replay(self, dataset, shards, steps=12, k=3, seed=9):
        """Decisions and ledger chain head of one spec-built replay."""
        spec = (
            SessionSpec.builder()
            .model(max_iterations=6, m_step_iterations=10)
            .policy(warm_start=False, max_answers_per_cell=4)
            .serving(shards=shards)
            .build()
        )
        policy = build_policy(dataset.schema, spec)
        rng = np.random.default_rng(seed)
        answers = dataset.answers.copy()
        ids = dataset.worker_pool.worker_ids()
        decisions = []
        for _ in range(steps):
            worker = ids[int(rng.integers(len(ids)))]
            try:
                batch = policy.select(worker, answers, k=k)
            except AssignmentError:
                continue
            decisions.append((worker, batch.cells, batch.gains))
            for row, col in batch.cells:
                value = dataset.oracle.answer(worker, row, col, rng)
                answers.add_answer(worker, row, col, value)
            policy.observe(answers)
        return policy, decisions, policy.recorder.chain_head

    def test_same_cells_and_chain_head_as_unpartitioned(self, dataset):
        plain, baseline, head = self._replay(dataset, shards=1)
        assert baseline
        for shards in (2, 4):
            policy, decisions, sharded_head = self._replay(dataset, shards=shards)
            assert type(policy) is type(plain) is TCrowdAssigner
            assert decisions == baseline
            assert sharded_head == head

    def test_platform_session_shards_knob(self, dataset):
        def trace(shards):
            spec = (
                SessionSpec.builder()
                .model(max_iterations=6, m_step_iterations=10)
                .policy(warm_start=False, max_answers_per_cell=4)
                .serving(shards=shards)
                .simulation(target_answers_per_task=2.5, seed=11, max_steps=8)
                .build()
            )
            return CrowdsourcingSession.from_spec(dataset, spec).run()

        plain = trace(1)
        sharded = trace(3)
        assert sharded.policy_name == plain.policy_name
        assert sharded.records == plain.records

    def test_any_policy_is_served_unwrapped(self, dataset):
        from repro.baselines.assignment_simple import RandomAssigner

        policy = RandomAssigner(dataset.schema, seed=1)
        assert wrap_policy(policy, ServingSpec(shards=2)) is policy
        assert ServingSpec(shards=4).describe() == "incremental"
