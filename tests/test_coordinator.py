"""Process-level shard-worker coordinator tests.

Covers the :class:`~repro.engine.ProcessShardCoordinator` serving path end
to end:

* the in-process :class:`~repro.engine.ShardGroupScorer` state machine
  (WAL trailing, local top-K, snapshot/restore, the op dispatch);
* answer routing across shard boundaries (``owner_of_row`` /
  ``worker_of_shard`` — the routing table the WAL fan-out relies on);
* the compressed per-worker top-K merge against a single-process oracle
  for K in {1, 2, 4} — cells *and* gains bit-identical;
* worker crash mid-session: SIGKILL one shard worker and assert a fast
  :class:`~repro.utils.exceptions.ServiceUnavailableError` (a 503 through
  the HTTP service) instead of a hang, clean registry state, and a
  bit-equivalent session after ``restart_worker`` replays the WAL;
* the golden-trace scenario replayed through ``processes=2`` against the
  committed fixture ``tests/fixtures/golden_trace.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.datasets import load_celebrity
from repro.engine import ProcessShardCoordinator, ShardGroupScorer
from repro.engine.coordinator import (
    _json_seed,
    _read_new_records,
    build_worker_assigner,
    handle_request,
    worker_spec_from_assigner,
)
from repro.utils.exceptions import (
    AssignmentError,
    ConfigurationError,
    ReproError,
    ServiceUnavailableError,
)

GOLDEN_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_trace.json"

#: Small fast model for the unit tiers (the golden replay uses the
#: fixture's own kwargs via ``repro.service.bench.DEFAULT_SCENARIO``).
FAST_MODEL = {"max_iterations": 4, "m_step_iterations": 8}


def _make_assigner(schema, **overrides):
    options = {"refit_every": 1, "warm_start": True}
    options.update(overrides)
    return TCrowdAssigner(schema, model=TCrowdModel(**FAST_MODEL), **options)


@pytest.fixture(scope="module")
def dataset():
    return load_celebrity(seed=7, num_rows=12)


@pytest.fixture(scope="module")
def seeded_answers(dataset):
    """One answer per cell from the scripted oracle (do not mutate; copy)."""
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(7)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        for col in range(schema.num_columns):
            answers.add_answer(
                worker, row, col, dataset.oracle.answer(worker, row, col, rng)
            )
    return answers


def _wal_record(answers, observe=False):
    delta = [
        [a.worker, int(a.row), int(a.col),
         a.value if isinstance(a.value, str) else float(a.value)]
        for a in answers
    ]
    return {"a": delta, "o": bool(observe)}


def _write_wal(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestWorkerSpecCodec:
    def test_round_trip_builds_an_equivalent_twin(self, dataset):
        schema = dataset.schema
        assigner = _make_assigner(schema, refit_every=2, vectorized=True)
        payload = worker_spec_from_assigner(assigner)
        # JSON-safe: the wire carries exactly this payload.
        twin = build_worker_assigner(schema, json.loads(json.dumps(payload)))
        assert twin.refit_every == assigner.refit_every
        assert twin.warm_start == assigner.warm_start
        assert twin.model.max_iterations == assigner.model.max_iterations
        assert twin.model.m_step_iterations == assigner.model.m_step_iterations

    def test_json_seed_keeps_plain_ints_only(self):
        assert _json_seed(7) == 7
        assert _json_seed(0) == 0
        assert _json_seed(None) is None
        assert _json_seed(True) is None  # bool is not a seed
        assert _json_seed(-1) is None
        assert _json_seed(np.int64(3)) is None  # numpy scalars do not travel


class TestReadNewRecords:
    def test_incremental_tail_read(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write_wal(path, [{"i": 0}, {"i": 1}])
        records, offset = _read_new_records(path, 0)
        assert [r["i"] for r in records] == [0, 1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"i": 2}) + "\n")
        records, offset = _read_new_records(path, offset)
        assert [r["i"] for r in records] == [2]

    def test_torn_tail_is_not_applied(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(json.dumps({"i": 0}) + "\n" + '{"i": 1', encoding="utf-8")
        records, offset = _read_new_records(path, 0)
        assert [r["i"] for r in records] == [0]
        # The torn line stays unread until its newline lands.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("}\n")
        records, _ = _read_new_records(path, offset)
        assert [r["i"] for r in records] == [1]


class TestShardGroupScorer:
    def _scorer(self, dataset, tmp_path, shard_lo=0, shard_hi=3, num_shards=3):
        schema = dataset.schema
        payload = worker_spec_from_assigner(_make_assigner(schema))
        wal = tmp_path / "answers.wal"
        wal.touch()
        return ShardGroupScorer(
            schema, payload, num_shards, shard_lo, shard_hi, wal
        )

    def test_sync_applies_records_and_observe_bumps_epoch(
        self, dataset, tmp_path, seeded_answers
    ):
        scorer = self._scorer(dataset, tmp_path)
        _write_wal(tmp_path / "answers.wal", [_wal_record(seeded_answers, observe=True)])
        state = scorer.sync_to(1)
        assert len(scorer.answers) == len(seeded_answers)
        assert scorer.records_applied == 1
        assert state["epoch"] == 1
        assert state["answers_seen"] == len(seeded_answers)

    def test_sync_backwards_raises(self, dataset, tmp_path, seeded_answers):
        scorer = self._scorer(dataset, tmp_path)
        _write_wal(tmp_path / "answers.wal", [_wal_record(seeded_answers)])
        scorer.sync_to(1)
        with pytest.raises(ServiceUnavailableError, match="backwards"):
            scorer.sync_to(0)

    def test_short_wal_raises(self, dataset, tmp_path):
        scorer = self._scorer(dataset, tmp_path)
        with pytest.raises(ServiceUnavailableError, match="short"):
            scorer.sync_to(3)

    def test_select_scores_only_the_owned_block(
        self, dataset, tmp_path, seeded_answers
    ):
        schema = dataset.schema
        _write_wal(tmp_path / "answers.wal", [_wal_record(seeded_answers, observe=True)])
        whole = self._scorer(dataset, tmp_path, 0, 3)
        whole.sync_to(1)
        count_all, top_all, _ = whole.select("probe-worker", 4)
        assert count_all == schema.num_cells  # fresh worker: every cell open
        assert len(top_all) == 4
        gains = [gain for gain, _, _ in top_all]
        assert gains == sorted(gains, reverse=True)

        part = self._scorer(dataset, tmp_path, 0, 1)
        part.sync_to(1)
        count_part, top_part, _ = part.select("probe-worker", 4)
        assert 0 < count_part < count_all
        # Every scored cell belongs to the owned shard's row block.
        for _, row, _ in top_part:
            assert part._state.shard_of_row(row) == 0

    def test_select_with_empty_block_still_refits(
        self, dataset, tmp_path, seeded_answers
    ):
        # A worker whose block has no candidates returns (0, []) but its
        # refit chain must advance — that is the equivalence contract.
        schema = dataset.schema
        scorer = self._scorer(dataset, tmp_path, 2, 3)
        extra = AnswerSet(schema)
        for a in seeded_answers:
            extra.add_answer(a.worker, a.row, a.col, a.value)
        for row in range(schema.num_rows):
            for col in range(schema.num_columns):
                column = schema.columns[col]
                extra.add_answer(
                    "blockw", row, col,
                    column.labels[0] if column.is_categorical else 1.0,
                )
        _write_wal(tmp_path / "answers.wal", [_wal_record(extra)])
        scorer.sync_to(1)
        count, top, _ = scorer.select("blockw", 2)
        assert (count, top) == (0, [])
        assert scorer.epoch >= 1  # the select-time refit was published

    def test_final_snapshot_restore_round_trip(
        self, dataset, tmp_path, seeded_answers
    ):
        scorer = self._scorer(dataset, tmp_path)
        assert scorer.snapshot() == {"state": None}  # before any fit
        _write_wal(tmp_path / "answers.wal", [_wal_record(seeded_answers, observe=True)])
        scorer.sync_to(1)
        final = scorer.final()
        assert final["answers_seen"] == len(seeded_answers)
        snap = scorer.snapshot()
        assert snap["state"] is not None
        assert snap["state"]["answers_seen"] == len(seeded_answers)

        other = self._scorer(dataset, tmp_path)
        state = other.restore(snap["state"])
        assert state["answers_seen"] == len(seeded_answers)
        assert other.epoch == 1

    def test_handle_request_dispatch_and_unknown_op(
        self, dataset, tmp_path, seeded_answers
    ):
        scorer = self._scorer(dataset, tmp_path)
        _write_wal(tmp_path / "answers.wal", [_wal_record(seeded_answers, observe=True)])
        assert handle_request(scorer, {"op": "sync", "count": 1})["answers_seen"] > 0
        reply = handle_request(scorer, {"op": "select", "worker": "w", "k": 2})
        assert reply["n"] > 0 and len(reply["top"]) == 2
        assert "result" in handle_request(scorer, {"op": "final"})
        snap = handle_request(scorer, {"op": "snapshot"})
        assert snap["state"] is not None
        restored = handle_request(scorer, {"op": "restore", **snap["state"]})
        assert restored["answers_seen"] == snap["state"]["answers_seen"]
        stats = handle_request(scorer, {"op": "stats"})
        assert stats["shards"] == [0, 3]
        assert stats["wal_records"] == 1
        with pytest.raises(ConfigurationError, match="unknown worker op"):
            handle_request(scorer, {"op": "compact"})


class TestCoordinatorValidation:
    def test_rejects_non_tcrowd_policy(self, dataset):
        class FakePolicy:
            pass

        with pytest.raises(ConfigurationError, match="TCrowdAssigner"):
            ProcessShardCoordinator(FakePolicy())

    def test_platform_session_rejects_non_tcrowd_policy(self, dataset):
        """The session refuses the spec before any worker process starts."""
        from repro.baselines.assignment_simple import RandomAssigner
        from repro.config import SessionSpec
        from repro.platform import CrowdsourcingSession

        spec = SessionSpec.builder().serving(processes=2, shards=2).simulation(
            target_answers_per_task=2.0
        ).build()
        with pytest.raises(ConfigurationError, match="TCrowdAssigner"):
            CrowdsourcingSession(
                dataset,
                RandomAssigner(dataset.schema, seed=1),
                TCrowdModel(**FAST_MODEL),
                spec=spec,
            )

    def test_rejects_monte_carlo_gains(self, dataset):
        assigner = _make_assigner(dataset.schema, continuous_samples=16)
        with pytest.raises(ConfigurationError, match="continuous_samples"):
            ProcessShardCoordinator(assigner)

    def test_rejects_zero_processes(self, dataset):
        with pytest.raises(ConfigurationError, match="processes"):
            ProcessShardCoordinator(_make_assigner(dataset.schema), processes=0)


@pytest.fixture(scope="module")
def coordinator(dataset):
    """One long-lived processes=2 / shards=3 coordinator for the read tests."""
    with ProcessShardCoordinator(
        _make_assigner(dataset.schema), processes=2, num_shards=3
    ) as coord:
        yield coord


class TestAnswerRouting:
    def test_contiguous_shard_groups_cover_all_shards(self, coordinator):
        owners = [coordinator.worker_of_shard(s) for s in range(coordinator.num_shards)]
        assert owners == sorted(owners)  # contiguous groups
        assert set(owners) == {0, 1}
        with pytest.raises(ConfigurationError, match="outside"):
            coordinator.worker_of_shard(coordinator.num_shards)

    def test_every_row_routes_to_its_shard_owner(self, dataset, coordinator):
        seen = set()
        for row in range(dataset.schema.num_rows):
            owner = coordinator.owner_of_row(row)
            shard = coordinator._state.shard_of_row(row)
            assert owner == coordinator.worker_of_shard(shard)
            seen.add(owner)
        assert seen == {0, 1}  # rows cross the process boundary

    def test_worker_states_report_topology(self, coordinator):
        states = coordinator.worker_states()
        assert len(states) == 2
        shards = [tuple(state["shards"]) for state in states]
        assert shards[0][1] == shards[1][0]  # adjacent half-open ranges
        assert shards[0][0] == 0
        assert shards[-1][1] == coordinator.num_shards

    def test_name_and_last_result(self, coordinator):
        assert "[processes x2]" in coordinator.name
        assert coordinator.last_result is None  # nothing fitted yet


def _drive_pair(dataset, oracle, coord, k, steps=4):
    """Step ``oracle`` and ``coord`` in lockstep; return both trails."""
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(7)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        for col in range(schema.num_columns):
            answers.add_answer(
                worker, row, col, dataset.oracle.answer(worker, row, col, rng)
            )
    oracle_trail, coord_trail = [], []
    taken = failures = 0
    while taken < steps and failures < 30:
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        try:
            want = oracle.select(worker, answers, k=k)
        except AssignmentError:
            with pytest.raises(AssignmentError):
                coord.select(worker, answers, k=k)
            failures += 1
            continue
        got = coord.select(worker, answers, k=k)
        oracle_trail.append((worker, want.cells, tuple(float(g) for g in want.gains)))
        coord_trail.append((worker, got.cells, tuple(float(g) for g in got.gains)))
        for row, col in want.cells:
            answers.add_answer(
                worker, row, col, dataset.oracle.answer(worker, row, col, rng)
            )
        oracle.observe(answers)
        coord.observe(answers)
        taken += 1
        failures = 0
    assert taken == steps
    return oracle_trail, coord_trail


class TestTopKMergeEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_merged_top_k_matches_single_process_oracle(self, dataset, k):
        oracle = _make_assigner(dataset.schema)
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=3, num_shards=3
        ) as coord:
            oracle_trail, coord_trail = _drive_pair(dataset, oracle, coord, k)
        assert coord_trail == oracle_trail  # cells AND gains, bit for bit

    def test_final_result_matches_oracle(self, dataset, seeded_answers):
        oracle = _make_assigner(dataset.schema)
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=2, num_shards=3
        ) as coord:
            want = oracle.final_result(seeded_answers)
            got = coord.final_result(seeded_answers)
            assert coord.last_result is got
            for row in range(dataset.schema.num_rows):
                for col in range(dataset.schema.num_columns):
                    assert got.estimate(row, col) == want.estimate(row, col)

    def test_select_rejects_bad_k_and_exhausted_worker(self, dataset, seeded_answers):
        schema = dataset.schema
        with ProcessShardCoordinator(
            _make_assigner(schema), processes=2
        ) as coord:
            with pytest.raises(AssignmentError, match="k must be"):
                coord.select("w", seeded_answers, k=0)
            # Saturate one worker: after answering every open candidate
            # cell, its select must fail with the single-process message.
            answers = seeded_answers.copy()
            state = coord.session_state(answers)
            for row, col in list(state.candidate_cells("greedy-worker")):
                column = schema.columns[col]
                value = column.labels[0] if column.is_categorical else 1.0
                answers.add_answer("greedy-worker", row, col, value)
            assert not coord.candidate_cells("greedy-worker", answers)
            with pytest.raises(AssignmentError, match="No candidate cells"):
                coord.select("greedy-worker", answers, k=1)


def _kill_worker(coord, index):
    handle = coord._workers[index]
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=10)
    assert not handle.process.is_alive()


class TestWorkerCrash:
    def test_sigkill_surfaces_as_service_unavailable(self, dataset, seeded_answers):
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=2, num_shards=3
        ) as coord:
            _kill_worker(coord, 1)
            with pytest.raises(ServiceUnavailableError, match="shard worker 1"):
                coord.select("fresh-worker", seeded_answers, k=2)
            # The registry stays consistent: the dead worker reports None,
            # the survivor keeps answering stats probes.
            states = coord.worker_states()
            assert states[1] is None
            assert states[0] is not None
            # Every subsequent call fails fast too (no hang, no retry loop).
            with pytest.raises(ServiceUnavailableError):
                coord.select("fresh-worker", seeded_answers, k=2)

    def test_restart_replays_the_wal_and_stays_bit_identical(self, dataset):
        oracle = _make_assigner(dataset.schema)
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=2, num_shards=3
        ) as coord:
            schema = dataset.schema
            pool = dataset.worker_pool
            worker_ids, activities = pool.worker_ids(), pool.activities()
            rng = np.random.default_rng(7)
            answers = AnswerSet(schema)
            for row in range(schema.num_rows):
                worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
                for col in range(schema.num_columns):
                    answers.add_answer(
                        worker, row, col,
                        dataset.oracle.answer(worker, row, col, rng),
                    )
            trail = []
            for step in range(4):
                if step == 2:
                    _kill_worker(coord, 0)
                    with pytest.raises(ServiceUnavailableError):
                        coord.select(worker_ids[0], answers, k=2)
                    coord.restart_worker(0)
                worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
                want = oracle.select(worker, answers, k=2)
                got = coord.select(worker, answers, k=2)
                trail.append((step, got.cells == want.cells,
                              tuple(got.gains) == tuple(want.gains)))
                for row, col in want.cells:
                    answers.add_answer(
                        worker, row, col,
                        dataset.oracle.answer(worker, row, col, rng),
                    )
                oracle.observe(answers)
                coord.observe(answers)
            assert all(cells_ok and gains_ok for _, cells_ok, gains_ok in trail)

    def test_worker_init_failure_surfaces_at_spawn(self, dataset, seeded_answers):
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=2
        ) as coord:
            coord.observe(seeded_answers)
            # A respawned worker that cannot replay the spool reports the
            # failure in its ready message instead of hanging the select.
            coord._init_common["wal_path"] = str(coord._spool / "missing.wal")
            with pytest.raises(ReproError):
                coord.restart_worker(0)
            assert coord.worker_states()[0] is None

    def test_caller_spool_dir_is_kept_on_close(self, dataset, tmp_path, seeded_answers):
        spool = tmp_path / "spool"
        with ProcessShardCoordinator(
            _make_assigner(dataset.schema), processes=2, spool_dir=spool,
            request_timeout=30.0,
        ) as coord:
            coord.observe(seeded_answers)
            assert (spool / "answers.wal").exists()
        # A caller-provided spool survives close (it is the caller's to keep).
        assert (spool / "answers.wal").exists()

    def test_close_is_idempotent_and_restart_after_close_raises(self, dataset):
        coord = ProcessShardCoordinator(_make_assigner(dataset.schema), processes=2)
        spool = coord._spool
        coord.close()
        assert not spool.exists()  # owned spool removed
        coord.close()  # second close is a no-op
        with pytest.raises(ServiceUnavailableError, match="closed"):
            coord.restart_worker(0)
        with pytest.raises(ServiceUnavailableError):
            coord.select("w", AnswerSet(dataset.schema), k=1)


class TestServiceIntegration:
    def test_dead_worker_is_a_503_not_a_hang(self, dataset):
        from repro.config import SessionSpec
        from repro.service.app import ServiceServer
        from repro.service.bench import ServiceClient
        from repro.service.registry import schema_to_dict

        schema = dataset.schema
        spec = (
            SessionSpec.builder()
            .model(**FAST_MODEL)
            .policy(refit_every=1)
            .serving(processes=2, shards=3)
            .build()
        )
        with ServiceServer() as server:
            client = ServiceClient(server.address, timeout=30.0)
            session = client.create_session(
                {"schema": schema_to_dict(schema), **spec.to_dict()}
            )
            session_id = session["session_id"]
            assert "processes x2" in session["policy"]
            for row in range(schema.num_rows):
                client.post_answers(
                    session_id, "seeder",
                    [(row, col, 0.0 if not schema.columns[col].is_categorical
                      else schema.columns[col].labels[0])
                     for col in range(schema.num_columns)],
                )
            status, body = client.get_tasks(session_id, "fresh-worker", k=2)
            assert status == 200, (status, body)

            policy = server.registry.get(session_id).durable.policy
            _kill_worker(policy, 0)
            started = time.monotonic()
            status, body = client.get_tasks(session_id, "fresh-worker", k=2)
            assert status == 503, (status, body)
            assert "shard worker 0" in body["error"]
            assert time.monotonic() - started < 30.0  # fail fast, no hang
            # The rest of the registry still serves.
            health = client.healthz()
            assert health["status"] == "ok"
            client.delete_session(session_id)


class TestGoldenTraceMultiprocess:
    def test_scripted_replay_matches_the_committed_fixture(self):
        from repro.service.bench import run_scripted_session

        golden = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))
        outcome = run_scripted_session("multiprocess")
        decisions = [
            (worker, tuple((int(r), int(c)) for r, c in cells))
            for worker, cells in golden["decisions"]
        ]
        assert outcome["decisions"] == decisions, (
            "processes=2 diverged from the committed golden trace"
        )
        estimates = {
            (int(key.split(",")[0]), int(key.split(",")[1])): value
            for key, value in golden["final_estimates"].items()
        }
        got = {
            key: value if isinstance(value, str) else float(value)
            for key, value in outcome["estimates"].items()
        }
        assert got == estimates
