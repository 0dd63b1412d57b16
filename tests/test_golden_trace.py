"""Golden-trace regression harness for the online assignment engine.

One canonical seeded session (Celebrity, 12 rows, warm-started engine
configuration at the Algorithm 2 cadence) is replayed through every serving
policy the factory can return:

* ``incremental`` — the plain :class:`~repro.core.assignment.TCrowdAssigner`
  (incremental indexes, vectorised gains, warm-started refits);
* ``async_refit`` — the same assigner served through an
  :class:`~repro.engine.AsyncRefitPolicy` at ``max_stale_answers=0`` (every
  select refits inline; the scoring cache on).

(The service layer's durability path replays the same scenario through a
write-ahead log and is pinned against this fixture in ``tests/test_wal.py``.)

Both must produce *bit-identical* assignment sequences and final truth
estimates — that is the contract the bounded-staleness mode is built
on — and the sequence must match the committed
fixture ``tests/fixtures/golden_trace.json``, which pins the engine's
behaviour across refactors.

Three cold-EM configurations (every refit from scratch) replay the same
scenario without the fixture, whose decisions are warm-started:

* ``seed`` — ``warm_start``, ``vectorized`` and ``incremental`` all off:
  the seed implementation's scalar gains and full candidate rescans;
* ``exact`` — the engine's incremental indexes and vectorised gains;
* ``exact_async`` — the exact path through an
  :class:`~repro.engine.AsyncRefitPolicy` at ``max_stale_answers=0``.

The engine paths are pure refactors of the seed path's arithmetic, so all
three must take the same decisions and end on the same estimates
(``identical_assignments``, ``identical_assignments_async`` and
``identical_estimates_async``).

Regenerate the fixture (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/test_golden_trace.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.datasets import load_celebrity
from repro.utils.exceptions import AssignmentError

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "golden_trace.json"

#: Scenario pinned by the fixture.  Small enough that the replays run in a
#: few seconds, large enough that every code path (warm chain, staleness
#: blocking, candidate-pool exhaustion) is exercised.
SCENARIO = {
    "dataset": "celebrity",
    "seed": 7,
    "num_rows": 12,
    "target_answers_per_task": 1.5,
    # Selects nothing; kept because the committed fixture's scenario
    # carries it and must equal this dict.
    "num_shards": 3,
    "model_kwargs": {"max_iterations": 6, "m_step_iterations": 10},
}

CONFIGS = ("incremental", "async_refit")

#: Cold-EM configurations, compared with each other rather than the fixture.
COLD_CONFIGS = ("seed", "exact", "exact_async")


#: Serving section of each matrix configuration — every policy is built
#: through the shared spec factory (`repro.config.factory.wrap_policy`),
#: the same wrapper-selection path `CrowdsourcingSession.from_spec` and the
#: HTTP service use, so the fixture pins the spec-built policies too.
_SERVING = {
    "incremental": {},
    "async_refit": {"async_refit": True, "max_stale_answers": 0},
    "seed": {},
    "exact": {},
    "exact_async": {"async_refit": True, "max_stale_answers": 0},
}


def _build_policy(config: str, schema):
    from repro.config import ServingSpec
    from repro.config.factory import wrap_policy

    if config not in _SERVING:
        raise ValueError(f"unknown config {config!r}")
    engine = config != "seed"
    inner = TCrowdAssigner(
        schema,
        model=TCrowdModel(**SCENARIO["model_kwargs"]),
        refit_every=1,
        warm_start=config in CONFIGS,
        vectorized=engine,
        incremental=engine,
    )
    return wrap_policy(inner, ServingSpec(**_SERVING[config])), inner


def replay_session(config: str):
    """Replay the canonical session; return (decisions, final_estimates).

    ``decisions`` is the assignment sequence ``[(worker, ((row, col), ...)),
    ...]``; ``final_estimates`` maps ``"row,col"`` to the truth estimate of
    the configuration's final refit over all collected answers.
    """
    dataset = load_celebrity(seed=SCENARIO["seed"], num_rows=SCENARIO["num_rows"])
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids = pool.worker_ids()
    activities = pool.activities()
    rng = np.random.default_rng(SCENARIO["seed"])

    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        for col in range(schema.num_columns):
            answers.add_answer(worker, row, col, dataset.oracle.answer(worker, row, col, rng))

    policy, inner = _build_policy(config, schema)
    extra = int(
        round((SCENARIO["target_answers_per_task"] - 1.0) * schema.num_cells)
    )
    decisions = []
    collected = 0
    failures = 0
    while collected < extra and failures < 10 * len(worker_ids):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        batch = min(schema.num_columns, extra - collected)
        try:
            assignment = policy.select(worker, answers, k=batch)
        except AssignmentError:
            failures += 1
            continue
        failures = 0
        decisions.append((worker, assignment.cells))
        for row, col in assignment.cells:
            value = dataset.oracle.answer(worker, row, col, rng)
            answers.add_answer(worker, row, col, value)
        collected += len(assignment.cells)
        policy.observe(answers)

    if config != "incremental":
        final = policy.final_result(answers)
    else:
        # observe() refitted at the final answer count already.
        final = inner.last_result
    estimates = {
        f"{row},{col}": final.estimate(row, col)
        for row in range(schema.num_rows)
        for col in range(schema.num_columns)
    }
    return decisions, estimates


def _as_jsonable(decisions, estimates):
    return {
        "scenario": SCENARIO,
        "decisions": [
            [worker, [[int(row), int(col)] for row, col in cells]]
            for worker, cells in decisions
        ],
        "final_estimates": {
            key: value if isinstance(value, str) else float(value)
            for key, value in estimates.items()
        },
    }


def _decisions_from_fixture(payload):
    return [
        (worker, tuple((int(row), int(col)) for row, col in cells))
        for worker, cells in payload["decisions"]
    ]


@pytest.fixture(scope="module")
def golden():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"missing golden trace fixture {FIXTURE_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_trace.py --write`"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replays():
    return {config: replay_session(config) for config in CONFIGS}


@pytest.fixture(scope="module")
def cold_replays():
    return {config: replay_session(config) for config in COLD_CONFIGS}


class TestGoldenTrace:
    def test_fixture_scenario_matches_harness(self, golden):
        """A fixture generated for a different scenario must not pass silently."""
        assert golden["scenario"] == SCENARIO

    @pytest.mark.parametrize("config", CONFIGS)
    def test_assignment_sequence_matches_fixture(self, golden, replays, config):
        decisions, _ = replays[config]
        assert decisions == _decisions_from_fixture(golden), (
            f"{config} diverged from the committed golden trace; if the "
            "change is intentional, regenerate tests/fixtures/"
            "golden_trace.json with `PYTHONPATH=src python "
            "tests/test_golden_trace.py --write`"
        )

    def test_all_configurations_bit_identical(self, replays):
        """incremental and async(max_stale=0) replay one sequence."""
        reference_decisions, reference_estimates = replays["incremental"]
        for config in CONFIGS[1:]:
            decisions, estimates = replays[config]
            assert decisions == reference_decisions, config
            # Same fit chain -> bit-identical estimates, not just close ones.
            assert set(estimates) == set(reference_estimates)
            for key, value in reference_estimates.items():
                assert estimates[key] == value, (config, key)

    def test_final_estimates_match_fixture(self, golden, replays):
        _, estimates = replays["incremental"]
        recorded = golden["final_estimates"]
        assert set(estimates) == set(recorded)
        for key, value in estimates.items():
            if isinstance(value, str):
                assert value == recorded[key], key
            else:
                # Tolerant comparison: BLAS/libm differences across machines
                # may perturb the last bits of the continuous estimates even
                # though the assignment sequence is pinned exactly.
                assert float(value) == pytest.approx(
                    float(recorded[key]), rel=1e-6, abs=1e-9
                ), key


class TestColdPaths:
    def test_seed_and_engine_paths_bit_identical(self, cold_replays):
        """seed, exact and exact_async(max_stale=0) replay one sequence."""
        reference_decisions, reference_estimates = cold_replays["seed"]
        assert reference_decisions
        for config in COLD_CONFIGS[1:]:
            decisions, estimates = cold_replays[config]
            assert decisions == reference_decisions, config
            assert estimates == reference_estimates, config


def _write_fixture() -> int:
    decisions, estimates = replay_session("incremental")
    for config in CONFIGS[1:]:
        other_decisions, other_estimates = replay_session(config)
        if other_decisions != decisions or other_estimates != estimates:
            print(f"FAIL: {config} does not replay the incremental sequence",
                  file=sys.stderr)
            return 1
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(_as_jsonable(decisions, estimates), indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE_PATH} ({len(decisions)} decisions)")
    return 0


if __name__ == "__main__":
    if "--write" in sys.argv:
        raise SystemExit(_write_fixture())
    print(__doc__)
    raise SystemExit(2)
