"""Scripted durable sessions: the drivers behind the equivalence tests.

One scripted crowd (the golden-trace scenario by default) is driven
through a :class:`~repro.service.wal.DurableSession`.  The ``run_*`` and
``continue_*`` drivers run it whole, crash it mid-run or restart it in
place; the ``verify_*`` checks compare a crashed-and-recovered run with an
uninterrupted one **bit for bit**:

* :func:`verify_recovery_identical` — crash, tear the write-ahead log's
  tail, recover into a fresh policy and continue: the full assignment
  sequence and the final truth estimates must match the uninterrupted run
  (``recovery_identical``);
* :func:`verify_recovery_rotation` — the same with WAL rotation and
  snapshot GC on, plus a bound on the files left on disk;
* :func:`verify_audit_replay` — the recovered decision ledger must equal
  the pre-crash one (``audit_replay_identical``).

The drivers share one deterministic replay trick: the scripted crowd is a
seeded RNG, so the continuation of a recovered session *fast-forwards* the
RNG by re-drawing every variate the crashed run already consumed — the
logged events say exactly which draws those were (and double-check the
redraws match what was logged).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import SessionSpec
from repro.config.factory import build_policy
from repro.datasets import load_celebrity
from repro.engine.provenance import MAX_PAGE_LIMIT
from repro.service.wal import DurableSession, durable_summary
from repro.utils.exceptions import AssignmentError, DurabilityError

Cell = Tuple[int, int]

#: The golden-trace scenario (tests/fixtures/golden_trace.json) — small
#: enough to replay in seconds, rich enough to hit every code path.
DEFAULT_SCENARIO = {
    "seed": 7,
    "num_rows": 12,
    "target_answers_per_task": 1.5,
    "model_kwargs": {"max_iterations": 6, "m_step_iterations": 10},
}

#: Serving-mode keys whose decisions are identical, one per
#: :func:`~repro.config.factory.wrap_policy` outcome.
SERVING_MODES = ("plain", "async")

#: Staleness bound of the ``"bounded"`` mode.  It serves stale snapshots,
#: so it takes other decisions than :data:`SERVING_MODES` and is kept out
#: of that tuple; it must still replay exactly.
BOUNDED_STALENESS = 12


def _serving_config(mode: str) -> dict:
    if mode == "plain":
        return {}
    if mode == "async":
        return {"async_refit": True, "max_stale_answers": 0}
    if mode == "bounded":
        return {"async_refit": True, "max_stale_answers": BOUNDED_STALENESS}
    raise ValueError(
        f"Unknown serving mode {mode!r}; expected {SERVING_MODES} or 'bounded'"
    )


def staleness_profile(recorder) -> Dict[str, int]:
    """How stale the served models were, read off a decision ledger.

    ``max_staleness`` is the largest number of answers a decision's model
    had not seen; ``refits_after_first`` counts the later model states
    (the ledger's audit epoch advances whenever ``answers_seen`` changes).
    A bounded-staleness run must show both above 0, or it silently
    degenerated into bound 0 (or never refitted).
    """
    records = recorder.page(0, MAX_PAGE_LIMIT)
    return {
        "max_staleness": max((r.staleness for r in records), default=0),
        "refits_after_first": max((r.epoch for r in records), default=0),
    }


def scripted_spec(mode: str, scenario: dict, audit: bool = True) -> SessionSpec:
    """The :class:`~repro.config.SessionSpec` of one scripted serving mode.

    The scenario's ``seed`` is recorded in the spec's simulation section so
    the spec document pins the exact replayable run.
    An optional ``scenario["strategy"]`` (a name or a
    :class:`~repro.config.StrategySpec`-shaped dict) selects the assignment
    strategy every serving mode then serves.
    """
    builder = (
        SessionSpec.builder()
        .model(**scenario["model_kwargs"])
        .policy(refit_every=1, warm_start=True)
        .simulation(
            seed=scenario.get("seed", DEFAULT_SCENARIO["seed"]),
            target_answers_per_task=scenario.get(
                "target_answers_per_task",
                DEFAULT_SCENARIO["target_answers_per_task"],
            ),
        )
        .serving(audit=audit, **_serving_config(mode))
    )
    strategy = scenario.get("strategy")
    if strategy is not None:
        if isinstance(strategy, str):
            builder.strategy(strategy)
        else:
            builder.strategy(**strategy)
    return builder.build()


def _build_scripted_policy(schema, mode: str, scenario: dict, audit: bool = True):
    return build_policy(schema, scripted_spec(mode, scenario, audit=audit))


def _extra_answers(schema, scenario: dict) -> int:
    return int(
        round((scenario["target_answers_per_task"] - 1.0) * schema.num_cells)
    )


# -- scripted durable sessions -------------------------------------------------


def run_scripted_session(
    mode: str = "plain",
    directory=None,
    crash_after_steps: Optional[int] = None,
    snapshot_every: int = 25,
    scenario: Optional[dict] = None,
    backend: str = "jsonl",
    rotate_every_records: Optional[int] = None,
    keep_snapshots: Optional[int] = None,
    audit: bool = True,
) -> Dict[str, object]:
    """Run the scripted scenario through a :class:`DurableSession`.

    ``crash_after_steps`` stops mid-run *without closing anything* —
    simulating a killed process (the WAL is flushed per event, so the disk
    state is what a crash would leave behind).  Returns the decisions taken,
    the final estimates (``None`` when crashed) and the session object.
    """
    scenario = {**DEFAULT_SCENARIO, **(scenario or {})}
    dataset = load_celebrity(seed=scenario["seed"], num_rows=scenario["num_rows"])
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(scenario["seed"])
    policy = _build_scripted_policy(schema, mode, scenario, audit=audit)
    session = DurableSession(
        schema,
        policy,
        directory=directory,
        snapshot_every=snapshot_every,
        backend=backend,
        rotate_every_records=rotate_every_records,
        keep_snapshots=keep_snapshots,
    )

    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        items = [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for col in range(schema.num_columns)
        ]
        session.append_answers(worker, items, observe=False)

    extra = _extra_answers(schema, scenario)
    decisions: List[Tuple[str, Tuple[Cell, ...]]] = []
    collected = steps = failures = 0
    crashed = False
    while collected < extra and failures < 10 * len(worker_ids):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        batch = min(schema.num_columns, extra - collected)
        try:
            assignment = session.select(worker, k=batch)
        except AssignmentError:
            failures += 1
            continue
        failures = 0
        items = [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for row, col in assignment.cells
        ]
        session.append_answers(worker, items)
        decisions.append((worker, assignment.cells))
        collected += len(items)
        steps += 1
        if crash_after_steps is not None and steps >= crash_after_steps:
            crashed = True
            break

    estimates = None
    if not crashed:
        result = session.estimates()
        estimates = {
            (row, col): result.estimate(row, col)
            for row in range(schema.num_rows)
            for col in range(schema.num_columns)
        }
        session.close()
    return {
        "decisions": decisions,
        "estimates": estimates,
        "session": session,
        "crashed": crashed,
    }


def continue_scripted_session(
    mode: str = "plain",
    directory=None,
    snapshot_every: int = 25,
    scenario: Optional[dict] = None,
    backend: str = "jsonl",
    rotate_every_records: Optional[int] = None,
    keep_snapshots: Optional[int] = None,
) -> Dict[str, object]:
    """Recover a crashed scripted session and drive it to completion.

    The recovered prefix (decisions reconstructed from the log) plus the
    live continuation must reproduce an uninterrupted run exactly; the RNG
    is fast-forwarded by re-drawing every variate the crashed run consumed,
    asserting each redraw against the logged value.  Fast-forwarding needs
    the *whole* event history, so this driver requires an unpruned log —
    use :func:`verify_recovery_rotation` when snapshot GC is on.
    """
    scenario = {**DEFAULT_SCENARIO, **(scenario or {})}
    dataset = load_celebrity(seed=scenario["seed"], num_rows=scenario["num_rows"])
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(scenario["seed"])
    policy = _build_scripted_policy(schema, mode, scenario)
    session = DurableSession(
        schema,
        policy,
        directory=directory,
        snapshot_every=snapshot_every,
        backend=backend,
        rotate_every_records=rotate_every_records,
        keep_snapshots=keep_snapshots,
    )

    decisions: List[Tuple[str, Tuple[Cell, ...]]] = []
    collected = 0
    for record in session.events:
        kind = record.get("t")
        if kind == "select":
            worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
            if worker != record["w"]:
                raise DurabilityError(
                    "RNG fast-forward diverged from the logged select "
                    f"({worker!r} != {record['w']!r}); the WAL was not "
                    "produced by this scenario"
                )
        elif kind == "answers":
            worker = record["w"]
            if record.get("o", True):
                decisions.append(
                    (
                        worker,
                        tuple((int(r), int(c)) for r, c, _v in record["a"]),
                    )
                )
                collected += len(record["a"])
            else:
                # Seed batches drew their worker before their values.
                drawn = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
                if drawn != worker:
                    raise DurabilityError(
                        "RNG fast-forward diverged from the logged seed batch"
                    )
            for row, col, value in record["a"]:
                redrawn = dataset.oracle.answer(worker, int(row), int(col), rng)
                if redrawn != value and float(redrawn) != float(value):
                    raise DurabilityError(
                        "RNG fast-forward diverged from a logged answer value"
                    )

    extra = _extra_answers(schema, scenario)
    failures = 0
    pending = session.dangling_select()
    while collected < extra and failures < 10 * len(worker_ids):
        if pending is not None:
            # The crash lost the answers of an already-logged select: the
            # replay restored its refit, so re-issue it for the same worker
            # instead of drawing a new one.
            worker, batch = pending
            pending = None
        else:
            worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
            batch = min(schema.num_columns, extra - collected)
        batch = min(batch, extra - collected)
        try:
            assignment = session.select(worker, k=batch)
        except AssignmentError:
            failures += 1
            continue
        failures = 0
        items = [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for row, col in assignment.cells
        ]
        session.append_answers(worker, items)
        decisions.append((worker, assignment.cells))
        collected += len(items)

    result = session.estimates()
    estimates = {
        (row, col): result.estimate(row, col)
        for row in range(schema.num_rows)
        for col in range(schema.num_columns)
    }
    session.close()
    return {
        "decisions": decisions,
        "estimates": estimates,
        "session": session,
        "replayed_records": session.replayed_records,
        "recovered_epoch": session.recovered_epoch,
    }


def _abandon_session(session: DurableSession) -> None:
    """Simulate a process kill: release file handles, never snapshot."""
    if session._storage is not None:
        session._storage.close()


def _newest_wal_segment(directory):
    """The JSONL segment file a torn write would land in (``None`` if none)."""
    import pathlib

    directory = pathlib.Path(directory)
    segments = sorted(directory.glob("wal-*.jsonl"))
    if segments:
        return segments[-1]
    legacy = directory / "wal.jsonl"
    return legacy if legacy.exists() else None


def _tear_wal_tail(directory, backend: str, truncate_bytes: int) -> int:
    """Cut ``truncate_bytes`` off the newest JSONL segment (no-op on SQLite).

    SQLite appends are transactions — a kill cannot leave a torn record, so
    there is nothing to simulate.  Returns the bytes actually removed.
    """
    if not truncate_bytes or backend == "sqlite":
        return 0
    path = _newest_wal_segment(directory)
    if path is None:
        return 0
    data = path.read_bytes()
    torn = min(int(truncate_bytes), len(data))
    path.write_bytes(data[: len(data) - torn])
    return torn


def verify_recovery_identical(
    mode: str = "plain",
    directory=None,
    crash_after_steps: int = 3,
    truncate_bytes: int = 7,
    snapshot_every: int = 25,
    scenario: Optional[dict] = None,
    backend: str = "jsonl",
    rotate_every_records: Optional[int] = None,
) -> Dict[str, object]:
    """Crash, truncate, recover, continue — and compare bit for bit.

    ``directory`` must be empty/fresh; pass a temporary directory.  Returns
    the comparison bits plus recovery diagnostics.  ``rotate_every_records``
    exercises segment rotation (the RNG fast-forward continuation needs the
    full log, so GC stays off here — :func:`verify_recovery_rotation`
    covers rotation *with* retention).
    """
    import pathlib
    import tempfile

    owns_dir = directory is None
    if owns_dir:
        directory = tempfile.mkdtemp(prefix="repro-recovery-")
    directory = pathlib.Path(directory)
    baseline = run_scripted_session(mode, scenario=scenario)
    crashed = run_scripted_session(
        mode,
        directory=directory,
        crash_after_steps=crash_after_steps,
        snapshot_every=snapshot_every,
        scenario=scenario,
        backend=backend,
        rotate_every_records=rotate_every_records,
    )
    # Simulate the kill: drop the in-memory engine, then tear a few bytes
    # off the log tail — a write cut mid-record.
    _abandon_session(crashed["session"])
    torn = _tear_wal_tail(directory, backend, truncate_bytes)
    continued = continue_scripted_session(
        mode, directory=directory, snapshot_every=snapshot_every,
        scenario=scenario, backend=backend,
        rotate_every_records=rotate_every_records,
    )
    decisions_identical = continued["decisions"] == baseline["decisions"]
    estimates_identical = continued["estimates"] == baseline["estimates"]
    summary = {
        "recovery_mode": mode,
        "recovery_backend": backend,
        "recovery_identical": bool(decisions_identical and estimates_identical),
        "recovery_decisions_identical": bool(decisions_identical),
        "recovery_estimates_identical": bool(estimates_identical),
        "recovery_steps_before_crash": int(crash_after_steps),
        "recovery_truncated_bytes": int(torn),
        "recovery_replayed_records": continued["replayed_records"],
        "recovery_snapshot_epoch": continued["recovered_epoch"],
        "recovery_total_steps": len(baseline["decisions"]),
        **{
            f"recovery_{key}": value
            for key, value in staleness_profile(baseline["session"].recorder).items()
        },
    }
    if owns_dir:
        import shutil

        shutil.rmtree(directory, ignore_errors=True)
    return summary


def run_scripted_session_restarting(
    mode: str = "plain",
    directory=None,
    restart_after_steps: int = 4,
    snapshot_every: int = 6,
    scenario: Optional[dict] = None,
    backend: str = "jsonl",
    rotate_every_records: Optional[int] = None,
    keep_snapshots: Optional[int] = None,
    truncate_bytes: int = 0,
) -> Dict[str, object]:
    """The scripted scenario with a mid-run crash + in-place recovery.

    Unlike :func:`continue_scripted_session` (which fast-forwards a fresh
    RNG over the whole log, impossible once GC pruned the prefix), this
    driver keeps its **live** RNG across the restart — exactly the server
    restart scenario: the crowd out there doesn't rewind, only the serving
    process is rebuilt from disk.  If the torn tail lost the answer batch
    of an already-acknowledged step, the driver re-posts it (a real client
    whose POST never got its 200 would retry).
    """
    scenario = {**DEFAULT_SCENARIO, **(scenario or {})}
    dataset = load_celebrity(seed=scenario["seed"], num_rows=scenario["num_rows"])
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(scenario["seed"])
    durable_kwargs = dict(
        directory=directory,
        snapshot_every=snapshot_every,
        backend=backend,
        rotate_every_records=rotate_every_records,
        keep_snapshots=keep_snapshots,
    )
    session = DurableSession(
        schema, _build_scripted_policy(schema, mode, scenario), **durable_kwargs
    )

    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        items = [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for col in range(schema.num_columns)
        ]
        session.append_answers(worker, items, observe=False)

    extra = _extra_answers(schema, scenario)
    decisions: List[Tuple[str, Tuple[Cell, ...]]] = []
    collected = steps = failures = 0
    restarted = False
    replayed_records = 0
    recovered_epoch = None
    last_batch: Optional[Tuple[str, List[Tuple[int, int, object]]]] = None
    while collected < extra and failures < 10 * len(worker_ids):
        if not restarted and steps >= restart_after_steps:
            restarted = True
            _abandon_session(session)
            _tear_wal_tail(directory, backend, truncate_bytes)
            session = DurableSession(
                schema,
                _build_scripted_policy(schema, mode, scenario),
                **durable_kwargs,
            )
            replayed_records = session.replayed_records
            recovered_epoch = session.recovered_epoch
            pending = session.dangling_select()
            if pending is not None:
                # The torn tail lost the last acknowledged answer batch;
                # its select (and refit) replayed, so re-post the batch.
                worker, _k = pending
                if last_batch is None or last_batch[0] != worker:
                    raise DurabilityError(
                        "dangling select does not match the last driven step"
                    )
                session.append_answers(worker, last_batch[1])
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        batch = min(schema.num_columns, extra - collected)
        try:
            assignment = session.select(worker, k=batch)
        except AssignmentError:
            failures += 1
            continue
        failures = 0
        items = [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for row, col in assignment.cells
        ]
        session.append_answers(worker, items)
        last_batch = (worker, items)
        decisions.append((worker, assignment.cells))
        collected += len(items)
        steps += 1

    result = session.estimates()
    estimates = {
        (row, col): result.estimate(row, col)
        for row in range(schema.num_rows)
        for col in range(schema.num_columns)
    }
    diagnostics = {
        "decisions": decisions,
        "estimates": estimates,
        "session": session,
        "restarted": restarted,
        "replayed_records": replayed_records,
        "recovered_epoch": recovered_epoch,
        "wal_records": session.wal_records,
        "wal_segments": session.wal_segments,
        "snapshots_retained": session.snapshots_retained,
    }
    session.close()
    # Post-close on-disk state (close cuts a final snapshot + GC pass);
    # read from disk so it works after the SQLite connection is gone.
    summary = durable_summary(directory)
    diagnostics["wal_segments_closed"] = summary["wal_segments"]
    diagnostics["snapshots_retained_closed"] = summary["snapshots"]
    return diagnostics


def _durable_file_count(directory) -> int:
    """Files on disk under a durable directory (recursive)."""
    import pathlib

    return sum(1 for p in pathlib.Path(directory).rglob("*") if p.is_file())


def verify_recovery_rotation(
    mode: str = "plain",
    backend: str = "jsonl",
    directory=None,
    restart_after_steps: int = 4,
    truncate_bytes: int = 7,
    snapshot_every: int = 6,
    rotate_every_records: int = 8,
    keep_snapshots: int = 2,
    scenario: Optional[dict] = None,
) -> Dict[str, object]:
    """Crash-recovery equivalence **with rotation + snapshot GC enabled**.

    Runs the scripted scenario against a durable session whose log rotates
    every ``rotate_every_records`` records and whose store retains only
    ``keep_snapshots`` snapshots (pruned WAL prefix and all), crashes it
    mid-run — tearing the newest segment's tail for JSONL — recovers it in
    place and drives it to completion with the live RNG.  The assignment
    sequence and final estimates must match an uninterrupted, in-memory
    run bit for bit, and the on-disk footprint must stay bounded by
    ``keep_snapshots`` snapshots + 2 log segments.
    """
    import pathlib
    import shutil
    import tempfile

    owns_dir = directory is None
    if owns_dir:
        directory = tempfile.mkdtemp(prefix="repro-rotation-")
    directory = pathlib.Path(directory)
    baseline = run_scripted_session(mode, scenario=scenario)
    restarted = run_scripted_session_restarting(
        mode,
        directory=directory,
        restart_after_steps=restart_after_steps,
        snapshot_every=snapshot_every,
        scenario=scenario,
        backend=backend,
        rotate_every_records=rotate_every_records,
        keep_snapshots=keep_snapshots,
        truncate_bytes=truncate_bytes,
    )
    decisions_identical = restarted["decisions"] == baseline["decisions"]
    estimates_identical = restarted["estimates"] == baseline["estimates"]
    files = _durable_file_count(directory)
    bound = keep_snapshots + 2
    summary = {
        "rotation_mode": mode,
        "rotation_backend": backend,
        "rotation_identical": bool(decisions_identical and estimates_identical),
        "rotation_decisions_identical": bool(decisions_identical),
        "rotation_estimates_identical": bool(estimates_identical),
        "rotation_restarted": bool(restarted["restarted"]),
        "rotation_replayed_records": restarted["replayed_records"],
        "rotation_wal_records": restarted["wal_records"],
        "rotation_wal_segments": restarted["wal_segments_closed"],
        "rotation_snapshots_retained": restarted["snapshots_retained_closed"],
        "rotation_files_on_disk": files,
        "rotation_files_bound": bound,
        "rotation_disk_bounded": bool(
            files <= bound
            and restarted["wal_segments_closed"] <= 2
            and restarted["snapshots_retained_closed"] <= keep_snapshots
        ),
    }
    if owns_dir:
        shutil.rmtree(directory, ignore_errors=True)
    return summary


# -- decision-audit verification -----------------------------------------------


def verify_audit_replay(
    mode: str = "plain",
    backend: str = "jsonl",
    directory=None,
    crash_after_steps: int = 3,
    snapshot_every: int = 25,
    scenario: Optional[dict] = None,
) -> Dict[str, object]:
    """Crash an audited session, recover it, and re-verify every decision.

    Recovery replays the WAL through the live policy: each logged
    ``select`` recomputes its decision record from scratch and the logged
    ``decision`` record's hash must match bit for bit (the recorder counts
    ``replay_verified`` / ``replay_mismatches``).  On top of the per-record
    hash check, the recovered audit ledger — ids, chained hashes, lineage —
    must equal the pre-crash recorder state exactly: the
    ``audit_replay_identical`` verdict.
    """
    import pathlib
    import shutil
    import tempfile

    scenario = {**DEFAULT_SCENARIO, **(scenario or {})}
    owns_dir = directory is None
    if owns_dir:
        directory = tempfile.mkdtemp(prefix="repro-audit-")
    directory = pathlib.Path(directory)
    crashed = run_scripted_session(
        mode,
        directory=directory,
        crash_after_steps=crash_after_steps,
        snapshot_every=snapshot_every,
        scenario=scenario,
        backend=backend,
    )
    before = crashed["session"].recorder
    before_state = before.state()
    before_head = before.chain_head
    _abandon_session(crashed["session"])

    dataset = load_celebrity(seed=scenario["seed"], num_rows=scenario["num_rows"])
    policy = _build_scripted_policy(dataset.schema, mode, scenario)
    recovered = DurableSession(
        dataset.schema,
        policy,
        directory=directory,
        snapshot_every=snapshot_every,
        backend=backend,
    )
    recorder = recovered.recorder
    identical = (
        recorder.state() == before_state
        and recorder.chain_head == before_head
        and recorder.replay_mismatches == 0
    )
    summary = {
        "audit_mode": mode,
        "audit_backend": backend,
        "audit_records": int(before.count),
        "audit_replay_verified": int(recorder.replay_verified),
        "audit_replay_mismatches": int(recorder.replay_mismatches),
        "audit_chain_head": recorder.chain_head,
        "audit_replay_identical": bool(identical),
        **{f"audit_{key}": value for key, value in staleness_profile(before).items()},
    }
    _abandon_session(recovered)
    if owns_dir:
        shutil.rmtree(directory, ignore_errors=True)
    return summary
