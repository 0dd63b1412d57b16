"""CI smoke test of the crowd-serving HTTP service.

Starts ``python -m repro.service --port 0`` as a real subprocess, drives a
scripted session over HTTP (create session from a **v1 SessionSpec body**
→ seed answers → select/ingest loop → estimates → ``GET .../config``),
checks that back-to-back ``GET .../estimates`` send the same raw bytes and
that one more answer shows in the next body, scrapes ``/metrics``, asserts
a body without ``version`` is a strict 400 naming the missing field, that
retired spec fields are dropped from the served config (and a value of
theirs that would not replay is a 400 at its path), that a section which
is not an object (``"serving": false``) is a 400 at its path, and shuts
the server down cleanly (SIGINT, asserting the clean-shutdown message).
Exercises the same code path an operator would run, end to end, in a few
seconds.

With ``--rotate`` the smoke pins **bounded durability** end to end, once
per storage backend (JSONL segments and sqlite): it starts the server with
a ``--durable-root``, creates a durable session with a deliberately tiny
``rotate_every_records`` / ``keep_snapshots`` so the WAL rotates and the
GC prunes many times during the drive, restarts the server (SIGINT + a
fresh process over the same root), and asserts the recovered session
serves **bit-identical** estimates, that the on-disk file count stayed
bounded (``keep_snapshots`` + 2 WAL segments + the session manifest), and
that the session keeps serving selects after recovery.  It then stops
that server, overwrites the session's newest snapshot with ``[]`` (the
JSONL file, or the SQLite row through ``sqlite3``) and starts a third
server over the same root, which must recover the session from the older
retained snapshot, serve the estimates the second server served last and
keep assigning tasks.

With ``--audit`` the smoke pins the **decision provenance layer** end to
end: it starts the server with ``--log-json`` over a ``--durable-root``,
drives a scripted audited session, fetches every decision record over
``GET .../decisions`` (paginated *and* one by one), **recomputes the
reproducibility chain client-side** — plain ``hashlib`` over the
sorted-keys compact JSON of each record's core fields, no repro imports —
asserts it against the served ``record_hash``/``decision_chain_hash``,
checks that back-to-back reads of one page send the same raw bytes and
that ``limit=0`` is a 400, then restarts the server (SIGINT + fresh
process) and asserts the recovered session serves the identical ledger
record for record and byte for byte, and that its next select reaches
the ``/metrics`` hot-path histograms.  It then
boots a server over a copy of the committed audit-format-1 fixture
(``tests/fixtures/audit_format1/jsonl``, written before model hashes
moved to raw buffers) and asserts the upgraded server replays that ledger
with zero mismatches, that the chain recomputes client-side, and that one
more select chains onto the fixture's head.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
    PYTHONPATH=src python scripts/service_smoke.py --rotate
    PYTHONPATH=src python scripts/service_smoke.py --audit
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import SessionSpec  # noqa: E402
from repro.datasets import load_celebrity  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.registry import schema_to_dict  # noqa: E402


def start_server(*extra_args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONUNBUFFERED": "1",
        },
    )


#: Server log output (stderr, merged into our pipe) interleaves with the
#: stdout banner: plain-format lines carry the level token, ``--log-json``
#: lines are one JSON object each.  Banner readers skip both.
_LOG_MARKERS = (" DEBUG ", " INFO ", " WARNING ", " ERROR ", " CRITICAL ")


def _is_log_line(line: str) -> bool:
    return line.startswith("{") or any(marker in line for marker in _LOG_MARKERS)


def server_address(process: subprocess.Popen) -> str:
    while True:
        raw = process.stdout.readline()
        if not raw:
            raise RuntimeError("server exited before printing its banner")
        line = raw.strip()
        if not line or _is_log_line(line):
            continue
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return line.removeprefix("listening on ")


def server_address_after_recovery(
    process: subprocess.Popen,
) -> tuple:
    """Like :func:`server_address`, tolerating ``recovered session`` lines.

    A server restarted over a populated ``--durable-root`` prints one
    ``recovered session <id>`` line per session *before* the listening
    banner.  Returns ``(address, [recovered session ids])``.
    """
    recovered = []
    while True:
        raw = process.stdout.readline()
        if not raw:
            raise RuntimeError("server exited before printing its banner")
        line = raw.strip()
        if not line or _is_log_line(line):
            continue
        if line.startswith("recovered session "):
            recovered.append(line.removeprefix("recovered session "))
            continue
        if line.startswith("listening on "):
            return line.removeprefix("listening on "), recovered
        raise RuntimeError(f"unexpected server banner: {line!r}")


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGINT)
    remaining, _ = process.communicate(timeout=30)
    if "shut down cleanly" not in remaining:
        raise RuntimeError(f"no clean shutdown message in: {remaining!r}")


def drive_scripted_session(
    client, session_id: str, dataset, extra: int
) -> list:
    """Seed answers + select/ingest loop with a fixed RNG script.

    Returns the assignment trace ``[(worker, cells, gains), ...]``.  Two
    sessions driven by this function see the identical worker arrivals and
    oracle answers, so their traces are comparable bit for bit.
    """
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(7)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        client.post_answers(
            session_id,
            worker,
            [
                (row, col, dataset.oracle.answer(worker, row, col, rng))
                for col in range(schema.num_columns)
            ],
        )
    trace = []
    collected = failures = 0
    while collected < extra and failures < 50:
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        status, body = client.get_tasks(
            session_id, worker, k=min(schema.num_columns, extra - collected)
        )
        if status == 409:
            failures += 1
            continue
        assert status == 200, (status, body)
        failures = 0
        trace.append((worker, body["cells"], body["gains"]))
        client.post_answers(
            session_id,
            worker,
            [
                (row, col, dataset.oracle.answer(worker, row, col, rng))
                for row, col in body["cells"]
            ],
        )
        collected += len(body["cells"])
    return trace


def rotate_backend_pass(backend: str, root: pathlib.Path) -> None:
    """Pin bounded durability for one storage backend, over a real restart."""
    # Snapshots must be cut a few times per segment for the GC cover (the
    # oldest retained snapshot) to stay within one segment of the tail —
    # that is what keeps the sealed-segment count at <= 1 + the active one.
    rotate_every, keep_snapshots, snapshot_every = 12, 2, 10
    max_segments = 2 if backend == "jsonl" else 1
    # Snapshots + live WAL segments + the session.json manifest.
    file_bound = keep_snapshots + 2 + 1

    process = start_server("--durable-root", str(root))
    try:
        address = server_address(process)
        print(f"[{backend}] server up at {address}")
        client = ServiceClient(address, timeout=60.0)

        dataset = load_celebrity(seed=7, num_rows=24)
        schema = dataset.schema
        spec = (
            SessionSpec.builder()
            .model(max_iterations=4, m_step_iterations=8)
            .policy(refit_every=1)
            .durable(
                None,
                snapshot_every_answers=snapshot_every,
                wal_fsync=False,
                backend=backend,
                rotate_every_records=rotate_every,
                keep_snapshots=keep_snapshots,
            )
            .build()
        )
        session = client.create_session(
            {"schema": schema_to_dict(schema), "durable": True, **spec.to_dict()}
        )
        session_id = session["session_id"]
        assert session["durability_backend"] == backend, session
        print(f"[{backend}] durable session {session_id} created")

        trace = drive_scripted_session(
            client, session_id, dataset, extra=int(round(0.4 * schema.num_cells))
        )
        assert trace, "durable session served no assignments"
        answers_posted = schema.num_rows * schema.num_columns + sum(
            len(cells) for _, cells, _ in trace
        )
        assert answers_posted >= 10 * rotate_every, answers_posted

        before = client.get_estimates(session_id)
        status, stats = client.request("GET", f"/sessions/{session_id}")
        assert status == 200, (status, stats)
        assert stats["wal_records"] >= 3 * rotate_every, stats
        assert stats["wal_segments"] <= max_segments, stats
        assert stats["snapshots_retained"] <= keep_snapshots, stats
        files = [p for p in (root / session_id).rglob("*") if p.is_file()]
        assert len(files) <= file_bound, sorted(p.name for p in files)
        print(
            f"[{backend}] disk bounded after {answers_posted} answers / "
            f"{stats['wal_records']} WAL records: {len(files)} files <= "
            f"{file_bound}, {stats['wal_segments']} segment(s), "
            f"{stats['snapshots_retained']} snapshot(s)"
        )

        stop_server(process)
        print(f"[{backend}] clean shutdown OK")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    # A fresh server process over the same root must recover the session
    # from the rotated, GC'd log and keep serving.
    process = start_server("--durable-root", str(root))
    try:
        address, recovered = server_address_after_recovery(process)
        assert session_id in recovered, (session_id, recovered)
        print(f"[{backend}] restarted server recovered {session_id}")
        client = ServiceClient(address, timeout=60.0)

        after = client.get_estimates(session_id)
        assert after["estimates"] == before["estimates"], (
            "estimates diverged across the restart"
        )
        print(
            f"[{backend}] recovery bit-identical: "
            f"{len(after['estimates'])} estimates match pre-restart"
        )

        assign_one_batch(client, session_id, dataset, seed=11)
        status, stats = client.request("GET", f"/sessions/{session_id}")
        assert status == 200 and stats["wal_segments"] <= max_segments, stats
        print(f"[{backend}] recovered session still serving")
        last = client.get_estimates(session_id)

        stop_server(process)
        print(f"[{backend}] clean shutdown OK")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    # An unreadable newest snapshot must not stop the next start: recovery
    # skips it and replays from the older retained one (keep_snapshots = 2
    # keeps it and the WAL tail it needs on disk).
    retained = overwrite_newest_snapshot(root / session_id, backend, "[]")
    assert retained >= 2, retained
    print(f"[{backend}] newest of {retained} snapshots overwritten with []")
    process = start_server("--durable-root", str(root))
    try:
        address, recovered = server_address_after_recovery(process)
        assert session_id in recovered, (session_id, recovered)
        client = ServiceClient(address, timeout=60.0)
        after = client.get_estimates(session_id)
        assert after["estimates"] == last["estimates"], (
            "estimates diverged after the fallback to the older snapshot"
        )
        assign_one_batch(client, session_id, dataset, seed=13)
        print(
            f"[{backend}] third server recovered {session_id} from the older "
            f"snapshot: {len(after['estimates'])} estimates match, still serving"
        )

        stop_server(process)
        print(f"[{backend}] clean shutdown OK")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def assign_one_batch(client, session_id: str, dataset, seed: int) -> None:
    """Take one task batch for some worker and post its answers."""
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    rng = np.random.default_rng(seed)
    for _ in range(50):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        status, body = client.get_tasks(session_id, worker, k=3)
        if status == 409:
            continue
        assert status == 200, (status, body)
        client.post_answers(
            session_id,
            worker,
            [
                (row, col, dataset.oracle.answer(worker, row, col, rng))
                for row, col in body["cells"]
            ],
        )
        return
    raise AssertionError("recovered session served no assignment")


def overwrite_newest_snapshot(
    directory: pathlib.Path, backend: str, payload: str
) -> int:
    """Replace the newest snapshot's JSON with ``payload``; return how many
    snapshots the directory holds."""
    if backend == "sqlite":
        with contextlib.closing(
            sqlite3.connect(directory / "durable.sqlite3")
        ) as conn, conn:
            conn.execute(
                "UPDATE snapshots SET payload = ? "
                "WHERE epoch = (SELECT MAX(epoch) FROM snapshots)",
                (payload,),
            )
            return conn.execute("SELECT COUNT(*) FROM snapshots").fetchone()[0]
    paths = sorted((directory / "snapshots").glob("snapshot-*.json"))
    paths[-1].write_text(payload, encoding="utf-8")
    return len(paths)


# The hash-covered core of a decision record, restated here on purpose:
# the audit smoke recomputes the chain as an *external* client would — raw
# hashlib + json over the served payloads, no repro.engine imports.
AUDIT_CORE_FIELDS = (
    "decision_id", "worker", "k", "cells", "gains", "epoch",
    "answers_seen", "answers_total", "staleness", "candidates",
    "model_hash", "prev_hash",
)
AUDIT_GENESIS = "0" * 64


def recompute_chain_client_side(records: list) -> str:
    """Re-derive every ``record_hash`` and the chain head from raw JSON."""
    prev = AUDIT_GENESIS
    for n, record in enumerate(records):
        assert record["decision_id"] == n, (n, record)
        assert record["prev_hash"] == prev, (n, record["prev_hash"], prev)
        core = {name: record[name] for name in AUDIT_CORE_FIELDS}
        digest = hashlib.sha256(
            json.dumps(core, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        assert digest == record["record_hash"], (
            f"client-side recompute of decision {n} disagrees with the "
            f"served record_hash: {digest} != {record['record_hash']}"
        )
        prev = digest
    return prev


def fetch_full_ledger(client, session_id: str) -> list:
    """Every decision record, via the paginated listing *and* one by one."""
    records, since = [], 0
    while True:
        page = client._expect(
            "GET", f"/sessions/{session_id}/decisions?since={since}&limit=2"
        )
        records.extend(page["decisions"])
        if page["next_since"] is None:
            assert len(records) == page["total"], (len(records), page["total"])
            break
        since = page["next_since"]
    for record in records:
        single = client._expect(
            "GET", f"/sessions/{session_id}/decisions/{record['decision_id']}"
        )
        assert single.pop("session_id") == session_id, single
        assert single == record, (
            f"decision {record['decision_id']} differs between the listing "
            "and the single-record endpoint"
        )
    return records


def fetch_ledger_bytes(client, session_id: str) -> bytes:
    """The first ledger page's raw bytes, which back-to-back reads must
    repeat (each record's text is kept once encoded); an empty page, which
    would hand back its own ``since`` forever, is a 400."""
    path = f"/sessions/{session_id}/decisions?since=0&limit=100"
    first, second = (client.request_raw("GET", path) for _ in range(2))
    assert first[0] == second[0] == 200, (first[0], second[0])
    assert first[1] == second[1], "back-to-back GET /decisions bodies differ"
    status, body = client.request(
        "GET", f"/sessions/{session_id}/decisions?since=0&limit=0"
    )
    assert status == 400, (status, body)
    return first[1]


def audit_main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-audit-smoke-") as tmp:
        root = pathlib.Path(tmp)
        process = start_server(
            "--durable-root", str(root), "--log-json", "--log-level", "INFO"
        )
        try:
            address, _ = server_address_after_recovery(process)
            print(f"server up at {address}")
            client = ServiceClient(address, timeout=60.0)

            dataset = load_celebrity(seed=7, num_rows=8)
            schema = dataset.schema
            spec = (
                SessionSpec.builder()
                .model(max_iterations=4, m_step_iterations=8)
                .policy(refit_every=1)
                .durable(None, snapshot_every_answers=20, wal_fsync=False)
                .build()
            )
            session = client.create_session(
                {"schema": schema_to_dict(schema), "durable": True,
                 **spec.to_dict()}
            )
            session_id = session["session_id"]
            print(f"audited durable session {session_id} created")

            trace = drive_scripted_session(
                client, session_id, dataset,
                extra=int(round(0.4 * schema.num_cells)),
            )
            assert trace, "audited session served no assignments"

            records = fetch_full_ledger(client, session_id)
            assert len(records) == len(trace), (len(records), len(trace))
            head = recompute_chain_client_side(records)
            status, stats = client.request("GET", f"/sessions/{session_id}")
            assert status == 200, (status, stats)
            assert stats["decisions_recorded"] == len(records), stats
            assert stats["decision_chain_hash"] == head, (
                "client-side chain head disagrees with the served stats"
            )
            print(
                f"client-side chain recompute OK: {len(records)} records, "
                f"head {head[:12]}…"
            )
            ledger_bytes = fetch_ledger_bytes(client, session_id)
            print(f"ledger page served as the same {len(ledger_bytes)} bytes twice")

            metrics = client.get_metrics()
            assert "# TYPE repro_decisions_recorded gauge" in metrics, metrics
            assert f"repro_decisions_recorded {len(records)}" in metrics, (
                "repro_decisions_recorded missing from /metrics"
            )
            # Chain heads stay out of /metrics (one series per head would
            # grow without bound); the stats JSON above serves them.
            assert head not in metrics, "a chain head leaked into /metrics"
            print("audit metrics scrape OK")

            stop_server(process)
            print("clean shutdown OK")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        # A fresh server over the same root must recover the session and
        # serve the identical ledger — the WAL replay re-derived every
        # record and verified it against the logged hash on the way up.
        process = start_server(
            "--durable-root", str(root), "--log-json", "--log-level", "INFO"
        )
        try:
            address, recovered = server_address_after_recovery(process)
            assert session_id in recovered, (session_id, recovered)
            client = ServiceClient(address, timeout=60.0)

            after = fetch_full_ledger(client, session_id)
            assert after == records, (
                "decision ledger differs across the restart"
            )
            assert fetch_ledger_bytes(client, session_id) == ledger_bytes, (
                "ledger page bytes differ across the restart"
            )
            status, stats = client.request("GET", f"/sessions/{session_id}")
            assert status == 200, (status, stats)
            assert stats["decision_chain_hash"] == head, stats
            # A clean shutdown cut a final snapshot, so recovery restores
            # the ledger from the snapshot's embedded audit state; records
            # past the newest snapshot (a crash) would be replay-verified.
            assert stats["audit_replay_mismatches"] == 0, stats
            print(
                f"recovery ledger identical: {len(after)} records, "
                f"{stats['audit_replay_verified']} replay-verified, "
                "0 mismatches"
            )

            # The recovered session keeps appending to the same chain.
            pool = dataset.worker_pool
            worker_ids, activities = pool.worker_ids(), pool.activities()
            rng = np.random.default_rng(11)
            for _ in range(50):
                worker = worker_ids[
                    int(rng.choice(len(worker_ids), p=activities))
                ]
                status, body = client.get_tasks(session_id, worker, k=2)
                if status == 409:
                    continue
                assert status == 200, (status, body)
                break
            else:
                raise AssertionError("recovered session served no assignment")
            grown = fetch_full_ledger(client, session_id)
            assert len(grown) == len(records) + 1, (len(grown), len(records))
            assert grown[: len(records)] == records
            recompute_chain_client_side(grown)
            print("post-recovery decision extends the same chain")

            # This server holds only the recovered session, so its select
            # is what the hot-path histograms counted.
            prefix = 'repro_hotpath_stage_seconds_count{stage="gains_batch"} '
            counts = [
                int(line[len(prefix):])
                for line in client.get_metrics().splitlines()
                if line.startswith(prefix)
            ]
            assert counts and counts[0] >= 1, (
                "the recovered session's select reported no hot-path stages"
            )
            print("recovered session reports hot-path stages")

            stop_server(process)
            print("clean shutdown OK")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
    audit_format1_fixture_pass()
    print("decision-audit smoke OK")
    return 0


#: A jsonl durable root written at audit format 1 (see the generator
#: script next to it): one session, three decisions, the last three in the
#: WAL tail past the snapshot.
FORMAT1_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "audit_format1" / "jsonl"


def audit_format1_fixture_pass() -> None:
    """Boot over a copy of the format-1 fixture and extend its ledger."""
    expected = json.loads((FORMAT1_FIXTURE / "expected.json").read_text())
    session_id = expected["session_id"]
    with tempfile.TemporaryDirectory(prefix="repro-audit-format1-") as tmp:
        root = pathlib.Path(tmp) / "root"
        shutil.copytree(FORMAT1_FIXTURE / session_id, root / session_id)
        process = start_server(
            "--durable-root", str(root), "--log-json", "--log-level", "INFO"
        )
        try:
            address, recovered = server_address_after_recovery(process)
            assert recovered == [session_id], recovered
            client = ServiceClient(address, timeout=60.0)
            status, stats = client.request("GET", f"/sessions/{session_id}")
            assert status == 200, (status, stats)
            assert stats["audit_replay_mismatches"] == 0, stats
            assert stats["audit_replay_verified"] > 0, stats
            records = fetch_full_ledger(client, session_id)
            assert len(records) == expected["decisions"], len(records)
            head = recompute_chain_client_side(records)
            assert head == expected["chain_head"] == stats["decision_chain_hash"]
            status, body = client.get_tasks(session_id, "w002", k=2)
            assert status == 200, (status, body)
            grown = fetch_full_ledger(client, session_id)
            assert grown[:-1] == records and grown[-1]["prev_hash"] == head
            recompute_chain_client_side(grown)
            print(
                f"format-1 fixture recovered: {stats['audit_replay_verified']} "
                "replay-verified, 0 mismatches, one more select chained"
            )
            stop_server(process)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def rotate_main() -> int:
    for backend in ("jsonl", "sqlite"):
        with tempfile.TemporaryDirectory(
            prefix=f"repro-rotate-{backend}-"
        ) as tmp:
            rotate_backend_pass(backend, pathlib.Path(tmp))
    print("rotation + GC smoke OK (jsonl + sqlite)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rotate",
        action="store_true",
        help="run the bounded-durability smoke instead: durable sessions "
        "with tiny rotate_every_records/keep_snapshots on both storage "
        "backends, a server restart, bit-identical recovery and a bounded "
        "on-disk file count",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the decision-provenance smoke instead: an audited durable "
        "session, every decision fetched over HTTP, the reproducibility "
        "chain recomputed client-side, and a server restart serving the "
        "identical ledger",
    )
    args = parser.parse_args()
    if args.audit:
        return audit_main()
    if args.rotate:
        return rotate_main()
    process = start_server()
    try:
        address = server_address(process)
        print(f"server up at {address}")
        client = ServiceClient(address, timeout=30.0)

        health = client.healthz()
        assert health["status"] == "ok", health

        dataset = load_celebrity(seed=7, num_rows=8)
        schema = dataset.schema
        pool = dataset.worker_pool
        worker_ids, activities = pool.worker_ids(), pool.activities()
        rng = np.random.default_rng(7)
        spec = (
            SessionSpec.builder()
            .model(max_iterations=4, m_step_iterations=8)
            .policy(refit_every=1)
            .async_refit(max_stale=0)
            .build()
        )
        session = client.create_session(
            {"schema": schema_to_dict(schema), **spec.to_dict()}
        )
        session_id = session["session_id"]
        print(f"session {session_id} created ({session['policy']})")

        # The canonical spec must be served back verbatim.
        status, config = client.request("GET", f"/sessions/{session_id}/config")
        assert status == 200, (status, config)
        assert SessionSpec.from_dict(
            {k: v for k, v in config.items() if k not in ("schema", "session_id")}
        ) == spec, config
        print("config round-trip OK")

        for row in range(schema.num_rows):
            worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
            client.post_answers(
                session_id,
                worker,
                [
                    (row, col, dataset.oracle.answer(worker, row, col, rng))
                    for col in range(schema.num_columns)
                ],
            )
        extra = int(round(0.4 * schema.num_cells))
        collected = failures = 0
        while collected < extra and failures < 50:
            worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
            status, body = client.get_tasks(
                session_id, worker, k=min(schema.num_columns, extra - collected)
            )
            if status == 409:
                failures += 1
                continue
            assert status == 200, (status, body)
            failures = 0
            client.post_answers(
                session_id,
                worker,
                [
                    (row, col, dataset.oracle.answer(worker, row, col, rng))
                    for row, col in body["cells"]
                ],
            )
            collected += len(body["cells"])
        print(f"collected {collected} answers over HTTP")

        estimates = client.get_estimates(session_id)
        assert len(estimates["estimates"]) == schema.num_cells, estimates

        # A caught-up read is served from the session's cached body: the
        # same raw bytes twice in a row, until one more answer arrives.
        path = f"/sessions/{session_id}/estimates"
        first, second = (client.request_raw("GET", path) for _ in range(2))
        assert first[0] == second[0] == 200, (first[0], second[0])
        assert first[1] == second[1], "back-to-back GET /estimates bodies differ"
        row, col = divmod(int(rng.integers(schema.num_cells)), schema.num_columns)
        worker = worker_ids[0]
        client.post_answers(
            session_id, worker, [(row, col, dataset.oracle.answer(worker, row, col, rng))]
        )
        status, after = client.request_raw("GET", path)
        assert status == 200, (status, after)
        collected = json.loads(after)["answers_collected"]
        assert collected == estimates["answers_collected"] + 1, collected
        print(f"cached estimates OK ({len(first[1])} bytes, then {collected} answers)")

        # The session resource shows the served fit: after the first (cold)
        # fit every refit is warm and runs the two-iteration warm budget.
        status, stats = client.request("GET", f"/sessions/{session_id}")
        assert status == 200, (status, stats)
        model = stats["model"]
        assert model["iterations_run"] <= 2, model
        assert model["answers_seen"] <= stats["answers_collected"], (model, stats)
        print(
            f"served model OK ({model['iterations_run']} EM iterations over "
            f"{model['answers_seen']} answers, stopped by {model['stopped_by']})"
        )

        # A body without "version" (the retired pre-spec dialect) is a
        # strict 400 naming the missing field, not a silent upgrade.
        status, body = client.request(
            "POST",
            "/sessions",
            {
                "schema": schema_to_dict(schema),
                "policy": {
                    "refit_every": 1,
                    "model": {"max_iterations": 4, "m_step_iterations": 8},
                },
                "serving": {"async_refit": True, "max_stale_answers": 0},
            },
        )
        assert status == 400 and body.get("path") == "version", (status, body)
        print("version-less body rejected OK")

        # Retired fields at values that replay as written are accepted and
        # dropped; a value that does not replay is a 400 at its path.
        retired = client.create_session({
            "version": 1,
            "schema": schema_to_dict(schema),
            "policy": {
                "vectorized": True, "incremental": True,
                "continuous_samples": 0, "seed": None,
                "model": {"max_iterations": 4, "m_step_iterations": 8, "seed": None},
            },
            "serving": {"refit_tol": 1e-9},
        })
        status, config = client.request(
            "GET", f"/sessions/{retired['session_id']}/config"
        )
        assert status == 200, (status, config)
        for section, key in (
            ("policy", "vectorized"), ("policy", "incremental"),
            ("policy", "continuous_samples"), ("policy", "seed"),
            ("serving", "refit_tol"),
        ):
            assert key not in config[section], (section, key, config)
        assert "seed" not in config["policy"]["model"], config
        client.delete_session(retired["session_id"])
        status, body = client.request(
            "POST", "/sessions",
            {"version": 1, "schema": schema_to_dict(schema),
             "policy": {"vectorized": False}},
        )
        assert status == 400 and body.get("path") == "policy.vectorized", (status, body)
        print("retired fields dropped, non-replayable value rejected OK")

        # Only an absent or null section means its defaults: a falsy value
        # that is not an object is a 400 at the section's path.
        status, body = client.request(
            "POST", "/sessions",
            {"version": 1, "schema": schema_to_dict(schema), "serving": False},
        )
        assert status == 400 and body.get("path") == "serving", (status, body)
        print("non-object section rejected OK")

        metrics = client.get_metrics()
        for needle in (
            "repro_service_sessions_active 1",
            "repro_service_selects_served_total",
            "repro_service_answers_ingested_total",
        ):
            assert needle in metrics, f"{needle!r} missing from /metrics"
        print("metrics scrape OK")

        process.send_signal(signal.SIGINT)
        remaining, _ = process.communicate(timeout=30)
        if "shut down cleanly" not in remaining:
            raise RuntimeError(f"no clean shutdown message in: {remaining!r}")
        print("clean shutdown OK")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
