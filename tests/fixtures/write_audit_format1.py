"""Write the audit-format-1 durable fixtures under ``tests/fixtures/audit_format1``.

The fixtures pin the upgrade path: durable directories written by a
commit whose audit ledger hashed model states with scheme 1 (canonical
JSON), before manifests recorded an ``audit_format``.  Newer code must
recover them, re-verify their ledgers at format 1 and keep chaining at
format 1.  This script therefore only runs against such a commit
(``AUDIT_FORMAT == 1``, e.g. ``5281e7d``); from the root of that
checkout::

    PYTHONPATH=src python <path to this file> <output directory>

One session per storage backend (``jsonl``, ``sqlite``): a 12-row
celebrity table seeded with one answer per cell, a snapshot, then three
selects (two answered) whose ``select`` and ``decision`` records stay in
the WAL tail, and a simulated crash (no closing snapshot).  Each backend
directory also gets ``expected.json`` with the session id, the decision
count and the chain head the ledger must recover to.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import numpy as np

from repro.config import SessionSpec
from repro.datasets import load_celebrity
from repro.engine.provenance import AUDIT_FORMAT
from repro.service.registry import SessionRegistry, schema_to_dict

SEED = 7
NUM_ROWS = 12


def write_backend(root: pathlib.Path, backend: str) -> dict:
    dataset = load_celebrity(seed=SEED, num_rows=NUM_ROWS)
    schema = dataset.schema
    worker_ids = dataset.worker_pool.worker_ids()
    rng = np.random.default_rng(SEED)
    spec = (
        SessionSpec.builder()
        .model(max_iterations=4, m_step_iterations=8)
        .policy(refit_every=1)
        .durable(None, snapshot_every_answers=10_000, wal_fsync=False, backend=backend)
        .build()
    )
    # A relative durable root keeps machine paths out of the manifest.
    registry = SessionRegistry(durable_root=pathlib.Path(backend))
    session_id = f"format1-{backend}"
    session = registry.create({
        "schema": schema_to_dict(schema),
        "session_id": session_id,
        "durable": True,
        **spec.to_dict(),
    })
    for row in range(schema.num_rows):
        worker = worker_ids[row % len(worker_ids)]
        session.ingest(worker, [
            (row, col, dataset.oracle.answer(worker, row, col, rng))
            for col in range(schema.num_columns)
        ])
    session.durable.snapshot()
    for step in range(3):
        worker = worker_ids[(3 * step + 1) % len(worker_ids)]
        assignment = session.select(worker, k=2)
        if step < 2:
            session.ingest(worker, [
                (row, col, dataset.oracle.answer(worker, row, col, rng))
                for row, col in assignment.cells
            ])
    recorder = session.durable.recorder
    expected = {
        "session_id": session_id,
        "decisions": recorder.count,
        "chain_head": recorder.chain_head,
    }
    # Crash: release the storage without the closing snapshot, so the
    # decision records past the snapshot stay in the WAL tail.
    session.durable._storage.close()
    (root / backend / "expected.json").write_text(
        json.dumps(expected, indent=2) + "\n", encoding="utf-8"
    )
    return expected


def main() -> int:
    if AUDIT_FORMAT != 1:
        print(f"needs a checkout at audit format 1, this one is at {AUDIT_FORMAT}")
        return 1
    root = pathlib.Path(sys.argv[1]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    for backend in ("jsonl", "sqlite"):
        print(backend, write_backend(root, backend))
    return 0


if __name__ == "__main__":
    sys.exit(main())
