"""CLI entry point: ``python -m repro.service --port 8080``.

Starts the stdlib WSGI server over a fresh :class:`SessionRegistry`.
``POST /sessions`` takes a version-1 :class:`~repro.config.SessionSpec`
body (validate one offline with ``python -m repro.config.validate``); a
body without ``version`` is refused with a 400 whose ``path`` is
``"version"``.  With
``--durable-root DIR``, sessions created with ``{"durable": true}`` persist
their write-ahead log under ``DIR/<session_id>/`` and every durable session
already found there is recovered before the server starts accepting
requests.  The bound address is printed as ``listening on http://...`` —
``--port 0`` picks an ephemeral port (used by the CI smoke job).
"""

from __future__ import annotations

import argparse
import sys

from repro.config.spec import DURABILITY_BACKENDS
from repro.service.app import DEFAULT_MAX_BODY_BYTES, ServiceServer
from repro.service.registry import SessionRegistry
from repro.utils.logging import configure_logging


def build_server(argv=None) -> ServiceServer:
    """Parse CLI options and bind the server (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 binds an ephemeral port)",
    )
    parser.add_argument(
        "--durable-root", default=None,
        help="directory for durable sessions ({'durable': true} configs); "
        "existing sessions under it are recovered at startup",
    )
    parser.add_argument(
        "--durable-backend", default=None, choices=DURABILITY_BACKENDS,
        help="default storage backend for durable sessions whose spec "
        "does not set durability.backend (recovered sessions keep the "
        "backend pinned in their manifest)",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES,
        help="request-body size cap; larger uploads are rejected with 413",
    )
    parser.add_argument(
        "--log-level", default="INFO",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="stdlib logging level for the repro logger tree",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log line (with session_id / "
        "worker_id / decision_id correlation fields when available)",
    )
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    registry = SessionRegistry(
        durable_root=args.durable_root, durable_backend=args.durable_backend
    )
    # The app attaches its hot-path profile to the registry, so recovered
    # sessions report their stages in /metrics like new ones.
    server = ServiceServer(
        registry,
        host=args.host,
        port=args.port,
        max_body_bytes=args.max_body_bytes,
    )
    try:
        recovered = registry.recover_all()
    except BaseException:
        server.close()
        raise
    for session_id in recovered:
        print(f"recovered session {session_id}", flush=True)
    return server


def main(argv=None) -> int:
    server = build_server(argv)
    print(f"listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("shut down cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
