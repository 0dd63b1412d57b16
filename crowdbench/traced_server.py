"""Traced launcher: ``python crowdbench/traced_server.py --spans FILE <service args>``.

Wraps the program's seams in spans (see :func:`crowdbench.tracing.install_seams`),
then runs the service's own entry point, ``repro.service.__main__.main``,
with the remaining arguments.  Spans are written to ``FILE`` on exit and on
``SIGUSR1`` (the benchmark sends it just before a SIGKILL crash).  Seams
that no longer exist are listed in the file and the run continues.
"""

from __future__ import annotations

import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from crowdbench.tracing import Tracer, install_seams  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_server.py --spans FILE <service args>", file=sys.stderr)
        return 2
    span_path, service_args = argv[1], argv[2:]
    tracer = Tracer()
    install_seams(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(span_path))
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        tracer.dump(span_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
