"""Validate v1 ``SessionSpec`` JSON documents from the command line.

Usage (the CI lint job runs exactly this)::

    PYTHONPATH=src python -m repro.config.validate examples/*.json

Each file must hold either a bare spec document or a service body (a spec
plus the ``schema`` / ``dataset`` / ``session_id`` / ``durable`` envelope
keys of ``POST /sessions``).  The spec portion is validated strictly; the
envelope gets the checks ``POST /sessions`` makes (see
:func:`~repro.config.spec.split_envelope`), and its schema/dataset
payloads are the service's concern and are only checked for type here.  Exit status is non-zero if any file fails, with
the dotted field path in the message::

    examples/broken.json: serving.max_stale_answers must be >= 0 or null, got -1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.config.spec import SessionSpec, split_envelope
from repro.utils.exceptions import ConfigurationError


def validate_file(path: str) -> SessionSpec:
    """Parse and validate one spec document; return the spec.

    Raises :class:`~repro.utils.exceptions.ConfigurationError` (with the
    dotted field path when a spec field is at fault) on any problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            body = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"not valid JSON: {exc}") from exc
    _envelope, payload = split_envelope(body)
    return SessionSpec.from_dict(payload)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.config.validate", description=__doc__
    )
    parser.add_argument("paths", nargs="+", help="spec JSON files to validate")
    args = parser.parse_args(argv)
    failures = 0
    for path in args.paths:
        try:
            spec = validate_file(path)
        except ConfigurationError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"{path}: OK ({spec.describe()})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
