"""Structured logging: one JSON object per line, correlation fields attached.

This module gives every component the same stdlib :mod:`logging` setup
with an optional JSON line formatter that carries the three correlation
fields the audit layer introduced — ``session_id``, ``worker_id`` and
``decision_id`` — whenever a log site supplies them via ``extra=``, so log
output is machine-parseable rather than free-form text.

``python -m repro.service`` exposes this through ``--log-level`` and
``--log-json``.
"""

from __future__ import annotations

import json
import logging

from repro.utils.exceptions import ConfigurationError

#: Correlation fields promoted into the JSON payload when present.
CONTEXT_FIELDS = ("session_id", "worker_id", "decision_id")


class JsonLineFormatter(logging.Formatter):
    """Format records as one JSON object per line (sorted keys, UTC epoch)."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for field in CONTEXT_FIELDS:
            value = getattr(record, field, None)
            if value is not None:
                payload[field] = value
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def configure_logging(
    level: str = "INFO",
    json_lines: bool = False,
    stream=None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree and return its root.

    Idempotent: replaces any handler a previous call installed, so calling
    it again never duplicates output.
    """
    numeric = getattr(logging, str(level).upper(), None)
    if not isinstance(numeric, int):
        raise ConfigurationError(f"unknown log level {level!r}")
    handler = logging.StreamHandler(stream)
    if json_lines:
        handler.setFormatter(JsonLineFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
    logger = logging.getLogger("repro")
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    return logger
