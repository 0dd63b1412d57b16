"""HTTP client with per-phase failure accounting and latency samples.

Every request is timed at the client.  Right before a sampled request
(one with a ``kind``), while the server idles, the client times the
host-speed reference computation, so each latency sample comes with the
reference duration it is scaled by (see :mod:`crowdbench.reference`).
A ``409`` (the worker has no open cell) is a valid reply: it is counted
as refused, not failed, and stays in the latency sample.  Any other non-2xx reply, a connection error or a
timeout is a failure; its time until failure stays in the sample too.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from crowdbench.reference import reference_seconds

PHASES = ("setup", "warmup", "timed", "reads", "recovery")

#: Header carrying the client's request id; the program ignores it, the
#: traced launcher tags its spans with it.
REQUEST_ID_HEADER = "X-Bench-Request"


class Accounting:
    """Thread-safe request counters per phase plus latency samples per kind.

    ``samples[kind]`` holds raw latencies in ms; ``references[kind]`` holds,
    index for index, the reference duration in seconds timed before each.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, Dict[str, int]] = {
            phase: {"attempted": 0, "succeeded": 0, "refused": 0, "failed": 0}
            for phase in PHASES
        }
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.references: Dict[str, List[float]] = defaultdict(list)
        self.errors: List[str] = []

    def record(self, phase: str, kind: Optional[str], status: int,
               seconds: float, error: str = "", reference: Optional[float] = None) -> None:
        with self._lock:
            counts = self.counts[phase]
            counts["attempted"] += 1
            if 200 <= status < 300:
                counts["succeeded"] += 1
            elif status == 409:
                counts["refused"] += 1
            else:
                counts["failed"] += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{phase} {kind}: {status} {error}"[:300])
            if kind is not None:
                self.samples[kind].append(seconds * 1000.0)
                self.references[kind].append(reference)

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.counts.values())


class Client:
    """A closed-loop HTTP client (one request in flight per instance)."""

    def __init__(self, base_url: str, accounting: Accounting, name: str = "c0",
                 timeout: float = 60.0, log: Optional[list] = None) -> None:
        parts = urlsplit(base_url)
        self.host, self.port = parts.hostname, parts.port
        self.accounting = accounting
        self.name = name
        self.timeout = timeout
        #: When set, ``(request id, phase, kind, path, seconds)`` per request —
        #: the traced run matches these against the server's spans.
        self.log = log
        self._sequence = 0

    def request(self, method: str, path: str, body=None, *, phase: str,
                kind: Optional[str] = None) -> Tuple[int, object]:
        """One request; returns ``(status, decoded JSON or None)``.

        Never raises for HTTP or transport errors: those come back as a
        status (``0`` for a transport failure) and are counted.
        """
        self._sequence += 1
        reference = reference_seconds() if kind is not None else None
        headers = {REQUEST_ID_HEADER: f"{self.name}-{self._sequence}"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        status, data, error = 0, None, ""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
            data = json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            status = status if status and status != 200 else 0
        finally:
            connection.close()
        seconds = time.perf_counter() - started
        if not error and not (200 <= status < 300) and isinstance(data, dict):
            error = str(data.get("error", ""))
        self.accounting.record(phase, kind, status, seconds, error, reference)
        if self.log is not None:
            self.log.append((headers[REQUEST_ID_HEADER], phase, kind, path, seconds))
        return status, data
