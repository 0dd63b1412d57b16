"""HTTP client for the service API, used by the tests and
``scripts/service_smoke.py`` to drive a live
:class:`~repro.service.app.ServiceServer`."""

from __future__ import annotations

import json
import urllib.error
import urllib.request


class ServiceClient:
    """Minimal stdlib HTTP client for the service API.

    :meth:`request` never raises on HTTP errors — it returns
    ``(status, body)`` so tests can assert on 4xx responses; the
    convenience wrappers raise :class:`RuntimeError` on any non-2xx.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, method: str, path: str, payload=None):
        status, raw, content_type = self._send(method, path, payload)
        if content_type.startswith("application/json"):
            return status, json.loads(raw.decode("utf-8"))
        return status, raw.decode("utf-8")

    def request_raw(self, method: str, path: str, payload=None):
        """Like :meth:`request`, but return the body's bytes undecoded."""
        return self._send(method, path, payload)[:2]

    def _send(self, method: str, path: str, payload):
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read(), resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), exc.headers.get("Content-Type", "")

    def _expect(self, method: str, path: str, payload=None):
        status, body = self.request(method, path, payload)
        if status >= 300:
            raise RuntimeError(f"{method} {path} failed with {status}: {body}")
        return body

    def create_session(self, config: dict) -> dict:
        return self._expect("POST", "/sessions", config)

    def get_tasks(self, session_id: str, worker: str, k: int = 1):
        return self.request(
            "GET", f"/sessions/{session_id}/tasks?worker={worker}&k={k}"
        )

    def post_answers(self, session_id: str, worker: str, items) -> dict:
        payload = {
            "worker": worker,
            "answers": [
                {"row": int(row), "col": int(col), "value": value}
                for row, col, value in items
            ],
        }
        return self._expect("POST", f"/sessions/{session_id}/answers", payload)

    def get_estimates(self, session_id: str) -> dict:
        return self._expect("GET", f"/sessions/{session_id}/estimates")

    def get_metrics(self) -> str:
        return self._expect("GET", "/metrics")

    def healthz(self) -> dict:
        return self._expect("GET", "/healthz")

    def delete_session(self, session_id: str) -> dict:
        return self._expect("DELETE", f"/sessions/{session_id}")
