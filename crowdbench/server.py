"""The server under test, run as its own process.

Untraced runs start ``python -m repro.service``; traced runs start the
benchmark's own launcher (``crowdbench/traced_server.py``), which wraps
the program's seams and then runs the same entry point.  BLAS and OpenMP
are pinned to one thread, the port is ephemeral, and every exit path kills
the process and waits for it.
"""

from __future__ import annotations

import os
import pathlib
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = pathlib.Path(__file__).resolve().parent / "traced_server.py"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server could not be started or died unexpectedly."""


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "service" / "__main__.py").is_file()


class Server:
    """One server process over one durable root."""

    def __init__(
        self,
        durable_root: pathlib.Path,
        log_path: pathlib.Path,
        span_path: Optional[pathlib.Path] = None,
    ) -> None:
        self.durable_root = pathlib.Path(durable_root)
        self.log_path = pathlib.Path(log_path)
        self.span_path = span_path
        self.process: Optional[subprocess.Popen] = None
        self.base_url = ""
        self.recovered: List[str] = []

    def command(self) -> List[str]:
        args = [
            "--port", "0",
            "--durable-root", str(self.durable_root),
            "--log-level", "WARNING",
        ]
        if self.span_path is None:
            return [sys.executable, "-m", "repro.service", *args]
        return [sys.executable, str(LAUNCHER), "--spans", str(self.span_path), *args]

    def start(self, timeout: float = 120.0) -> float:
        """Spawn and wait for ``listening on``; return the seconds it took."""
        env = dict(os.environ)
        env.update(THREAD_ENV)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        self.durable_root.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command(), cwd=str(ROOT), env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
            )
        try:
            self._wait_listening(started + timeout)
        except BaseException:
            self.kill()
            raise
        return time.perf_counter() - started

    def _wait_listening(self, deadline: float) -> None:
        fd = self.process.stdout.fileno()
        buffer = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("server did not report 'listening on' in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerError(
                    f"server exited before listening; see {self.log_path}"
                )
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                text = line.decode("utf-8", "replace").strip()
                if text.startswith("recovered session "):
                    self.recovered.append(text.split()[-1])
                elif text.startswith("listening on "):
                    self.base_url = text.split()[-1]
                    return

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process, all threads."""
        with open(f"/proc/{self.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK

    def peak_rss_mb(self) -> float:
        """Peak resident memory (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def request_span_dump(self, timeout: float = 60.0) -> None:
        """Ask a traced server to write its spans (SIGUSR1) and wait for the file."""
        self.span_path.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not self.span_path.exists():
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise ServerError("traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL (a crash) and wait for the process to end."""
        if self.process is None or self.process.poll() is not None:
            self._close_pipe()
            return
        self.process.kill()
        self.process.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()
