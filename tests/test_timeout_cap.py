"""The per-test time cap of the root ``conftest.py``.

Each test runs a throwaway pytest session in a subprocess, over a temporary
directory holding a copy of the root conftest, a ``pytest.ini`` with a 1 s
cap, and one slow test.  Both hold whether or not pytest-timeout is
installed: the hang test blocks the plugin, the inertness test disables
its cap from the command line (or stands in for it when it is absent).
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import textwrap

ROOT_CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "conftest.py"

HANGING_TEST = textwrap.dedent(
    """
    import threading
    import time


    def _parked_helper():
        time.sleep(60)


    def test_hangs():
        threading.Thread(target=_parked_helper, daemon=True).start()
        time.sleep(60)
    """
)

SLOW_TEST = textwrap.dedent(
    """
    import time


    def test_takes_two_seconds():
        time.sleep(2)
    """
)

#: Runs the session with pytest-timeout loaded but its cap disabled by
#: ``--timeout=0``; where the plugin is not installed, a stand-in
#: registered under its name declares the same ini key and option and
#: enforces nothing.  The 1 s ini cap must then go unenforced.
RUN_WITH_PLUGIN_LOADED = textwrap.dedent(
    """
    import importlib.util
    import sys
    import types

    import pytest

    def declare(parser):
        parser.addini("timeout", "cap")
        parser.addoption("--timeout")

    plugins = []
    if importlib.util.find_spec("pytest_timeout") is None:
        stand_in = types.ModuleType("timeout")
        stand_in.pytest_addoption = declare
        plugins.append(stand_in)
    sys.exit(pytest.main(
        ["-q", "-p", "no:cacheprovider", "--timeout=0"], plugins=plugins
    ))
    """
)


def _session_dir(tmp_path, test_source):
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n", encoding="utf-8")
    (tmp_path / "test_subject.py").write_text(test_source, encoding="utf-8")
    return tmp_path


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_hung_test_dumps_every_thread_and_exits_nonzero(tmp_path):
    cwd = _session_dir(tmp_path, HANGING_TEST)
    done = _run(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:timeout"], cwd
    )
    output = done.stdout + done.stderr
    assert done.returncode != 0, output
    assert "Timeout (0:00:01)!" in output, output
    assert "in test_hangs" in output, output
    assert "in _parked_helper" in output, output


def test_cap_is_inert_when_pytest_timeout_is_loaded(tmp_path):
    cwd = _session_dir(tmp_path, SLOW_TEST)
    done = _run(["-c", RUN_WITH_PLUGIN_LOADED], cwd)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout, done.stdout
