"""Suite-wide per-test time cap for runs without pytest-timeout.

``pytest.ini`` caps every test at ``timeout`` seconds.  In CI the
pytest-timeout plugin (``requirements-ci.txt``) enforces it; where the
plugin is not installed the key would be an ignored option and a hung test
would hang the whole run.  These hooks enforce the same cap with
:func:`faulthandler.dump_traceback_later`: a test still running when the
cap expires dumps every thread's stack to stderr and ends the run with a
non-zero exit status.  With the plugin loaded they do nothing.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

#: Name pytest-timeout registers under (``-p no:timeout`` disables it).
_PLUGIN = "timeout"

#: ``(cap_seconds, stderr_fd)`` while the fallback cap is active.
_CAP = pytest.StashKey[tuple]()


def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.has_plugin(_PLUGIN):
        parser.addini(
            "timeout",
            "per-test time cap in seconds, enforced with faulthandler when "
            "pytest-timeout is not installed (0 disables)",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.has_plugin(_PLUGIN):
        return
    seconds = float(config.getini("timeout") or 0)
    if seconds > 0:
        # Output capture is suspended during configure, so this is the real
        # stderr; duplicate it so the dump survives a test's fd capture.
        config.stash[_CAP] = (seconds, os.dup(sys.__stderr__.fileno()))


def pytest_unconfigure(config):
    cap = config.stash.get(_CAP, None)
    if cap is not None:
        os.close(cap[1])
        del config.stash[_CAP]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    cap = item.config.stash.get(_CAP, None)
    if cap is None:
        yield
        return
    seconds, stderr_fd = cap
    faulthandler.dump_traceback_later(seconds, file=stderr_fd, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
