"""Suite-wide settings: a per-test time guard.

A test that runs past `TEST_LIMIT_S` seconds dumps every thread's
traceback to the terminal and ends the run with exit status 1, so a hang
fails the suite instead of stalling it.  The slowest test takes under
3 s on a 2-core box.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

TEST_LIMIT_S = 60

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended here, so this is the terminal's stderr;
    # during a test fd 2 is captured, and the dump would die with it
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_guard(request):
    faulthandler.dump_traceback_later(
        TEST_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
