"""What the tests that start processes share: the check that no forked
child is left, and the environment of a Python child."""

import os
from pathlib import Path

import pytest

import flagdyn


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def child_env():
    """This process's environment with flagdyn's `src` as PYTHONPATH and
    without PYTHONUNBUFFERED, so that a child buffers its stdout as Python
    does by default, whatever the shell sets."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(flagdyn.__file__).resolve().parents[1])
    return env
