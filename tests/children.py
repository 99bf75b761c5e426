"""The check, shared by the tests of forked workers, that none is left."""

import os

import pytest


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
