"""The fork helper, `workers.split`, on a trivial work: its order, its redo
of every way a worker can fail, and its kill on an early leave.  The
callers' tests keep one dying worker each, to show that their own work can
be redone.  And its guard: no other module of src forks, reaps, kills or
leaves a process."""

import ast
import os
import tempfile
import time
from pathlib import Path

import pytest

from flagdyn import workers
from children import assert_no_child_left


def _lines(k):
    """k lines of text, each the number k: no text for share 0."""
    return [f"{k}\n"] * k


@pytest.mark.parametrize("shares", [[0], [3], [2, 0], [0, 4, 1], [1, 3, 0, 2], [4, 2, 3, 0]])
def test_split_yields_the_text_of_every_share_in_order(shares):
    with workers.split(shares, _lines) as text:
        assert "".join(text) == "".join("".join(_lines(k)) for k in shares)
    assert_no_child_left()


SHARES = [1, 2, 3, 4]
EXPECTED = "".join("".join(_lines(k)) for k in SHARES)


def _text(work):
    with workers.split(SHARES, work) as text:
        return "".join(text)


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns in this process, in order."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    return pids


@pytest.mark.parametrize("sent", [0, 3, -1])
def test_a_worker_that_dies_is_redone_by_the_caller(monkeypatch, forks, sent):
    # each worker writes its text up to byte `sent` (nothing, part of its
    # second line, all but the last newline) to an unbuffered file, so that
    # the bytes reach it, and leaves with code 3
    temporary_file, caller = tempfile.TemporaryFile, os.getpid()
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: temporary_file(buffering=0))

    def send_and_leave(k):
        text = "".join(_lines(k))
        if os.getpid() == caller:
            yield text
        else:
            yield text[:sent]
            os._exit(3)

    assert _text(send_and_leave) == EXPECTED
    assert len(forks) == len(SHARES) - 1 and all(forks)
    assert_no_child_left()


@pytest.mark.parametrize("had", [0, 1])
@pytest.mark.parametrize("call", ["fork", "file"])
def test_shares_from_the_first_without_a_file_or_fork_are_the_callers(monkeypatch, call, had):
    # `had` calls succeed, the next raises OSError and the later ones would
    # succeed; the caller does its own share, and every share from the first
    # that got no file or fork
    module, name = (os, "fork") if call == "fork" else (tempfile, "TemporaryFile")
    calls, make = [], getattr(module, name)

    def fail_once():
        calls.append(call)
        if len(calls) == had + 1:
            raise OSError(f"no {call}")
        return make()

    monkeypatch.setattr(module, name, fail_once)
    done, caller = [], os.getpid()

    def noted(k):
        if os.getpid() == caller:
            done.append(k)
        return _lines(k)

    assert _text(noted) == EXPECTED
    assert done == SHARES[:1] + SHARES[1 + had:]
    assert_no_child_left()


def test_a_worker_that_raises_is_redone_without_a_traceback(forks, capfd):
    # each worker makes its first line, then raises
    caller = os.getpid()

    def raise_in_worker(k):
        lines = _lines(k)
        yield lines[0]
        if os.getpid() != caller:
            raise RuntimeError("worker failed")
        yield from lines[1:]

    assert _text(raise_in_worker) == EXPECTED
    assert len(forks) == len(SHARES) - 1 and all(forks)
    assert capfd.readouterr().err == ""
    assert_no_child_left()


def test_leaving_early_kills_and_reaps_the_workers(forks):
    # as when the caller's reader is gone: it waits for no worker to finish
    caller = os.getpid()

    def sleep_in_worker(k):
        if os.getpid() != caller:
            time.sleep(60)
        return _lines(k)

    start = time.monotonic()
    with pytest.raises(BrokenPipeError):
        with workers.split(SHARES, sleep_in_worker) as text:
            assert next(text) == "1\n"
            raise BrokenPipeError
    assert time.monotonic() - start < 30
    assert len(forks) == len(SHARES) - 1 and all(forks)
    assert_no_child_left()


_PROCESS_CALLS = {"fork", "waitpid", "kill", "_exit"}


def test_only_workers_forks_reaps_kills_or_leaves_a_process():
    # the split's policy stays in one module: no other module of src calls
    # os.fork, os.waitpid, os.kill or os._exit, or imports them from os
    src = Path(workers.__file__).resolve().parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                callers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & _PROCESS_CALLS, path.name
    assert callers == {"workers.py"}
