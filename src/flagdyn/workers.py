"""Forked workers: the one place where flagdyn spreads work over processes.

`forked(shares, work)` forks one child per share, which runs `work(share,
out)` and leaves through `os._exit`; the caller does its own share while
they run, then reads what each child wrote to `out`, in order.  A child
that dies or writes too little leaves a short report, and a fork that fails
leaves an empty one, so every caller checks what it read and does the rest
itself; the output never depends on how many children ran.  `run_checks`
and the trajectory CSV both split their work this way, over `cpus()`
processes.  A forked child starts from the caller's state with nothing to
import; the CLI starts no thread, so forking it is safe.
"""

from __future__ import annotations

import contextlib
import io
import os


def cpus() -> int:
    """The CPUs this process may use; 1 without `os.fork`, where nothing is
    split."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def forked(shares, work):
    """Forks a child for each share, which calls `work(share, out)` with the
    binary write end of a pipe.  Yields a list of (share, report), report
    the binary read end of that pipe, or an empty stream once a fork fails.
    On leaving, closes every report and reaps every child."""
    children = []  # (pid, report)
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no worker: the caller does this share and the rest
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                try:
                    # a read end left open here would keep a write to that
                    # pipe waiting, instead of failing, once the caller has
                    # closed its own read end and stopped reading
                    os.close(read_end)
                    for _, report in children:
                        report.close()
                    with open(write_end, "wb") as out:
                        work(share, out)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        reports = [report for _, report in children]
        reports += [io.BytesIO() for _ in range(len(shares) - len(children))]
        yield list(zip(shares, reports))
    finally:
        for pid, report in children:
            report.close()
            os.waitpid(pid, 0)
