"""Forked workers: the one place where flagdyn spreads work over processes.

`forked(shares, work)` forks one child per share, which writes its report to
a temporary file of its own; the caller does its own share while they run,
then takes the reports in order.  A failed worker's share is redone whole by
the caller, so the output never depends on how many children ran.
`run_checks` and the trajectory CSV both split their work this way, over
`cpus()` processes.  A forked child starts from the caller's state with
nothing to import; the CLI starts no thread, so forking it is safe.
"""

from __future__ import annotations

import contextlib
import os


def cpus() -> int:
    """The CPUs this process may use; 1 without `os.fork`, where nothing is
    split."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def forked(shares, work):
    """Forks a child for each share, which calls `work(share, out)` with an
    unlinked binary temporary file, flushes it and exits 0, or 1 if work
    raises.  Yields (share, report) in order, reaping each child first:
    report is its file, rewound, if the child exited 0, else None, as when
    a file or a fork failed.  On leaving, kills and reaps the children
    still running and closes every file."""
    import tempfile  # loaded on the first split, not by the CLI's set-up

    children = []  # (pid, out), in the order of the shares
    running = set()  # the pids not yet reaped
    with contextlib.ExitStack() as files:
        try:
            for share in shares:
                try:
                    out = files.enter_context(tempfile.TemporaryFile())
                    pid = os.fork()
                except OSError:  # no file or no worker: the caller does this share and the rest
                    break
                if pid == 0:
                    status = 1
                    try:
                        work(share, out)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, out))
                running.add(pid)

            def reports():
                for (pid, out), share in zip(children, shares):
                    status = os.waitpid(pid, 0)[1]
                    running.remove(pid)
                    out.seek(0)
                    yield share, None if status else out
                yield from ((share, None) for share in shares[len(children):])

            yield reports()
        finally:
            for pid in running:
                os.kill(pid, 9)  # SIGKILL, without loading `signal`
                os.waitpid(pid, 0)
