"""Forked workers: the one place where flagdyn spreads work over processes.

`split(shares, work)` yields the text of every share in order: the caller
makes the first share's, and a forked child each other share's, which it
writes to a temporary file of its own.  The caller redoes a share whose
child failed or could not be had, so the text never depends on how many
children ran.  `run_checks` and the trajectory CSV both split their work
this way, over `cpus()` processes.  A forked child starts from the caller's
state with nothing to import; the CLI starts no thread, so forking it is
safe.
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
def split(shares, work):
    """Yields the text of every share in order, `work(share)` being an
    iterable of ASCII text.  The caller makes the first share's text as it
    is read.  A child forked for each other share writes its text to an
    unlinked binary temporary file, then exits 0, or 1 if work raises; the
    caller reaps it before it reads the file.  The caller redoes through
    `work` a share whose child did not exit 0, and every share from the
    first that got no file or fork.  On leaving, kills and reaps the
    children still running and closes every file."""
    import tempfile  # loaded on the first split, not by the CLI's set-up

    children = {}  # share index -> (pid, out), until the child is reaped
    with contextlib.ExitStack() as files:
        try:
            for k in range(1, len(shares)):
                try:
                    out = files.enter_context(tempfile.TemporaryFile())
                    pid = os.fork()
                except OSError:  # no file or no worker: the caller does this share and the rest
                    break
                if pid == 0:
                    status = 1
                    try:
                        for piece in work(shares[k]):
                            out.write(piece.encode("ascii"))
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children[k] = pid, out

            def text():
                for k, share in enumerate(shares):
                    if k in children:
                        pid, out = children[k]
                        status = os.waitpid(pid, 0)[1]
                        del children[k]
                        if status == 0:
                            out.seek(0)
                            while chunk := out.read(1 << 16):
                                yield chunk.decode("ascii")
                            continue
                    yield from work(share)

            yield text()
        finally:
            for pid, _ in children.values():
                os.kill(pid, 9)  # SIGKILL, without loading `signal`
                os.waitpid(pid, 0)
