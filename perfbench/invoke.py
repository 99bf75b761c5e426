"""One flagdyn invocation in a fresh interpreter, timed from inside.

    python3 perfbench/invoke.py RESULT.json [SPANS.npz PASS_ID] -- ARGV...

Set-up is importing `flagdyn.cli` and building its parser; work is
`flagdyn.cli.main(ARGV)`.  The times, the exit code and the peak resident
memory go to RESULT.json as JSON, and the process exits with main's code.
With no ARGV the process stops after set-up.

Untraced, a speed probe runs beside both phases: a timer signal every
PROBE_EVERY_S runs one fixed chunk of `Fraction` arithmetic and records how
long it took.  The probe's own time is taken out of each phase's time, and
the mean chunk time tells how fast this CPU ran while the phase ran.  With
SPANS.npz the tracer is installed after set-up instead of the probe, and
its spans are written there.
"""

import gc
import json
import signal
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.025


def probe_chunk() -> None:
    """Fixed exact arithmetic: about 1 ms on a 2-vCPU x86_64 Xeon VM."""
    s = Fraction(0)
    for i in range(1, 230):
        s = Fraction(i % 97, i % 89 + 1) * Fraction(3, 7) + Fraction(i % 13, 5)


class Probe:
    """Samples CPU speed from a timer signal while the main thread works.

    The signal handler runs between bytecodes of whatever the program is
    doing, so the samples are spread evenly over the phase.  The collector is
    off while a chunk runs, so the program's heap does not change its time.
    """

    def __init__(self):
        self.chunk_s: list[float] = []
        self.busy_s = 0.0  # all probe time in this process

    def _sample(self) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        probe_chunk()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.chunk_s.append(t1 - t0)
        self.busy_s += time.perf_counter() - t0

    def start(self) -> tuple:
        """Samples once, then every PROBE_EVERY_S until `stop`."""
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return time.perf_counter(), self.busy_s, len(self.chunk_s) - 1

    def stop(self, started: tuple) -> dict:
        """The phase's wall time without the probe's, and the mean chunk
        time over the phase (with one sample on either side)."""
        t_start, busy_start, first = started
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t_start
        busy = self.busy_s - busy_start
        self._sample()
        chunks = self.chunk_s[first:]
        return {"s": wall - busy, "probe_chunk_s": sum(chunks) / len(chunks),
                "probe_n": len(chunks)}


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  Unlike ru_maxrss it
    does not inherit the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    sep = sys.argv.index("--")
    own, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = own[0]
    traced = len(own) == 3

    probe = Probe()
    started = probe.start()
    import flagdyn.cli
    flagdyn.cli.build_parser()
    result = {"setup": probe.stop(started)}
    if argv:
        if traced:
            from tracer import Tracer
            tracer = Tracer(int(own[2]))
            tracer.install()
            t1 = time.perf_counter()
            code = flagdyn.cli.main(argv)
            result["work"] = {"s": time.perf_counter() - t1}
            tracer.dump(own[1])
        else:
            started = probe.start()
            code = flagdyn.cli.main(argv)
            result["work"] = probe.stop(started)
        result.update(code=code, peak_rss_mb=peak_rss_mb())
    else:
        code = 0
    result["probe_busy_s"] = probe.busy_s
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
