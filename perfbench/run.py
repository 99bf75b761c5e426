"""End-to-end and per-layer benchmark of the flagdyn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a flagdyn checkout; the program is imported from
`src/`.  Load model: a closed loop with one client.  One CLI invocation runs
at a time, each in a fresh interpreter (`invoke.py`), as a user runs
`flagdyn`; a cache filled by one invocation cannot reach the next.  The
workload seed fixes every pass's `--seed`, matrix and start point; the
program sees only the generated argv.

Workloads (see BENCHMARK.json for why each was chosen):

- verify-all:     `verify --format json --out F --seed s`, all suites;
- verify-sampled: `verify --suite X --samples 200 --format json --seed s`
                  for X in lie-core, flag-space, models;
- orbit:          `simulate --matrix M --start p -n 100000 --out F.csv`,
                  then `lyapunov --matrix M -n 2000 --format json`.

With `--trace 0` the run makes a fixed number of passes, about `--seconds`
of them on the machine the benchmark was defined on (`pass_count`), and
reports the end-to-end metrics.  Times are given at a reference speed: a
probe in `invoke.py` samples how fast the CPU runs while each phase runs,
and `at_reference` rescales the phase's wall time by it, so the drift of a
shared host's speed from minute to minute cancels out.  With `--trace 1` it
runs pass 0 once untraced and once under `tracer.py`, and reports the
per-layer metrics of the traced pass; a fixed seed gives identical count
metrics.

The last stdout line is the result object; the line before it holds the
details: environment, per-pass seeds, and each timing's median, quartiles
and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify-all", "verify-sampled", "orbit")
MATRICES = ("2,1,1,1", "3,2,1,1", "5,2,2,1", "1,1,1,2", "3,1,2,1")
SAMPLED_SUITES = ("lie-core", "flag-space", "models")
# Registered checks per suite; "all" is every suite.
CASE_COUNTS = {"all": 75, "lie-core": 16, "flag-space": 15, "models": 14}
LYAPUNOV_CASES = ("partially-hyperbolic", "rate-c", "rate-s", "rate-u")
# Checks that already failed, on some seeds, at the commit that defined this
# benchmark.  They count in `failed` and `pass_share` but do not make a run
# incorrect; any other failing check does.
#   fundamental-finite-difference: its absolute 1e-4 bound on a first-order
#     difference quotient does not scale near the chart boundary; it fails
#     on almost every seed at --samples 200 and on some at the default.
#   contact-model-frames, contact-rescaling-invariance: on some seeds the
#     numeric Jacobian in `curvature.bracket_of_fields` fails its
#     step-halving gate; the ArithmeticError is reported as FAIL.
#   flow-commutator-slope: the float log-log slope of a random pair can land
#     just under its 2.9 threshold (2.899 on one seed).
KNOWN_FAILURES = {
    "verify-all": {"fundamental-finite-difference", "contact-model-frames",
                   "contact-rescaling-invariance", "flow-commutator-slope"},
    "verify-sampled": {"fundamental-finite-difference"},
}
SIZES = {
    "full": {"verify_all_samples": None, "sampled_samples": 200,
             "simulate_n": 100_000, "lyapunov_n": 2000},
    "tiny": {"verify_all_samples": 2, "sampled_samples": 2,
             "simulate_n": 1000, "lyapunov_n": 50},
}
# Set-up is timed this many times before the passes and once after each,
# so its median samples the machine across the whole run.
SETUP_BEFORE = 6
# Reference speed: the speed at which one chunk of the probe in invoke.py
# takes this long.  Timed metrics are given at this speed (`at_reference`).
REF_CHUNK_S = 1e-3
# Wall time of one full-size pass, set-up after it included, on the 2-vCPU
# x86_64 machine the benchmark was defined on; an untraced run makes
# --seconds / this many passes, so it takes about --seconds there.
PASS_NOMINAL_S = {"verify-all": 13.0, "verify-sampled": 8.0, "orbit": 3.2}
IMPORTTIME_REPEATS = 3
# Timings of `orbit` runs beyond the end-to-end metrics, with their units.
ORBIT_TIMINGS = {"simulate_steps_per_s": "1/s", "lyapunov_s": "s"}
# A run stops (and fails) if its invocations are still going after this.
RUN_DEADLINE_S = 170
# Float orbits lose about log10(lambda) digits per step; compare the exact
# orbit only while the float one is expected within this distance.
ORBIT_TOL = 1e-6


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# pass plans
# ---------------------------------------------------------------------------

def plan_pass(workload: str, seed: int, k: int, size: str, work: Path) -> dict:
    """Invocations of pass k of a workload, derived from the seed alone."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    pass_seed = rng.randrange(2**31)
    sz = SIZES[size]
    if workload == "verify-all":
        out = work / f"verify-{k}.json"
        argv = ["verify", "--format", "json", "--out", str(out),
                "--seed", str(pass_seed)]
        if sz["verify_all_samples"] is not None:
            argv += ["--samples", str(sz["verify_all_samples"])]
        invs = [{"kind": "verify", "argv": argv, "suite": "all", "out": out}]
        return {"k": k, "seed": pass_seed, "invocations": invs}
    if workload == "verify-sampled":
        invs = [{"kind": "verify", "suite": suite, "out": None,
                 "argv": ["verify", "--suite", suite, "--samples",
                          str(sz["sampled_samples"]), "--format", "json",
                          "--seed", str(pass_seed)]}
                for suite in SAMPLED_SUITES]
        return {"k": k, "seed": pass_seed, "invocations": invs}
    if workload == "orbit":
        matrix = rng.choice(MATRICES)
        # Six-decimal start in the box, typed as a user would; the exact
        # orbit starts from the floats the program parses.
        start_text = ",".join(f"{rng.randrange(1, top) / 10**6:.6f}"
                              for top in (10**6, 10**6, 5 * 10**5))
        start = tuple(float(c) for c in start_text.split(","))
        out = work / f"orbit-{k}.csv"
        n = sz["simulate_n"]
        invs = [
            {"kind": "simulate", "matrix": matrix, "start": start, "n": n,
             "out": out,
             "argv": ["simulate", "--matrix", matrix, "--start", start_text,
                      "-n", str(n), "--out", str(out)]},
            {"kind": "lyapunov",
             "argv": ["lyapunov", "--matrix", matrix, "-n",
                      str(sz["lyapunov_n"]), "--format", "json"]},
        ]
        return {"k": k, "seed": pass_seed, "matrix": matrix,
                "start": start_text, "invocations": invs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running invocations
# ---------------------------------------------------------------------------

class Runner:
    """Runs invocations in fresh interpreters under one work directory."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("FLAGDYN_")
                    and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self._n = 0

    def _run(self, cmd):
        timeout = max(1.0, self.deadline - time.perf_counter())
        return subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                              capture_output=True, timeout=timeout)

    def setup(self) -> dict:
        """A fresh interpreter that imports `flagdyn.cli`, builds the parser
        and exits: its wall time without the probe's, and that time at the
        reference speed."""
        result = self.work / "setup.json"
        t0 = time.perf_counter()
        proc = self._run([sys.executable, str(HERE / "invoke.py"), str(result), "--"])
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        data = json.loads(result.read_text())
        result.unlink()
        wall_s = wall - data["probe_busy_s"]
        return {"wall_s": wall_s,
                "ref_s": at_reference(wall_s, data["setup"]["probe_chunk_s"])}

    def importtime(self) -> dict:
        proc = self._run([sys.executable, "-X", "importtime", "-c",
                          "import flagdyn.cli; flagdyn.cli.build_parser()"])
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr}")
        return parse_importtime(proc.stderr)

    def invoke(self, argv, spans: Path | None = None, pass_id: int = 0) -> dict:
        self._n += 1
        result = self.work / f"invocation-{self._n}.json"
        own = [str(result)] + ([str(spans), str(pass_id)] if spans else [])
        proc = self._run([sys.executable, str(HERE / "invoke.py"), *own, "--", *argv])
        rec = {"code": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr, "work_s": None, "ref_s": None,
               "peak_rss_mb": None}
        if result.exists():
            data = json.loads(result.read_text())
            result.unlink()
            rec["work_s"] = data["work"]["s"]
            rec["peak_rss_mb"] = data["peak_rss_mb"]
            if "probe_chunk_s" in data["work"]:  # untraced
                rec["ref_s"] = at_reference(rec["work_s"], data["work"]["probe_chunk_s"])
        return rec


def at_reference(seconds: float, probe_chunk_s: float) -> float:
    """A time measured while probe chunks took `probe_chunk_s` on average,
    rescaled to the reference speed, at which a chunk takes REF_CHUNK_S."""
    return seconds * REF_CHUNK_S / probe_chunk_s


def parse_importtime(stderr: str) -> dict:
    """numpy's cumulative import time, and flagdyn's without numpy, in s."""
    numpy_us = flagdyn_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if name == "numpy":
            numpy_us = max(numpy_us, cumulative)
        elif depth == 1 and name.split(".")[0] == "flagdyn":
            flagdyn_us += cumulative
    return {"numpy_import_s": numpy_us / 1e6,
            "flagdyn_import_s": max(flagdyn_us - numpy_us, 0) / 1e6}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_invocation(inv: dict, rec: dict) -> tuple[int, list[str], list[str]]:
    """Returns (operations attempted, failing case ids, problems).  A problem
    is an output that breaks the CLI contract; it fails every operation of
    the invocation."""
    problems = []
    if "Traceback" in rec["stderr"]:
        problems.append("traceback on stderr")
    if rec["work_s"] is None:
        problems.append(f"no result (exit {rec['code']}): {rec['stderr'][-300:]}")
    if inv["kind"] == "verify":
        expected = CASE_COUNTS[inv["suite"]]
        failing, more = _check_cases(inv, rec, expected)
        return expected, failing, problems + more
    if inv["kind"] == "lyapunov":
        failing, more = _check_cases(inv, rec, len(LYAPUNOV_CASES), LYAPUNOV_CASES)
        return 1, ["lyapunov"] if failing else [], problems + more
    if rec["code"] != 0:
        problems.append(f"simulate exit code {rec['code']}")
    problems += check_orbit_csv(inv)
    return 1, [], problems


def _check_cases(inv, rec, expected, ids=None):
    problems = []
    try:
        text = inv["out"].read_text() if inv.get("out") else rec["stdout"]
        cases = json.loads(text)["cases"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [], [f"unreadable report: {exc!r}"]
    if len(cases) != expected:
        problems.append(f"{len(cases)} cases, expected {expected}")
    if not all(isinstance(c, dict) and isinstance(c.get("pass"), bool)
               and isinstance(c.get("id"), str) for c in cases):
        return [], problems + ["a case lacks a boolean pass flag or an id"]
    if ids is not None and sorted(c["id"] for c in cases) != sorted(ids):
        problems.append(f"case ids {sorted(c['id'] for c in cases)}")
    if len({c["id"] for c in cases}) != len(cases):
        problems.append("duplicate case ids")
    failing = sorted(c["id"] for c in cases if not c["pass"])
    if rec["code"] != (1 if failing else 0):
        problems.append(f"exit code {rec['code']} with {len(failing)} failing cases")
    return failing, problems


def exact_orbit(matrix: str, start, steps: int):
    """Exact reduced orbit from the group law in the dynamics docstring,
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+(xy'-yx')/2), over the lattice
    of integer x, y and half-integer z."""
    a, b, c, d = (int(e) for e in matrix.split(","))
    p = reduce_exact(tuple(Fraction(e) for e in start))
    out = [p]
    for _ in range(steps):
        x, y, z = p
        p = reduce_exact((a * x + b * y, c * x + d * y, z))
        out.append(p)
    return out


def heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + (p[0] * q[1] - p[1] * q[0]) / 2)


def reduce_exact(p):
    """Left-translate by a lattice element into [0,1) x [0,1) x [0,1/2)."""
    partial = heis_mul((-math.floor(p[0]), -math.floor(p[1]), 0), p)
    return heis_mul((0, 0, Fraction(-math.floor(2 * partial[2]), 2)), partial)


def lattice_distance(p, q) -> float:
    """Distance of p q^-1 from the lattice, so a wrap at a box face between
    two representatives of one point reads as no difference."""
    h = heis_mul(p, (-q[0], -q[1], -q[2]))
    return float(max(abs(h[0] - round(h[0])), abs(h[1] - round(h[1])),
                     abs(2 * h[2] - round(2 * h[2])) / 2))


def prefix_steps(matrix: str) -> int:
    """Steps for which the float orbit stays within ORBIT_TOL of the exact
    one: rounding error 2^-52 grows by the expanding multiplier per step."""
    a, b, c, d = (int(e) for e in matrix.split(","))
    tr = abs(a + d)
    lam = (tr + math.sqrt(tr * tr - 4)) / 2
    return int(math.log(ORBIT_TOL / 2**-52) / math.log(lam)) - 2


def check_orbit_csv(inv: dict) -> list[str]:
    n = inv["n"]
    try:
        lines = inv["out"].read_text().splitlines()
    except OSError as exc:
        return [f"no CSV: {exc!r}"]
    finally:
        inv["out"].unlink(missing_ok=True)
    if not lines or lines[0] != "step,x,y,z":
        return [f"CSV header {lines[:1]}"]
    if len(lines) != n + 2:
        return [f"CSV has {len(lines) - 1} rows, expected {n + 1}"]
    rows = []
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            step, x, y, z = int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])
        except (ValueError, IndexError):
            return [f"CSV row {k} unreadable: {line!r}"]
        if step != k or not (0 <= x < 1 and 0 <= y < 1 and 0 <= z < 0.5):
            return [f"CSV row {k} outside the fundamental box: {line!r}"]
        rows.append((x, y, z))
    steps = min(n, prefix_steps(inv["matrix"]))
    exact = exact_orbit(inv["matrix"], inv["start"], steps)
    for k in range(steps + 1):
        dist = lattice_distance(tuple(Fraction(v) for v in rows[k]), exact[k])
        if dist > ORBIT_TOL:
            return [f"orbit step {k} is {dist:.3g} from the exact orbit"]
    return []


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self, workload: str):
        self.known = KNOWN_FAILURES.get(workload, set())
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, pass_: dict, inv: dict, rec: dict) -> None:
        attempted, failing, problems = check_invocation(inv, rec)
        self.attempted += attempted
        where = f"pass {pass_['k']} (seed {pass_['seed']}) {' '.join(inv['argv'][:3])}"
        if problems:
            self.failed += attempted
            self.unexpected += [f"{where}: {p}" for p in problems]
            return
        self.failed += len(failing)
        self.unexpected += [f"{where}: {cid} failed" for cid in failing
                            if cid not in self.known]


def summary(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_pass(runner: Runner, pass_: dict, tally: Tally, spans_dir=None) -> dict:
    recs = []
    for i, inv in enumerate(pass_["invocations"]):
        spans = spans_dir / f"spans-{pass_['k']}-{i}.npz" if spans_dir else None
        rec = runner.invoke(inv["argv"], spans, pass_["k"])
        tally.add(pass_, inv, rec)
        rec["spans"] = spans
        recs.append(rec)
    pass_["work_s"] = [r["work_s"] for r in recs]
    return {"work_s": sum(r["work_s"] or 0.0 for r in recs),
            "ref_s": sum(r["ref_s"] or 0.0 for r in recs),
            "peak_rss_mb": max(r["peak_rss_mb"] or 0.0 for r in recs),
            "records": recs}


def steps_per_s(orbit_pass: dict, result: dict) -> float:
    ref_s = result["records"][0]["ref_s"]
    return orbit_pass["invocations"][0]["n"] / ref_s if ref_s else 0.0


def pass_count(workload: str, seconds: float) -> int:
    """Passes in an untraced run: a fixed number for the run length, so a
    seed gives the same operations, and the same failures, on every run."""
    return max(1, round(seconds / PASS_NOMINAL_S[workload]))


def measure_untraced(runner, workload, seed, seconds, size):
    tally = Tally(workload)
    passes, results = [], []
    setup = [runner.setup() for _ in range(SETUP_BEFORE)]
    for k in range(pass_count(workload, seconds)):
        p = plan_pass(workload, seed, k, size, runner.work)
        results.append(run_pass(runner, p, tally))
        passes.append(p)
        setup.append(runner.setup())
    timings = {
        "setup_s": summary([s["ref_s"] for s in setup]),
        "verify_s": summary([r["ref_s"] for r in results]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in results]),
        "setup_wall_s": summary([s["wall_s"] for s in setup]),
        "verify_wall_s": summary([r["work_s"] for r in results]),
        "probe_chunk_ms": summary([1e3 * REF_CHUNK_S * r["work_s"] / r["ref_s"]
                                   for r in results if r["ref_s"]] or [0.0]),
    }
    if workload == "orbit":
        timings["simulate_steps_per_s"] = summary(
            [steps_per_s(p, r) for p, r in zip(passes, results)])
        timings["lyapunov_s"] = summary(
            [r["records"][1]["ref_s"] or 0.0 for r in results])
    metrics = {name: timings[name]["median"] for name in ("setup_s", "verify_s",
                                                          "peak_rss_mb")}
    metrics["pass_share"] = (tally.attempted - tally.failed) / tally.attempted
    return metrics, timings, passes, tally


def measure_traced(runner, workload, seed, size):
    from layers import layer_metrics

    imports = [runner.importtime() for _ in range(IMPORTTIME_REPEATS)]
    p = plan_pass(workload, seed, 0, size, runner.work)
    tally = Tally(workload)
    plain = run_pass(runner, p, Tally(workload))
    traced = run_pass(runner, p, tally, spans_dir=runner.work)
    metrics = layer_metrics([r["spans"] for r in traced["records"]
                             if r["spans"].exists()], traced["work_s"])
    for key in ("numpy_import_s", "flagdyn_import_s"):
        metrics[f"setup.{key}"] = statistics.median(i[key] for i in imports)
    metrics["trace.overhead_share"] = (
        traced["work_s"] / plain["work_s"] - 1 if plain["work_s"] else 0.0)
    is_orbit = workload == "orbit"
    metrics["orbit.simulate_steps_per_s"] = steps_per_s(p, plain) if is_orbit else 0.0
    metrics["orbit.lyapunov_s"] = (plain["records"][1]["ref_s"] or 0.0
                                   if is_orbit else 0.0)
    metrics["speed.pass_wall_s"] = plain["work_s"]
    metrics["speed.probe_chunk_ms"] = (1e3 * REF_CHUNK_S * plain["work_s"] / plain["ref_s"]
                                       if plain["ref_s"] else 0.0)
    timings = {"untraced_pass_s": summary([plain["work_s"]]),
               "traced_pass_s": summary([traced["work_s"]])}
    return metrics, timings, [p], tally


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "platform": platform.platform()}


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the details and the result object."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, work)
        runner.setup()  # fills the bytecode cache, as an installed program has
        if trace:
            metrics, timings, passes, tally = measure_traced(runner, workload, seed, size)
        else:
            metrics, timings, passes, tally = measure_untraced(
                runner, workload, seed, seconds, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "environment": environment(),
        "passes": [{k: v for k, v in p.items() if k != "invocations"}
                   for p in passes],
        "timings": timings,
        "failed_share": tally.failed / tally.attempted,
        "failures": tally.unexpected,
        "known_failures": sorted(KNOWN_FAILURES.get(workload, ())),
    }
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units(trace).items()},
    }
    return {"details": details, "result": result}


def metric_units(trace: bool) -> dict:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "flagdyn" / "cli.py").is_file():
        raise BenchError(f"{root} is not a flagdyn checkout (no src/flagdyn/cli.py)")
    return root


def print_table(runs: list[dict]) -> None:
    for run in runs:
        d = run["details"]
        print(f"== {d['workload']} (trace {d['trace']}, seed {d['seed']}): "
              f"correct={run['result']['correct']} attempted={run['result']['attempted']} "
              f"failed={run['result']['failed']}")
        for name, m in run["result"]["metrics"].items():
            t = d["timings"].get(name)
            spread = (f"  [q1 {t['q1']:.4g}, q3 {t['q3']:.4g}, n={t['n']}]"
                      if t else "")
            print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}{spread}")
        for name, unit in ORBIT_TIMINGS.items():
            t = d["timings"].get(name)
            if t:
                print(f"   {name:<40} {t['median']:>14.6g} {unit}"
                      f"  [q1 {t['q1']:.4g}, q3 {t['q3']:.4g}, n={t['n']}]")
        for failure in d["failures"]:
            print(f"   unexpected: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every run here as JSON")
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
        if args.workload != "all":
            run = run_workload(root, args.workload, args.seed, args.seconds,
                               bool(args.trace))
            print(json.dumps(run["details"]))
            print(json.dumps(run["result"]))
            return 0
        runs = [run_workload(root, w, args.seed, args.seconds, trace)
                for w in WORKLOADS for trace in (False, True)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print_table(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=2))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
