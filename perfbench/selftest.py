"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a flagdyn checkout.  It checks that:

1. the output checks catch broken outputs (a CSV row off the exact orbit, a
   wrong row count, a wrong exit code, a missing case) and accept a wrap at
   a box face;
2. a tiny-size run of each workload reports every end-to-end metric, and
   its traced run every per-layer metric, with the units in BENCHMARK.json;
3. for a fixed seed, every count metric of a full-size traced run repeats
   exactly across two runs;
4. the benchmark exits non-zero, printing no result, in a directory that
   holds only BENCHMARK.json and the benchmark.

Exits 0 when all hold and prints one line per failed expectation otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run

COUNT_SUFFIXES = (".calls", ".max_bits", ".rejects")
COUNT_METRICS = ("exact.fraction_new", "dynamics.csv_bytes")


def check_output_checks(work: Path) -> list[str]:
    errors = []
    matrix, start, n = "2,1,1,1", (0.25, 0.5, 0.125), 5
    orbit = run.exact_orbit(matrix, start, n)

    def csv_problems(rows, header="step,x,y,z"):
        path = work / "orbit.csv"
        path.write_text("\n".join([header] + [f"{k},{float(p[0])!r},{float(p[1])!r},"
                                              f"{float(p[2])!r}"
                                              for k, p in enumerate(rows)]) + "\n")
        inv = {"kind": "simulate", "matrix": matrix, "start": start, "n": n, "out": path}
        return run.check_orbit_csv(inv)

    if csv_problems(orbit):
        errors.append(f"exact orbit rejected: {csv_problems(orbit)}")
    bad = list(orbit)
    bad[3] = (bad[3][0] + Fraction(1, 1000), bad[3][1], bad[3][2])
    if not csv_problems(bad):
        errors.append("a CSV row off the exact orbit was accepted")
    if not csv_problems(orbit[:-1]):
        errors.append("a CSV with a missing row was accepted")
    if not csv_problems(orbit, header="step,x,y"):
        errors.append("a CSV with a wrong header was accepted")
    # (1/2 - e) and (e') near z = 0 are one point after the lattice wrap.
    p = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2) - Fraction(1, 10**12))
    q = run.heis_mul((0, 0, Fraction(-1, 2)), p)
    if run.lattice_distance(p, q) > 1e-12:
        errors.append("a lattice wrap read as a jump")

    cases = [{"id": f"c{i}", "anchor": "", "pass": True, "residual": None}
             for i in range(run.CASE_COUNTS["flag-space"])]
    inv = {"kind": "verify", "suite": "flag-space", "out": None}

    def verify_problems(cases, code):
        rec = {"code": code, "stdout": json.dumps({"suite": "s", "cases": cases}),
               "stderr": "", "work_s": 1.0}
        return run.check_invocation(inv, rec)

    if verify_problems(cases, 0)[2]:
        errors.append(f"a valid report was rejected: {verify_problems(cases, 0)}")
    if not verify_problems(cases, 1)[2]:
        errors.append("exit code 1 with every case passing was accepted")
    if not verify_problems(cases[1:], 0)[2]:
        errors.append("a report missing a case was accepted")
    failing = [dict(cases[0], **{"pass": False})] + cases[1:]
    attempted, ids, problems = verify_problems(failing, 1)
    if problems or ids != ["c0"] or attempted != len(cases):
        errors.append(f"a failing case was miscounted: {(attempted, ids, problems)}")
    return errors


def check_metric_sets(root: Path) -> list[str]:
    errors = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(root, workload, 1, 1, trace, size="tiny")["result"]
            want = run.metric_units(trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
            if res["attempted"] < 1 or not res["correct"]:
                errors.append(f"{workload} trace={int(trace)}: {res}")
    return errors


def count_metrics(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k in COUNT_METRICS}


def check_count_repeat(root: Path) -> list[str]:
    errors = []
    for workload in run.WORKLOADS:
        first, second = (count_metrics(run.run_workload(root, workload, 7, 1, True)
                                       ["result"]["metrics"]) for _ in range(2))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            errors.append(f"{workload}: counts differ between traced runs: {diff}")
    return errors


def check_bare_directory(root: Path) -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "orbit", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    root = run.checkout_root()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        errors = check_output_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors += check_bare_directory(root)
    errors += check_metric_sets(root)
    errors += check_count_repeat(root)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
