"""Batch front-end: verification suites, classification oracles, and
nilmanifold simulations with machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or
configuration error.  Output is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import checks
from . import classification as cls
from . import dynamics as dyn

ENV_PREFIX = "FLAGDYN_"


@dataclass(frozen=True)
class RunConfig:
    suite: str | None = None
    seed: int = 0
    samples: int | None = None
    tol: float = 1e-9
    fmt: str = "human"
    out: str | None = None

    def __post_init__(self):
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.fmt not in ("json", "csv", "human"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.out is not None and not os.path.isdir(
                os.path.dirname(os.path.abspath(self.out))):
            raise ValueError(f"the directory of {self.out!r} does not exist")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _by_id(cases):
    return sorted(cases, key=lambda c: c["id"])


def _render_cases(suite_name: str, cases, fmt: str) -> str:
    """Render report cases, in the order given."""
    if fmt == "json":
        return json.dumps({"suite": suite_name, "cases": cases},
                          sort_keys=True, indent=2)
    if fmt == "csv":
        lines = ["id,anchor,pass,residual"]
        for c in cases:
            res = "" if c["residual"] is None else f"{c['residual']:.17g}"
            anchor = c["anchor"].replace('"', "'")
            lines.append(f"{c['id']},\"{anchor}\",{str(c['pass']).lower()},{res}")
        return "\n".join(lines) + "\n"
    width = max((len(c["id"]) for c in cases), default=4)
    lines = []
    for c in cases:
        mark = "PASS" if c["pass"] else "FAIL"
        res = "" if c["residual"] is None else f"  residual={c['residual']:.3g}"
        lines.append(f"[{mark}] {c['id']:<{width}}  {c['anchor']}{res}")
        for key in sorted(set(c) - {"id", "anchor", "pass", "residual"}):
            lines.append(f"       {key}: {c[key]}")
    n_pass = sum(c["pass"] for c in cases)
    lines.append(f"{n_pass}/{len(cases)} checks passed")
    return "\n".join(lines) + "\n"


def cmd_verify(config: RunConfig) -> int:
    try:
        outcomes = checks.run_checks(suite=config.suite, seed=config.seed,
                                     samples=config.samples)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    cases = [{
        "id": o.check_id,
        "anchor": o.anchor,
        "pass": o.passed,
        "residual": o.residual,
    } for o in outcomes]
    _emit(_render_cases(config.suite or "all", cases, config.fmt), config.out)
    return 0 if all(c["pass"] for c in cases) else 1


_ORACLE_CASES = {}


def _oracle(name):
    def wrap(fn):
        _ORACLE_CASES[name] = fn
        return fn
    return wrap


@_oracle("subalgebra-table")
def _oracle_subalgebras():
    return _report_cases(cls.verify_subalgebra_table())


@_oracle("bracket-table")
def _oracle_brackets():
    return _report_cases(cls.tresse_bracket_suite())


def _report_cases(reports):
    return _by_id({"id": r.case_id, "anchor": r.anchor, "pass": r.passed,
                   "residual": r.residual,
                   "expected": r.expected, "computed": r.computed}
                  for r in reports)


def _degeneration_case(name):
    @_oracle(f"degeneration-{name}")
    def _run(name=name):
        return [{
            "id": f"degeneration-{name}-t={res.t}",
            "anchor": "transported transverse generator along the circle, "
                      "exact in t; projected line tends to the "
                      f"{res.limit} class",
            "pass": res.passed,
            "residual": res.sine_distance,
            "matrix": [[str(e) for e in row] for row in res.matrix],
            "limit": res.limit,
        } for res in cls.degeneration_samples(name)]
    return _run


for _name in cls.DEGENERATION_CASES:
    _degeneration_case(_name)


def cmd_oracle(case: str, config: RunConfig) -> int:
    if case not in _ORACLE_CASES:
        sys.stderr.write(
            f"error: unknown oracle case {case!r}; known: "
            f"{', '.join(sorted(_ORACLE_CASES))}\n")
        return 2
    cases = _ORACLE_CASES[case]()
    _emit(_render_cases(case, cases, config.fmt), config.out)
    return 0 if all(c["pass"] for c in cases) else 1


# argparse types: each input is validated here, once for every subcommand

def _numbers(text: str, arity: int):
    vals = tuple(map(float, text.split(",")))
    if len(vals) != arity or not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(
            f"expected {arity} finite comma-separated numbers, got {text!r}")
    return vals


# Beyond 2**52 a float has no fractional part, so a coordinate no longer fixes
# a point of the fundamental box, and the group law's products can overflow.
MAX_COORDINATE = 2.0 ** 52


def _point(text: str):
    vals = _numbers(text, 3)
    if max(map(abs, vals)) > MAX_COORDINATE:
        raise argparse.ArgumentTypeError(
            f"coordinates must be at most 2**52 in magnitude, got {text!r}")
    return vals


def _matrix(text: str):
    vals = _numbers(text, 4)
    if any(v != int(v) for v in vals):
        raise argparse.ArgumentTypeError("linear part entries must be integers")
    return vals[:2], vals[2:]


def _steps(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"steps must be at least 1, got {n}")
    return n


def cmd_simulate(args, config: RunConfig) -> int:
    try:
        f = dyn.NilMap.of(args.matrix, args.translation)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    orbit = dyn.iterate(f, args.start, args.steps)
    if config.out:
        dyn.write_trajectory_csv(config.out, orbit)
    else:
        dyn.write_trajectory_rows(sys.stdout, orbit)
    return 0


def cmd_lyapunov(args, config: RunConfig) -> int:
    try:
        f = dyn.NilMap.of(args.matrix, args.translation)
        rates = {d: dyn.tangent_rates(f, d, n=args.steps) for d in ("u", "s", "c")}
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report = dyn.hyperbolicity_report(
        tuple(rates[d].measured for d in ("u", "s", "c")))
    payload = {
        "suite": "lyapunov",
        "cases": [{
            "id": f"rate-{d}",
            "anchor": "per-step log growth along the invariant frame, "
                      "finite differences vs eigenvalue",
            "pass": r.error <= max(config.tol, 1e-3),
            "residual": r.error,
            "measured": r.measured,
            "exact": r.exact,
        } for d, r in sorted(rates.items())] + [{
            "id": "partially-hyperbolic",
            "anchor": "uniform contraction, expansion, and domination at "
                      "some finite power",
            "pass": report.partially_hyperbolic,
            "residual": None,
            "n": report.n_certified,
        }],
    }
    if config.fmt == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2), config.out)
    else:
        _emit(_render_cases("lyapunov", _by_id(payload["cases"]), config.fmt),
              config.out)
    return 0 if all(c["pass"] for c in payload["cases"]) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagdyn",
        description="verification suites and simulations for the flag-space "
                    "models and their dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared options; each falls back to its FLAGDYN_<NAME> variable, passed
    # as a string default so that argparse converts and validates it.
    def env(name, fallback=None):
        return os.environ.get(ENV_PREFIX + name.upper(), fallback)

    shared = {
        "--seed": dict(type=int, default=env("seed", "0")),
        "--samples": dict(type=int, default=env("samples")),
        "--tol": dict(type=float, default=env("tol", "1e-9")),
        "--format": dict(dest="fmt", choices=("json", "csv", "human"),
                         default=env("format", "human")),
        "--out": dict(default=env("out")),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", default=None,
                    help=f"one of: {', '.join(checks.suites())} (default: all)")
    add_shared(pv, "--seed", "--samples", "--format", "--out")

    po = sub.add_parser("oracle", help="run one classification oracle")
    po.add_argument("case", help=f"one of: {', '.join(sorted(_ORACLE_CASES))}")
    add_shared(po, "--format", "--out")

    ps = sub.add_parser("simulate", help="iterate a nilmanifold affine map")
    ps.add_argument("--matrix", type=_matrix, default="2,1,1,1",
                    help="integer linear part a,b,c,d with ad-bc=1")
    ps.add_argument("--translation", type=_point, default="0,0,0")
    ps.add_argument("--start", type=_point, default="0.37,0.21,0.13")
    ps.add_argument("-n", "--steps", type=_steps, default=100)
    add_shared(ps, "--out")

    pl = sub.add_parser("lyapunov", help="measure frame rates of an affine map")
    pl.add_argument("--matrix", type=_matrix, default="2,1,1,1")
    pl.add_argument("--translation", type=_point, default="0,0,0")
    pl.add_argument("-n", "--steps", type=_steps, default=200)
    add_shared(pl, "--tol", "--format", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = RunConfig(**{f.name: getattr(args, f.name)
                              for f in fields(RunConfig) if hasattr(args, f.name)})
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "oracle":
            return cmd_oracle(args.case, config)
        if args.command == "simulate":
            return cmd_simulate(args, config)
        return cmd_lyapunov(args, config)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
