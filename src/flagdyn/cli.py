"""Batch front-end: verification suites, classification oracles, and
nilmanifold simulations with machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or
configuration error.  Output is a function of the arguments alone, the
seed among them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import checks
from . import classification as cls
from . import dynamics as dyn


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


def cmd_verify(args) -> int:
    outcomes = checks.run_checks(suite=args.suite, seed=args.seed,
                                 samples=args.samples)
    cases = [{
        "id": o.check_id,
        "anchor": o.anchor,
        "pass": o.passed,
        "residual": o.residual,
    } for o in outcomes]
    _emit(_render_cases(args.suite or "all", cases, args.fmt), args.out)
    return 0 if all(c["pass"] for c in cases) else 1


def _report_cases(reports):
    return _by_id({"id": r.case_id, "anchor": r.anchor, "pass": r.passed,
                   "residual": None,
                   "expected": r.expected, "computed": r.computed}
                  for r in reports)


def _degeneration_cases(name):
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


_ORACLE_CASES = {
    "subalgebra-table": lambda: _report_cases(cls.verify_subalgebra_table()),
    "bracket-table": lambda: _report_cases(cls.tresse_bracket_suite()),
    **{f"degeneration-{name}": functools.partial(_degeneration_cases, name)
       for name in cls.DEGENERATION_CASES},
}


def cmd_oracle(args) -> int:
    cases = _ORACLE_CASES[args.case]()
    _emit(_render_cases(args.case, cases, args.fmt), args.out)
    return 0 if all(c["pass"] for c in cases) else 1


# argparse types: with `choices`, they validate every input at parse time,
# once for every subcommand

def _numbers(text: str, arity: int):
    try:
        vals = tuple(map(float, text.split(",")))
    except ValueError:  # a token float() cannot read; refused below
        vals = ()
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


def _exact(text: str):
    """The comma-separated numbers of text, once `_numbers` has read them, as
    exact Fractions.  Fraction reads what float reads without rounding, so
    2.0 and 1e3 are integers and 2**53 + 1 stays odd.  A nonzero number that
    rounds to a float zero is refused: it is no integer or half-integer, and
    its exponent could ask Fraction for any power of ten."""
    tokens = text.split(",")
    if any(float(t) == 0 and Decimal(t) != 0 for t in tokens):
        raise argparse.ArgumentTypeError(
            f"nonzero numbers must not round to a float zero, got {text!r}")
    return tuple(Fraction(t) if float(t) else Fraction(0) for t in tokens)


def _translation(text: str):
    # checked as a point, then kept exact for NilMap.of's lattice check
    _point(text)
    return _exact(text)


def _matrix(text: str):
    _numbers(text, 4)
    vals = _exact(text)
    if any(v.denominator != 1 for v in vals):
        raise argparse.ArgumentTypeError("linear part entries must be integers")
    return tuple(map(int, vals[:2])), tuple(map(int, vals[2:]))


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_FORMATS = ("json", "csv", "human")


def _out(path: str) -> str | None:
    # An empty path means stdout, as no --out does, for every command.
    if path == "":
        return None
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError(f"the directory of {path!r} does not exist")
    return path


def cmd_simulate(args) -> int:
    try:
        f = dyn.NilMap.of(args.matrix, args.translation)
        # one step maps the box into coordinates up to the largest row sum
        if max(abs(a) + abs(b) for a, b in f.linear) > MAX_COORDINATE:
            raise ValueError("the absolute row sums of the linear part must be "
                             "at most 2**52, as a coordinate must")
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.out:
        dyn.write_trajectory_csv(args.out, f, args.start, args.steps)
    else:
        dyn.write_trajectory(sys.stdout, f, args.start, args.steps)
    return 0


def cmd_lyapunov(args) -> int:
    try:
        f = dyn.NilMap.of(args.matrix, args.translation)
        rates = dyn.tangent_rates(f, n=args.steps)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report = dyn.hyperbolicity_report([r.measured for r in rates.values()])
    cases = [{
        "id": f"rate-{d}",
        "anchor": "per-step log growth along the invariant frame, "
                  "finite differences vs eigenvalue",
        "pass": r.error <= 1e-3,
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
    }]
    # JSON keeps the rates first; the tabular formats sort by id.
    _emit(_render_cases("lyapunov", cases if args.fmt == "json" else _by_id(cases),
                        args.fmt), args.out)
    return 0 if all(c["pass"] for c in cases) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagdyn",
        description="verification suites and simulations for the flag-space "
                    "models and their dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0),
        "--samples": dict(type=_count),
        "--format": dict(dest="fmt", choices=_FORMATS, default="human"),
        "--out": dict(type=_out),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", choices=checks.suites(), metavar="SUITE",
                    help=f"one of: {', '.join(checks.suites())} (default: all)")
    add_shared(pv, "--seed", "--samples", "--format", "--out")
    pv.set_defaults(run=cmd_verify)

    po = sub.add_parser("oracle", help="run one classification oracle")
    po.add_argument("case", choices=sorted(_ORACLE_CASES), metavar="case",
                    help=f"one of: {', '.join(sorted(_ORACLE_CASES))}")
    add_shared(po, "--format", "--out")
    po.set_defaults(run=cmd_oracle)

    ps = sub.add_parser("simulate", help="iterate a nilmanifold affine map")
    pl = sub.add_parser("lyapunov", help="measure frame rates of an affine map")
    dash = "; a value beginning with '-' needs the form {}=VALUE".format
    for p in (ps, pl):
        p.add_argument("--matrix", type=_matrix, default="2,1,1,1",
                       help="integer linear part a,b,c,d with ad-bc=1" + dash("--matrix"))
        p.add_argument("--translation", type=_translation, default="0,0,0",
                       help="x,y,z with x and y half-integers" + dash("--translation"))
    ps.add_argument("--start", type=_point, default="0.37,0.21,0.13",
                    help="x,y,z of the first point" + dash("--start"))
    ps.add_argument("-n", "--steps", type=_count, default=100)
    add_shared(ps, "--out")
    ps.set_defaults(run=cmd_simulate)

    pl.add_argument("-n", "--steps", type=_count, default=200)
    add_shared(pl, "--format", "--out")
    pl.set_defaults(run=cmd_lyapunov)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
