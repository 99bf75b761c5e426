"""Brute-force re-derivation of the classification tables.

Every oracle here computes its answer by generic exact linear algebra
(nullspaces, eliminations, rational evaluation) and compares it against a
frozen expected value.  Expected values live only on the expected side of
the reports, never inside the computing path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .flag_space import Flag, flag_derivative, orbit_rank
from .lie_core import (
    GroupElem,
    LieVec,
    Subalgebra,
    bracket,
    centralizer,
    conjugate,
    lincomb,
)
from .models import HEIS_X, HEIS_Y, HEIS_Z, SL2_E, SL2_F, SL2_H
from .rational import cross, in_span, nullspace, rank, solve, span_equal

__all__ = [
    "OracleReport",
    "LaurentPoly",
    "h_t",
    "h_a",
    "h_1",
    "h_2",
    "s_0",
    "so3",
    "so12",
    "heis_algebra",
    "verify_subalgebra_table",
    "isotropy_eigenvalue_table",
    "invariant_transverse_line_search",
    "transverse_stabilizer_cases",
    "TransverseLineResult",
    "degeneration_limit",
    "degeneration_samples",
    "degeneration_symbolic",
    "DEGENERATION_CASES",
    "DegenerationResult",
    "flatness_holonomy_predicate",
    "tresse_bracket_suite",
    "EXPECTED",
]


@dataclass(frozen=True)
class OracleReport:
    case_id: str
    anchor: str
    expected: str
    computed: str
    passed: bool
    residual: float | None = None


# ---------------------------------------------------------------------------
# the subalgebras of the classification
# ---------------------------------------------------------------------------

def h_t() -> Subalgebra:
    """Block gl(2) with compensating trace in the corner; dimension 4."""
    return Subalgebra.of([
        LieVec.diag(1, 0, -1),
        LieVec.diag(0, 1, -1),
        LieVec.elementary(0, 1),
        LieVec.elementary(1, 0),
    ])


def h_a() -> Subalgebra:
    """Traceless upper-triangular matrices; dimension 5."""
    return Subalgebra.of([
        LieVec.diag(1, -1, 0),
        LieVec.diag(0, 1, -1),
        LieVec.elementary(0, 1),
        LieVec.elementary(0, 2),
        LieVec.elementary(1, 2),
    ])


def h_1() -> Subalgebra:
    """Plane translations extended by the block sl(2); dimension 5."""
    return Subalgebra.of([
        LieVec.diag(1, -1, 0),
        LieVec.elementary(0, 1),
        LieVec.elementary(1, 0),
        LieVec.elementary(0, 2),
        LieVec.elementary(1, 2),
    ])


def h_2() -> Subalgebra:
    """Plane translations extended by the similarity algebra; dimension 4."""
    return Subalgebra.of([
        LieVec.diag(1, 1, -2),
        LieVec.of([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        LieVec.elementary(0, 2),
        LieVec.elementary(1, 2),
    ])


def s_0() -> Subalgebra:
    """Block sl(2) in the upper-left corner."""
    return Subalgebra.of([SL2_E, SL2_F, SL2_H])


def so3() -> Subalgebra:
    return Subalgebra.of([
        LieVec.of([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        LieVec.of([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        LieVec.of([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
    ])


def so12() -> Subalgebra:
    """Infinitesimal isometries of the form x^2 - y^2 - z^2."""
    return Subalgebra.of([
        LieVec.of([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        LieVec.of([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        LieVec.of([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
    ])


def heis_algebra() -> Subalgebra:
    return Subalgebra.of([HEIS_X, HEIS_Y, HEIS_Z])


CENTRAL_LINE = LieVec.diag(1, 1, -2)


# frozen expected values; the computing paths never read these
EXPECTED = {
    "dim-h-t": 4,
    "dim-h-a": 5,
    "dim-h-1": 5,
    "dim-h-2": 4,
    "centralizer-s0": "span{diag(1,1,-2)}",
    "centralizer-so3": "0",
    "centralizer-so12": "0",
    "isotropy-t": ((3, 0), (-3, 0), (0, 0)),
    "isotropy-a": ((2, 1), (-1, -2), (1, -1)),
    "isotropy-h2": ((0, 0), (3, 0), (3, 0)),
}


def verify_subalgebra_table():
    """Dimensions, bracket closure, the 4-or-5 dimension bound, and the
    centralizer values, all exact."""
    reports = []
    algebras = {"h-t": h_t(), "h-a": h_a(), "h-1": h_1(), "h-2": h_2()}
    for name, alg in algebras.items():
        closed = alg.is_subalgebra()
        dim_ok = alg.dim == EXPECTED[f"dim-{name}"]
        bound_ok = 4 <= alg.dim <= 5
        reports.append(OracleReport(
            case_id=f"subalgebra-{name}",
            anchor="transitive subalgebra list: closure, dim, 4 <= dim <= 5",
            expected=f"closed, dim {EXPECTED[f'dim-{name}']}",
            computed=f"closed={closed}, dim {alg.dim}",
            passed=closed and dim_ok and bound_ok,
        ))

    cent = centralizer(s_0())
    s0_ok = cent.dim == 1 and cent.contains(CENTRAL_LINE)
    reports.append(OracleReport(
        case_id="centralizer-s0",
        anchor="Cent(block sl2) = span{diag(1,1,-2)}",
        expected=EXPECTED["centralizer-s0"],
        computed=f"dim {cent.dim}, contains diag(1,1,-2): {cent.contains(CENTRAL_LINE)}",
        passed=s0_ok,
    ))
    for name, alg in (("so3", so3()), ("so12", so12())):
        cent = centralizer(alg)
        reports.append(OracleReport(
            case_id=f"centralizer-{name}",
            anchor=f"Cent({name}) = 0",
            expected=EXPECTED[f"centralizer-{name}"],
            computed=str(cent.dim),
            passed=cent.dim == 0,
        ))
    return reports


# ---------------------------------------------------------------------------
# isotropy actions on the quotient frames
# ---------------------------------------------------------------------------

X1_FLAG = Flag.of((0, 0, 1), (1, 0, 0))  # base flag of the h-1 orbit

_J = LieVec.of([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

# case -> (isotropy parametrization v(a, b), frame lifts)
_ISOTROPY_CASES = {
    "t": (lambda a, b: LieVec.diag(a, -2 * a, a), (SL2_E, SL2_F, SL2_H)),
    "a": (lambda a, b: LieVec.diag(a, -a - b, b), (HEIS_X, HEIS_Y, HEIS_Z)),
    "h1": (lambda a, b: LieVec.diag(a, -a, 0) + LieVec.elementary(0, 1).scale(b),
           (LieVec.elementary(1, 0), LieVec.elementary(0, 2), LieVec.elementary(1, 2))),
    "h2": (lambda a, b: LieVec.diag(a, a, -2 * a),
           (_J, LieVec.elementary(1, 2), LieVec.elementary(0, 2))),
}


def _quotient_matrix(iso_basis, lifts, v: LieVec):
    """Matrix of the induced bracket action of v on the span of the lifts
    modulo the isotropy, by exact elimination."""
    full = list(iso_basis) + list(lifts)
    flats = [w.flat() for w in full]
    cols = []
    for w in lifts:
        coords = solve([[flats[j][i] for j in range(len(full))] for i in range(9)],
                       bracket(v, w).flat())
        if coords is None:
            raise ValueError("bracket left the subalgebra")
        cols.append(coords[len(iso_basis):])
    k = len(lifts)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def _isotropy_basis(alg: Subalgebra, base: Flag):
    """Elements of the subalgebra whose action derivative vanishes at the
    base flag, by exact nullspace."""
    tangents = [flag_derivative(b, base) for b in alg.basis]
    return [lincomb(c, alg.basis) for c in nullspace(list(zip(*tangents)))]


def isotropy_eigenvalue_table(case: str):
    """Matrix of linear forms in the isotropy parameters (a, b): entry (i, j)
    is a pair (coef_a, coef_b).  Computed by exact elimination at the
    parameter points (1, 0) and (0, 1)."""
    if case not in _ISOTROPY_CASES:
        raise ValueError(f"unknown isotropy case {case!r}")
    iso_param, lifts = _ISOTROPY_CASES[case]
    iso_a = iso_param(Fraction(1), Fraction(0))
    iso_b = iso_param(Fraction(0), Fraction(1))
    iso_basis = [v for v in (iso_a, iso_b) if not v.is_zero()]
    qa = _quotient_matrix(iso_basis, lifts, iso_a)
    qb = _quotient_matrix(iso_basis, lifts, iso_b)
    return tuple(tuple((qa[i][j], qb[i][j]) for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# invariant transverse lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransverseLineResult:
    kind: str                 # "unique" | "none" | "family"
    coordinates: tuple | None  # (x, y) over the adapted lifts when unique
    generator: LieVec | None  # representative of the line when unique
    family_dim: int


def _adapted_lifts(alg: Subalgebra, base: Flag, iso_basis):
    """Lifts of the quotient adapted to the two circle directions plus one
    transverse direction, found by exact linear algebra."""
    iso_flat = [v.flat() for v in iso_basis]

    tangents = [flag_derivative(b, base) for b in alg.basis]

    def find(direction):
        # direction "alpha": point part zero; "beta": line part zero
        part = range(2) if direction == "alpha" else range(2, 4)
        rows = [[t[k] for t in tangents] for k in part]
        for c in nullspace(rows):
            v = lincomb(c, alg.basis)
            if not any(flag_derivative(v, base)):
                continue
            return v
        raise ValueError(f"no {direction}-lift inside the subalgebra")

    v_alpha = find("alpha")
    v_beta = find("beta")
    # transverse lift: completes the isotropy + circle lifts to the algebra
    partial = iso_flat + [v_alpha.flat(), v_beta.flat()]
    for b in alg.basis:
        if rank(partial + [b.flat()]) > rank(partial):
            if rank([flag_derivative(w, base) for w in (v_alpha, v_beta, b)]) == 3:
                return v_alpha, v_beta, b
    raise ValueError("no transverse lift; the orbit is not open")


def invariant_transverse_line_search(alg: Subalgebra, base: Flag) -> TransverseLineResult:
    """Search for lines of the quotient, transverse to the two circle
    directions, preserved by the full induced isotropy action.

    Transverse lines are parametrized as x * alpha-lift + y * beta-lift +
    transverse-lift; invariance under each isotropy generator is a linear
    condition on (x, y) because the induced action preserves the contact
    plane.  The solution set decides unique / none / family.
    """
    if orbit_rank(alg.basis, base) != 3:
        raise ValueError("base flag does not lie in an open orbit")
    iso_basis = _isotropy_basis(alg, base)
    lifts = _adapted_lifts(alg, base, iso_basis)
    rows, rhs = [], []
    for v in iso_basis:
        q = _quotient_matrix(iso_basis, lifts, v)
        if q[2][0] != 0 or q[2][1] != 0:
            raise ArithmeticError("isotropy action does not preserve the contact plane")
        rows.append([q[0][0] - q[2][2], q[0][1]])
        rhs.append(-q[0][2])
        rows.append([q[1][0], q[1][1] - q[2][2]])
        rhs.append(-q[1][2])
    sol = solve(rows, rhs)
    if sol is None:
        return TransverseLineResult("none", None, None, 0)
    freedom = nullspace(rows)
    if freedom:
        return TransverseLineResult("family", None, None, len(freedom))
    x, y = sol
    gen = lifts[0].scale(x) + lifts[1].scale(y) + lifts[2]
    return TransverseLineResult("unique", (x, y), gen, 0)


def line_class_equals(gen: LieVec, target: LieVec, alg: Subalgebra, base: Flag) -> bool:
    """Whether two transverse-line representatives define the same line of
    the quotient: gen must lie in span(target) + isotropy."""
    iso = _isotropy_basis(alg, base)
    span = [target.flat()] + [v.flat() for v in iso]
    return in_span(span, gen.flat()) and not in_span([v.flat() for v in iso], gen.flat())


def transverse_stabilizer_cases(alg: Subalgebra, base: Flag):
    """Stabilizer of the line through (x, y, 1) inside the isotropy, for the
    four sign patterns of (x, y).  Each pattern is evaluated at two generic
    representatives and the answers must agree as subalgebras."""
    iso_basis = _isotropy_basis(alg, base)
    lifts = _adapted_lifts(alg, base, iso_basis)
    qs = [_quotient_matrix(iso_basis, lifts, v) for v in iso_basis]

    def stabilizer(x, y):
        # isotropy coefficients c with sum_i c_i Q_i fixing the line (x, y, 1)
        rows = [[(q[0][0] - q[2][2]) * x + q[0][1] * y + q[0][2] for q in qs],
                [q[1][0] * x + (q[1][1] - q[2][2]) * y + q[1][2] for q in qs]]
        return [lincomb(c, iso_basis) for c in nullspace(rows)]

    patterns = {
        "x=0,y=0": ((Fraction(0), Fraction(0)),),
        "x=0,y!=0": ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(5))),
        "x!=0,y=0": ((Fraction(1), Fraction(0)), (Fraction(7), Fraction(0))),
        "x!=0,y!=0": ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))),
    }
    out = {}
    for name, reps in patterns.items():
        stabs = [stabilizer(*rep) for rep in reps]
        first = [v.flat() for v in stabs[0]]
        for other in stabs[1:]:
            if not span_equal(first, [v.flat() for v in other]):
                raise ArithmeticError(f"pattern {name} is not stable across representatives")
        out[name] = stabs[0]
    return out


# ---------------------------------------------------------------------------
# exact Laurent polynomials for the degeneration matrices
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in one variable with Fraction coefficients,
    supported on degrees -2..2."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(k): Fraction(v) for k, v in (coeffs or {}).items() if v != 0}

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly({0: Fraction(c)})

    @staticmethod
    def term(c, deg: int) -> "LaurentPoly":
        return LaurentPoly({deg: Fraction(c)})

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        return sum((c * t ** k for k, c in self.coeffs.items()), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({c})t^{k}" if k else f"({c})" for k, c in sorted(self.coeffs.items())]
        return " + ".join(parts)

    @staticmethod
    def fit(samples) -> "LaurentPoly":
        """Exact interpolation from >= 5 samples (t, value) on the degree
        window -2..2; extra samples must be consistent."""
        degs = range(-2, 3)
        pts = [(Fraction(t), Fraction(v)) for t, v in samples]
        rows = [[t ** d for d in degs] for t, _ in pts[:5]]
        sol = solve(rows, [v for _, v in pts[:5]])
        if sol is None:
            raise ArithmeticError("Laurent interpolation failed")
        poly = LaurentPoly(dict(zip(degs, sol)))
        for t, v in pts[5:]:
            if poly(t) != v:
                raise ArithmeticError("degree window -2..2 does not fit the data")
        return poly


def _lp(expr: str) -> LaurentPoly:
    """Tiny builder: 'c' constant, 'c*t' degree 1, 'c/t' degree -1."""
    expr = expr.replace(" ", "")
    if expr.endswith("/t"):
        return LaurentPoly.term(Fraction(expr[:-2]), -1)
    if expr.endswith("*t"):
        return LaurentPoly.term(Fraction(expr[:-2]), 1)
    return LaurentPoly.constant(Fraction(expr))


@dataclass(frozen=True)
class DegenerationCase:
    name: str
    boundary_flag: Flag
    pivot: GroupElem          # carries the boundary flag to the base flag
    circle_group: tuple       # one-parameter subgroup rows, callable of t
    model_group: tuple        # one-parameter subgroup inside the model group
    transported: LieVec       # generator of the transverse line at the anchor
    expected: tuple           # 3x3 of LaurentPoly
    limit: str                # "alpha" or "beta"


DEGENERATION_CASES = {
    "t1": DegenerationCase(
        name="t1",
        boundary_flag=Flag.of((1, 0, 1), (1, 0, 0)),
        pivot=GroupElem([[1, 0, 0], [1, 0, -1], [0, 1, 0]]),
        circle_group=lambda t: [[1, 0, 0], [t, 1, -t], [0, 0, 1]],
        model_group=lambda t: [[1, t, 0], [0, 1, 0], [0, 0, 1]],
        transported=SL2_H,
        expected=(
            (_lp("1"), _lp("-2"), _lp("-2/t")),
            (_lp("1"), _lp("-2"), _lp("-2/t")),
            (_lp("-1*t"), _lp("1*t"), _lp("1")),
        ),
        limit="beta",
    ),
    "t2": DegenerationCase(
        name="t2",
        boundary_flag=Flag.of((0, 1, 0), (1, 0, 1)),
        pivot=GroupElem([[0, 1, 0], [1, 0, 0], [1, 0, -1]]),
        circle_group=lambda t: [[1, t, 0], [0, 1, 0], [0, t, 1]],
        model_group=lambda t: [[1, 0, 0], [t, 1, 0], [0, 0, 1]],
        transported=SL2_H,
        expected=(
            (_lp("1"), _lp("2/t"), _lp("0")),
            (_lp("0"), _lp("-1"), _lp("0")),
            (_lp("1*t"), _lp("1"), _lp("0")),
        ),
        limit="alpha",
    ),
    "a1": DegenerationCase(
        name="a1",
        boundary_flag=Flag.of((0, 0, 1), (1, 0, 0)),
        pivot=GroupElem([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        circle_group=lambda t: [[1, 0, 0], [t, 1, 0], [0, 0, 1]],
        model_group=lambda t: [[1, t, 0], [0, 1, 0], [0, 0, 1]],
        transported=HEIS_Z,
        expected=(
            (_lp("0"), _lp("0"), _lp("0")),
            (_lp("1"), _lp("0"), _lp("0")),
            (_lp("-1*t"), _lp("0"), _lp("0")),
        ),
        limit="beta",
    ),
    "a2": DegenerationCase(
        name="a2",
        boundary_flag=Flag.of((0, 1, 0), (0, 0, 1)),
        pivot=GroupElem([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        circle_group=lambda t: [[1, 0, 0], [0, 1, 0], [0, t, 1]],
        model_group=lambda t: [[1, 0, 0], [0, 1, t], [0, 0, 1]],
        transported=HEIS_Z,
        expected=(
            (_lp("0"), _lp("0"), _lp("0")),
            (_lp("0"), _lp("0"), _lp("0")),
            (_lp("1*t"), _lp("1"), _lp("0")),
        ),
        limit="alpha",
    ),
}


@dataclass(frozen=True)
class DegenerationResult:
    case: str
    t: Fraction
    matrix: tuple
    expected: tuple
    matches: bool
    line_coords: tuple        # class coordinates over (e_alpha, e_beta, e_0)
    limit: str
    sine_distance: float

    @property
    def passed(self) -> bool:
        """The oracle's pass rule: the matrix equals its printed value and
        the projected line lies within sine distance 3|t| of its limit."""
        return self.matches and self.sine_distance <= 3 * abs(float(self.t))


# parameter values at which the degeneration oracle is evaluated
DEGENERATION_TIMES = (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))


_LIMIT_VECTORS = {"alpha": (1.0, 0.0, 0.0), "beta": (0.0, 1.0, 0.0)}


def _sine_distance(v, e) -> float:
    """Sine of the angle between v and the float unit vector e, in floats
    (the exact kernel takes no floats)."""
    x, y, z = (float(c) for c in v)
    cx = cross((x, y, z), e)
    return (math.sqrt(sum(c * c for c in cx))
            / math.sqrt(sum(c * c for c in (x, y, z))))


def degeneration_limit(case: str, t) -> DegenerationResult:
    """Exact evaluation of the transported transverse generator along the
    degenerating circle: conjugate the anchor generator by
    pivot * circle(-t) * model(1/t) and project modulo the stabilizer."""
    if case not in DEGENERATION_CASES:
        raise ValueError(f"unknown degeneration case {case!r}")
    t = Fraction(t)
    if t == 0:
        raise ZeroDivisionError("the degeneration parameter must be nonzero")
    data = DEGENERATION_CASES[case]
    g = GroupElem(data.circle_group(-t)) @ GroupElem(data.model_group(1 / t))
    g = data.pivot @ g
    mat = conjugate(g, data.transported)
    expected = tuple(tuple(data.expected[i][j](t) for j in range(3)) for i in range(3))
    matches = mat.entries == expected
    e = mat.entries
    line = (e[2][1], e[1][0], e[2][0])
    dist = _sine_distance(line, _LIMIT_VECTORS[data.limit])
    return DegenerationResult(case, t, mat.entries, expected, matches,
                              line, data.limit, dist)


def degeneration_samples(case: str):
    """The degeneration oracle of one case: its results at DEGENERATION_TIMES."""
    return [degeneration_limit(case, t) for t in DEGENERATION_TIMES]


def degeneration_symbolic(case: str):
    """Entrywise exact Laurent interpolation of the degeneration matrix from
    rational samples, degree window -2..2, with two consistency samples."""
    ts = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3),
          Fraction(5), Fraction(1, 5)]
    mats = [degeneration_limit(case, t).matrix for t in ts]
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            row.append(LaurentPoly.fit([(t, m[i][j]) for t, m in zip(ts, mats)]))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# holonomy flatness predicate and the bracket table
# ---------------------------------------------------------------------------

def flatness_holonomy_predicate(a, b) -> bool:
    """True when the diagonal part (a, -a-b, b) of an isotropic holonomy
    forces flatness: both resonances b = -5a and a = -5b must fail."""
    a, b = Fraction(a), Fraction(b)
    return b != -5 * a and a != -5 * b


def tresse_bracket_suite():
    """The bracket relations of the corner generator against the graded
    basis, verified exactly."""
    from .lie_core import (
        E_0,
        E_1,
        E_2,
        E_ALPHA,
        E_BETA,
        E_SUP_0,
        E_SUP_ALPHA,
        E_SUP_BETA,
        POSITIVE_BASIS,
    )

    cases = [
        ("bracket-corner-e0", bracket(E_SUP_0, E_0), E_1 + E_2, "[e^0, e_0] = e_1 + e_2"),
        ("bracket-corner-ealpha", bracket(E_SUP_0, E_ALPHA), E_SUP_BETA, "[e^0, e_alpha] = e^beta"),
        ("bracket-corner-ebeta", bracket(E_SUP_0, E_BETA), -E_SUP_ALPHA, "[e^0, e_beta] = -e^alpha"),
        ("bracket-corner-e1", bracket(E_SUP_0, E_1), -E_SUP_0, "[e^0, e_1] = -e^0"),
        ("bracket-corner-e2", bracket(E_SUP_0, E_2), -E_SUP_0, "[e^0, e_2] = -e^0"),
    ]
    reports = []
    for cid, computed, expected, anchor in cases:
        reports.append(OracleReport(
            case_id=cid,
            anchor=anchor,
            expected=str(expected.entries),
            computed=str(computed.entries),
            passed=computed == expected,
        ))
    for name, v in zip(("e^alpha", "e^beta", "e^0"), POSITIVE_BASIS):
        computed = bracket(E_SUP_0, v)
        reports.append(OracleReport(
            case_id=f"bracket-corner-positive-{name}",
            anchor="[e^0, positive filtration] = 0",
            expected="0",
            computed=str(computed.entries),
            passed=computed.is_zero(),
        ))
    return reports
