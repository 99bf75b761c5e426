"""Brute-force re-derivation of the classification tables.

Every oracle here computes its answer by generic exact linear algebra
(nullspaces, eliminations, rational evaluation) and compares it against a
frozen expected value.  Expected values live only on the expected side of
the report cases, never inside the computing path.  Every system is built
from integer numerators and solved in ints; Fractions are only built for
report values, such as the isotropy eigenvalue table.

The subalgebras of the classification (the model algebras H_T and H_A, the
translation extensions H_1 and H_2, the block sl(2) S_0, SO3, SO12 and
HEIS_ALGEBRA) are module constants, built once at import; a `Subalgebra`
is a read-only record, so every reader shares the one value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .flag_space import Flag, _tangent_ints, orbit_rank
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
    GroupElem,
    LieVec,
    Subalgebra,
    _bracket_ints,
    _strictly_lower_class,
    bracket,
    centralizer,
    conjugate,
    lincomb,
)
from .models import AFFINE, BLOCK
from .rational import _Record, _cleared, cross, dot, in_span, nullspace, rank, solve, span_equal


def _case(case_id, anchor, passed, expected, computed):
    """One report case of an oracle: it has no residual."""
    return {"id": case_id, "anchor": anchor, "pass": passed, "residual": None,
            "expected": expected, "computed": computed}


# ---------------------------------------------------------------------------
# the subalgebras of the classification
# ---------------------------------------------------------------------------

_J = LieVec.of([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

# Block gl(2) with compensating trace in the corner; dimension 4.
H_T = Subalgebra.of([
    LieVec.diag(1, 0, -1),
    LieVec.diag(0, 1, -1),
    LieVec.elementary(0, 1),
    LieVec.elementary(1, 0),
])

# Traceless upper-triangular matrices; dimension 5.
H_A = Subalgebra.of([
    LieVec.diag(1, -1, 0),
    LieVec.diag(0, 1, -1),
    LieVec.elementary(0, 1),
    LieVec.elementary(0, 2),
    LieVec.elementary(1, 2),
])

# Plane translations extended by the block sl(2); dimension 5.
H_1 = Subalgebra.of([
    LieVec.diag(1, -1, 0),
    LieVec.elementary(0, 1),
    LieVec.elementary(1, 0),
    LieVec.elementary(0, 2),
    LieVec.elementary(1, 2),
])

# Plane translations extended by the similarity algebra; dimension 4.
H_2 = Subalgebra.of([
    LieVec.diag(1, 1, -2),
    _J,
    LieVec.elementary(0, 2),
    LieVec.elementary(1, 2),
])

# Block sl(2) in the upper-left corner.
S_0 = Subalgebra.of(BLOCK.frame)

SO3 = Subalgebra.of([
    _J,
    LieVec.of([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
    LieVec.of([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
])

# Infinitesimal isometries of the form x^2 - y^2 - z^2.
SO12 = Subalgebra.of([
    LieVec.of([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
    LieVec.of([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
    LieVec.of([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
])

HEIS_ALGEBRA = Subalgebra.of(AFFINE.frame)

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
    """The report cases of the subalgebra table: dimensions, bracket
    closure, the 4-or-5 dimension bound, and the centralizer values, all
    exact."""
    cases = []
    algebras = {"h-t": H_T, "h-a": H_A, "h-1": H_1, "h-2": H_2}
    for name, alg in algebras.items():
        closed = alg.is_subalgebra()
        cases.append(_case(
            f"subalgebra-{name}",
            "transitive subalgebra list: closure, dim, 4 <= dim <= 5",
            closed and alg.dim == EXPECTED[f"dim-{name}"] and 4 <= alg.dim <= 5,
            f"closed, dim {EXPECTED[f'dim-{name}']}",
            f"closed={closed}, dim {alg.dim}",
        ))

    cent = centralizer(S_0)
    contains = cent.contains(CENTRAL_LINE)
    cases.append(_case(
        "centralizer-s0",
        "Cent(block sl2) = span{diag(1,1,-2)}",
        cent.dim == 1 and contains,
        EXPECTED["centralizer-s0"],
        f"dim {cent.dim}, contains diag(1,1,-2): {contains}",
    ))
    for name, alg in (("so3", SO3), ("so12", SO12)):
        cent = centralizer(alg)
        cases.append(_case(f"centralizer-{name}", f"Cent({name}) = 0", cent.dim == 0,
                           EXPECTED[f"centralizer-{name}"], str(cent.dim)))
    return cases


# ---------------------------------------------------------------------------
# isotropy actions on the quotient frames
# ---------------------------------------------------------------------------

X1_FLAG = Flag.of((0, 0, 1), (1, 0, 0))  # base flag of the h-1 orbit


class IsotropyCase(_Record):
    __slots__ = (
        "algebra",    # the transitive subalgebra
        "base_flag",  # the flag of its open orbit at which the table is read
        "iso_a",      # isotropy generator of a
        "iso_b",      # isotropy generator of b; zero when the isotropy is a line
        "lifts",      # lifts of the quotient frame
    )


_ISOTROPY_CASES = {
    "t": IsotropyCase(H_T, BLOCK.base_flag, LieVec.diag(1, -2, 1), LieVec.zero(), BLOCK.frame),
    "a": IsotropyCase(H_A, AFFINE.base_flag, LieVec.diag(1, -1, 0), LieVec.diag(0, -1, 1),
                      AFFINE.frame),
    "h1": IsotropyCase(H_1, X1_FLAG, LieVec.diag(1, -1, 0), LieVec.elementary(0, 1),
                       (LieVec.elementary(1, 0), LieVec.elementary(0, 2), LieVec.elementary(1, 2))),
    "h2": IsotropyCase(H_2, AFFINE.base_flag, LieVec.diag(1, 1, -2), LieVec.zero(),
                       (_J, LieVec.elementary(1, 2), LieVec.elementary(0, 2))),
}


def _quotient_matrix(iso_basis, lifts, v: LieVec):
    """Matrix of the induced bracket action of v on the span of the lifts
    modulo the isotropy, by exact elimination in ints, as (rows, den): with
    (x, d) solved on the nums, coordinate i of [v, w] is x[i] lifts[i].den
    / (d v.den w.den), and den is the lcm of those denominators."""
    system = list(zip(*[w.nums for w in (*iso_basis, *lifts)]))
    cols = []
    for w in lifts:
        sol = solve(system, _bracket_ints(v.nums, w.nums))
        if sol is None:
            raise ValueError("bracket left the subalgebra")
        x, d = sol
        cols.append(([e * u.den for e, u in zip(x[len(iso_basis):], lifts)], d * v.den * w.den))
    den = math.lcm(*(d for _, d in cols))
    return tuple(zip(*[[e * (den // d) for e in col] for col, d in cols])), den


def _tangent_rows(alg: Subalgebra, base: Flag):
    """The four rows of the action derivatives of alg's basis at base, in
    ints: `_tangent_ints` scales row k by a pivot and column j by
    basis[j].den, which the factor lcm / den turns into one scale per row."""
    lcm = math.lcm(*(b.den for b in alg.basis))
    return list(zip(*[[e * (lcm // b.den) for e in _tangent_ints(b, base)[0]]
                      for b in alg.basis]))


def _isotropy_basis(alg: Subalgebra, base: Flag):
    """Elements of the subalgebra whose action derivative vanishes at the
    base flag, by exact nullspace."""
    return [lincomb(c, alg.basis) for c in nullspace(_tangent_rows(alg, base))]


def isotropy_eigenvalue_table(case: str):
    """Matrix of linear forms in the isotropy parameters (a, b): entry (i, j)
    is a pair (coef_a, coef_b) of Fractions.  Computed by exact elimination
    in ints, on the generators of a and of b."""
    if case not in _ISOTROPY_CASES:
        raise ValueError(f"unknown isotropy case {case!r}")
    data = _ISOTROPY_CASES[case]
    iso_basis = [v for v in (data.iso_a, data.iso_b) if not v.is_zero()]
    qa, da = _quotient_matrix(iso_basis, data.lifts, data.iso_a)
    qb, db = _quotient_matrix(iso_basis, data.lifts, data.iso_b)
    return tuple(tuple((Fraction(qa[i][j], da), Fraction(qb[i][j], db)) for j in range(3))
                 for i in range(3))


# ---------------------------------------------------------------------------
# invariant transverse lines
# ---------------------------------------------------------------------------

class TransverseLineResult(_Record):
    __slots__ = (
        "kind",        # "unique" | "none" | "family"
        "generator",   # LieVec representative of the line when unique, else None
        "family_dim",
    )


def _adapted_lifts(alg: Subalgebra, base: Flag, iso_basis):
    """Lifts of the quotient adapted to the two circle directions plus one
    transverse direction, found by exact linear algebra."""
    tangents = _tangent_rows(alg, base)

    def find(direction):
        # direction "alpha": point part zero; "beta": line part zero
        rows = tangents[:2] if direction == "alpha" else tangents[2:]
        for c in nullspace(rows):
            v = lincomb(c, alg.basis)
            if any(_tangent_ints(v, base)[0]):
                return v
        raise ValueError(f"no {direction}-lift inside the subalgebra")

    v_alpha = find("alpha")
    v_beta = find("beta")
    # transverse lift: completes the isotropy + circle lifts to the algebra
    partial = [v.nums for v in (*iso_basis, v_alpha, v_beta)]
    partial_rank = rank(partial)
    for b in alg.basis:
        if rank([*partial, b.nums]) > partial_rank:
            if orbit_rank((v_alpha, v_beta, b), base) == 3:
                return v_alpha, v_beta, b
    raise ValueError("no transverse lift; the orbit is not open")


def _transverse_forms(alg: Subalgebra, base: Flag):
    """Isotropy basis, adapted lifts, and per isotropy generator with
    quotient matrix Q the coefficients (of x, of y, constant) of the two
    forms (Q00 - Q22) x + Q01 y + Q02 and Q10 x + (Q11 - Q22) y + Q12, whose
    zeros are the lines (x, y, 1) that Q fixes, as Q preserves the contact
    plane (Q20 = Q21 = 0, checked).  The forms are ints, all at one scale,
    the lcm of the quotient denominators, as the stabilizer system reads
    each generator's forms as a column."""
    iso_basis = _isotropy_basis(alg, base)
    lifts = _adapted_lifts(alg, base, iso_basis)
    quotients = [_quotient_matrix(iso_basis, lifts, v) for v in iso_basis]
    scale = math.lcm(*(den for _, den in quotients))
    forms = []
    for q, den in quotients:
        if q[2][0] != 0 or q[2][1] != 0:
            raise ArithmeticError("isotropy action does not preserve the contact plane")
        (a, b, c), (d, e, f), (_, _, g) = [[n * (scale // den) for n in row] for row in q]
        forms.append(((a - g, b, c), (d, e - g, f)))
    return iso_basis, lifts, forms


def invariant_transverse_line_search(alg: Subalgebra, base: Flag) -> TransverseLineResult:
    """Search for lines of the quotient, transverse to the two circle
    directions, preserved by the full induced isotropy action.

    Transverse lines are parametrized as x * alpha-lift + y * beta-lift +
    transverse-lift; invariance under each isotropy generator is the
    vanishing of its two `_transverse_forms`, linear in (x, y).  The
    solution set decides unique / none / family.
    """
    if orbit_rank(alg.basis, base) != 3:
        raise ValueError("base flag does not lie in an open orbit")
    _, lifts, forms = _transverse_forms(alg, base)
    # a zero equation keeps the two unknowns when the isotropy is trivial
    eqs = [(0, 0, 0)] + [f for pair in forms for f in pair]
    rows, rhs = [[a, b] for a, b, _ in eqs], [-k for _, _, k in eqs]
    sol = solve(rows, rhs)
    if sol is None:
        return TransverseLineResult("none", None, 0)
    freedom = nullspace(rows)
    if freedom:
        return TransverseLineResult("family", None, len(freedom))
    (x, y), d = sol
    gen = lincomb(((x, y, d), d), lifts)
    return TransverseLineResult("unique", gen, 0)


def line_class_equals(gen: LieVec, target: LieVec, alg: Subalgebra, base: Flag) -> bool:
    """Whether two transverse-line representatives define the same line of
    the quotient: gen must lie in span(target) + isotropy."""
    iso = _isotropy_basis(alg, base)
    iso_nums = [v.nums for v in iso]
    return in_span([target.nums, *iso_nums], gen.nums) and not in_span(iso_nums, gen.nums)


def transverse_stabilizer_cases(alg: Subalgebra, base: Flag):
    """Stabilizer of the line through (x, y, 1) inside the isotropy, for the
    four sign patterns of (x, y).  Each pattern is evaluated at two generic
    representatives and the answers must agree as subalgebras."""
    iso_basis, _, forms = _transverse_forms(alg, base)

    def stabilizer(x, y):
        # isotropy coefficients c with sum_i c_i Q_i fixing the line (x, y, 1)
        rows = [[a * x + b * y + k for a, b, k in (pair[i] for pair in forms)]
                for i in (0, 1)]
        return [lincomb(c, iso_basis) for c in nullspace(rows)]

    patterns = {
        "x=0,y=0": ((0, 0),),
        "x=0,y!=0": ((0, 1), (0, 5)),
        "x!=0,y=0": ((1, 0), (7, 0)),
        "x!=0,y!=0": ((1, 1), (2, 3)),
    }
    out = {}
    for name, reps in patterns.items():
        stabs = [stabilizer(*rep) for rep in reps]
        first = [v.nums for v in stabs[0]]
        for other in stabs[1:]:
            if not span_equal(first, [v.nums for v in other]):
                raise ArithmeticError(f"pattern {name} is not stable across representatives")
        out[name] = stabs[0]
    return out


# ---------------------------------------------------------------------------
# degeneration matrices along the circles
# ---------------------------------------------------------------------------

def _unipotent_ints(x: LieVec, p, q):
    """q x.den I + p x.nums, flat: I + (p / q) x times q x.den, for p and q
    ints or `rational.Poly`s, so that a Poly t gives I + t x on the ring."""
    return [p * n + q * x.den * (k in (0, 4, 8)) for k, n in enumerate(x.nums)]


def unipotent(x: LieVec, t) -> GroupElem:
    """I + t x, the one-parameter subgroup exp(t x) of a generator x with
    x x = 0; any other x raises ArithmeticError, and a float t TypeError."""
    if not (x @ x).is_zero():
        raise ArithmeticError("a unipotent generator must square to zero")
    return GroupElem._of_ints(_unipotent_ints(x.scale(t), 1, 1))


class DegenerationCase(_Record):
    __slots__ = (
        "model",          # the open model; model.frame[2] is the transported generator
        "boundary_flag",
        "pivot",          # GroupElem carrying the boundary flag to the base flag
        "circle",         # generator C of the circle(t) = I + tC through the boundary flag
        "along",          # model.frame[0] or [1], the model subgroup I + sA
        "expected",       # 3x3 of Laurent polynomials {degree: int coefficient}
        "limit",          # "alpha" or "beta"
    )


DEGENERATION_CASES = {
    "t1": DegenerationCase(
        model=BLOCK, boundary_flag=Flag.of((1, 0, 1), (1, 0, 0)),
        pivot=GroupElem([[1, 0, 0], [1, 0, -1], [0, 1, 0]]),
        circle=LieVec.of([[0, 0, 0], [1, 0, -1], [0, 0, 0]]),
        along=BLOCK.frame[0],
        expected=(
            ({0: 1}, {0: -2}, {-1: -2}),
            ({0: 1}, {0: -2}, {-1: -2}),
            ({1: -1}, {1: 1}, {0: 1}),
        ),
        limit="beta",
    ),
    "t2": DegenerationCase(
        model=BLOCK, boundary_flag=Flag.of((0, 1, 0), (1, 0, 1)),
        pivot=GroupElem([[0, 1, 0], [1, 0, 0], [1, 0, -1]]),
        circle=LieVec.of([[0, 1, 0], [0, 0, 0], [0, 1, 0]]),
        along=BLOCK.frame[1],
        expected=(
            ({0: 1}, {-1: 2}, {}),
            ({}, {0: -1}, {}),
            ({1: 1}, {0: 1}, {}),
        ),
        limit="alpha",
    ),
    "a1": DegenerationCase(
        model=AFFINE, boundary_flag=Flag.of((0, 0, 1), (1, 0, 0)),
        pivot=GroupElem([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        circle=LieVec.elementary(1, 0),
        along=AFFINE.frame[0],
        expected=(
            ({}, {}, {}),
            ({0: 1}, {}, {}),
            ({1: -1}, {}, {}),
        ),
        limit="beta",
    ),
    "a2": DegenerationCase(
        model=AFFINE, boundary_flag=Flag.of((0, 1, 0), (0, 0, 1)),
        pivot=GroupElem([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        circle=LieVec.elementary(2, 1),
        along=AFFINE.frame[1],
        expected=(
            ({}, {}, {}),
            ({}, {}, {}),
            ({1: 1}, {0: 1}, {}),
        ),
        limit="alpha",
    ),
}


class DegenerationResult(_Record):
    __slots__ = ("t", "matrix", "matches", "limit", "sine_distance")

    @property
    def passed(self) -> bool:
        """The oracle's pass rule: the matrix equals its printed value and
        the projected line lies within sine distance 3|t| of its limit e,
        decided exactly: |v x e|^2 <= 9 t^2 |v|^2 for the class v of the
        matrix, in ints with t = p / q.  The float `sine_distance` is the
        reported residual only."""
        v = _cleared(_strictly_lower_class(LieVec.of(self.matrix)))[0]
        vxe = cross(v, _LIMIT_VECTORS[self.limit])
        p, q = self.t.numerator, self.t.denominator
        return self.matches and q * q * dot(vxe, vxe) <= 9 * p * p * dot(v, v)


# parameter values at which the degeneration oracle is evaluated
DEGENERATION_TIMES = (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))

_LIMIT_VECTORS = {"alpha": (1, 0, 0), "beta": (0, 1, 0)}


def _laurent_at(poly, t) -> Fraction:
    """The Laurent polynomial {degree: coefficient} at t."""
    return sum((c * t ** k for k, c in poly.items()), Fraction(0))


def _sine_distance(v, e) -> float:
    """Sine of the angle between v and the unit vector e, in floats (the
    exact kernel takes no floats)."""
    x, y, z = (float(c) for c in v)
    cx = cross((x, y, z), e)
    return (math.sqrt(sum(c * c for c in cx))
            / math.sqrt(sum(c * c for c in (x, y, z))))


def degeneration_limit(case: str, t) -> DegenerationResult:
    """Exact evaluation of the transported transverse generator along the
    degenerating circle: conjugate the model's central generator by
    pivot * circle(-t) * along(1/t) and project modulo the stabilizer."""
    if case not in DEGENERATION_CASES:
        raise ValueError(f"unknown degeneration case {case!r}")
    t = Fraction(t)
    if t == 0:
        raise ZeroDivisionError("the degeneration parameter must be nonzero")
    data = DEGENERATION_CASES[case]
    g = data.pivot @ (unipotent(data.circle, -t) @ unipotent(data.along, 1 / t))
    mat = conjugate(g, data.model.frame[2])
    expected = tuple(tuple(_laurent_at(p, t) for p in row) for row in data.expected)
    e = mat.entries
    dist = _sine_distance(_strictly_lower_class(mat), _LIMIT_VECTORS[data.limit])
    return DegenerationResult(t, e, e == expected, data.limit, dist)


def degeneration_samples(case: str):
    """The degeneration oracle of one case: its results at DEGENERATION_TIMES."""
    return [degeneration_limit(case, t) for t in DEGENERATION_TIMES]


# ---------------------------------------------------------------------------
# holonomy flatness predicate and the bracket table
# ---------------------------------------------------------------------------

def flatness_holonomy_predicate(a, b) -> bool:
    """True when the diagonal part (a, -a-b, b) of an isotropic holonomy
    forces flatness: both resonances b = -5a and a = -5b must fail."""
    a, b = Fraction(a), Fraction(b)
    return b != -5 * a and a != -5 * b


def tresse_bracket_suite():
    """The report cases of the bracket relations of the corner generator
    against the graded basis, verified exactly."""
    relations = [
        ("bracket-corner-e0", bracket(E_SUP_0, E_0), E_1 + E_2, "[e^0, e_0] = e_1 + e_2"),
        ("bracket-corner-ealpha", bracket(E_SUP_0, E_ALPHA), E_SUP_BETA, "[e^0, e_alpha] = e^beta"),
        ("bracket-corner-ebeta", bracket(E_SUP_0, E_BETA), -E_SUP_ALPHA, "[e^0, e_beta] = -e^alpha"),
        ("bracket-corner-e1", bracket(E_SUP_0, E_1), -E_SUP_0, "[e^0, e_1] = -e^0"),
        ("bracket-corner-e2", bracket(E_SUP_0, E_2), -E_SUP_0, "[e^0, e_2] = -e^0"),
    ]
    cases = [_case(cid, anchor, computed == expected, str(expected.entries),
                   str(computed.entries))
             for cid, computed, expected, anchor in relations]
    for name, v in zip(("e^alpha", "e^beta", "e^0"), POSITIVE_BASIS):
        computed = bracket(E_SUP_0, v)
        cases.append(_case(f"bracket-corner-positive-{name}", "[e^0, positive filtration] = 0",
                           computed.is_zero(), "0", str(computed.entries)))
    return cases
