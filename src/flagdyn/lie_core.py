"""Exact kernel for gl(3)/sl(3): brackets, grading, adjoint actions, exponentials.

All algebraic operations are exact over Fraction.  Floats appear only in
`exp_group` / `exp_ad`, the numerical exponentials used by the dynamics side;
a float matrix there is a tuple of rows, each a tuple of Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub

from .rational import (
    IDENTITY3,
    Scalar,
    _cleared,
    _rows,
    adjugate3,
    det3,
    in_span,
    mat3,
    mat_mul,
    mat_scale,
    mat_sub,
    normalize_lead,
    nullspace,
    rank,
    rref,
    span_equal,
    transpose3,
)

__all__ = [
    "LieVec",
    "GroupElem",
    "Subalgebra",
    "bracket",
    "grade_decompose",
    "quotient_adjoint",
    "quotient_adjoint_bruteforce",
    "centralizer",
    "normalizer",
    "conjugate",
    "ad_matrix",
    "exp_group",
    "exp_ad",
    "theta_involution",
    "theta_group",
    "BASIS",
    "BASIS_NAMES",
]


class NotUpperTriangularError(ValueError):
    pass


@dataclass(frozen=True)
class LieVec:
    """Element of gl(3) over exact rationals."""

    entries: tuple

    @staticmethod
    def of(rows) -> "LieVec":
        return LieVec(mat3(rows))

    @staticmethod
    def zero() -> "LieVec":
        return LieVec(mat3([[0] * 3] * 3))

    @staticmethod
    def elementary(i: int, j: int) -> "LieVec":
        rows = [[0] * 3 for _ in range(3)]
        rows[i][j] = 1
        return LieVec.of(rows)

    @staticmethod
    def diag(a, b, c) -> "LieVec":
        return LieVec.of([[a, 0, 0], [0, b, 0], [0, 0, c]])

    def __add__(self, other: "LieVec") -> "LieVec":
        return LieVec(tuple(tuple(a + b for a, b in zip(r, s))
                            for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other: "LieVec") -> "LieVec":
        return LieVec(mat_sub(self.entries, other.entries))

    def __neg__(self) -> "LieVec":
        return LieVec(mat_scale(-1, self.entries))

    def scale(self, c) -> "LieVec":
        return LieVec(mat_scale(c, self.entries))

    def __matmul__(self, other: "LieVec") -> "LieVec":
        return LieVec(mat_mul(self.entries, other.entries))

    def trace(self) -> Scalar:
        return self.entries[0][0] + self.entries[1][1] + self.entries[2][2]

    def is_traceless(self) -> bool:
        return self.trace() == 0

    def transpose(self) -> "LieVec":
        return LieVec(transpose3(self.entries))

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def flat(self):
        return [e for row in self.entries for e in row]

    def to_float(self, t: float = 1.0) -> tuple:
        """The float matrix of t * self."""
        return tuple(tuple(float(e) * t for e in row) for row in self.entries)


def bracket(u: LieVec, v: LieVec) -> LieVec:
    """Commutator uv - vu, exact."""
    return (u @ v) - (v @ u)


# Basis of the traceless 3x3 matrices adapted to the two-step grading.
E_0 = LieVec.elementary(2, 0)
E_ALPHA = LieVec.elementary(2, 1)
E_BETA = LieVec.elementary(1, 0)
E_1 = LieVec.diag(1, -1, 0)
E_2 = LieVec.diag(0, 1, -1)
E_SUP_ALPHA = LieVec.elementary(1, 2)
E_SUP_BETA = LieVec.elementary(0, 1)
E_SUP_0 = LieVec.elementary(0, 2)

BASIS = (E_0, E_ALPHA, E_BETA, E_1, E_2, E_SUP_ALPHA, E_SUP_BETA, E_SUP_0)
BASIS_NAMES = ("e_0", "e_alpha", "e_beta", "e_1", "e_2",
               "e^alpha", "e^beta", "e^0")

_FLOAT_BASIS = tuple(b.to_float() for b in BASIS)

# Positive part of the filtration (grades >= 1).
POSITIVE_BASIS = (E_SUP_ALPHA, E_SUP_BETA, E_SUP_0)


def traceless_coords(v: LieVec):
    """Coordinates of a traceless v in BASIS (exact), read off its entries:
    the off-diagonal ones directly, and diag(a, b, -a-b) = a E_1 + (a+b) E_2."""
    if not v.is_traceless():
        raise ValueError("expected a traceless matrix")
    return _basis_coords(v.entries)


def _basis_coords(e):
    """BASIS coordinates read off the entry rows e of a traceless matrix."""
    return [e[2][0], e[2][1], e[1][0], e[0][0], e[0][0] + e[1][1],
            e[1][2], e[0][1], e[0][2]]


def lincomb(coefs, vectors) -> LieVec:
    """sum_i coefs[i] vectors[i]; with BASIS, the element of the traceless
    space with those coordinates."""
    out = LieVec.zero()
    for c, b in zip(coefs, vectors):
        out = out + b.scale(c)
    return out


def grade_decompose(v: LieVec) -> dict:
    """Split a traceless matrix into its graded components, keyed -2..2.

    Component k is supported exactly on the entry positions of grade k
    (grade of position (i, j) is j - i; the diagonal is grade 0).
    """
    if not v.is_traceless():
        raise ValueError("grade decomposition is defined on traceless matrices")
    parts = {}
    for k in range(-2, 3):
        rows = [[v.entries[i][j] if j - i == k else Fraction(0)
                 for j in range(3)] for i in range(3)]
        parts[k] = LieVec.of(rows)
    return parts


class GroupElem:
    """Projective transformation: invertible 3x3 rational matrix up to scale.

    The stored representative is canonical: the first nonzero entry in
    row-major order is exactly 1, so projective equality is structural
    equality (and the class is hashable).
    """

    __slots__ = ("entries",)

    def __init__(self, rows):
        m = mat3(rows)
        if det3(m) == 0:
            raise ValueError("projective transformation must be invertible")
        flat = normalize_lead(m[0] + m[1] + m[2])
        self.entries = (flat[0:3], flat[3:6], flat[6:9])

    @staticmethod
    def identity() -> "GroupElem":
        return GroupElem(IDENTITY3)

    def __matmul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(mat_mul(self.entries, other.entries))

    def inverse(self) -> "GroupElem":
        return GroupElem(adjugate3(self.entries))

    def transpose(self) -> "GroupElem":
        return GroupElem(transpose3(self.entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElem) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GroupElem({[list(map(str, r)) for r in self.entries]})"

    def is_upper_triangular(self) -> bool:
        e = self.entries
        return e[1][0] == 0 and e[2][0] == 0 and e[2][1] == 0

    def diagonal(self):
        return (self.entries[0][0], self.entries[1][1], self.entries[2][2])


def conjugate(g: GroupElem, v: LieVec) -> LieVec:
    """g v g^{-1}, exact.  Scale invariant in the representative of g, so it
    is well defined on projective classes.

    It runs on integer multiples: G of g and V = d v.  The integer product
    G V adj(G) is divided by d det(G) once at the end."""
    gm, _ = _cleared(*g.entries)
    vm, den = _cleared(*v.entries)
    big = _rows(gm)
    prod = mat_mul(mat_mul(big, _rows(vm)), adjugate3(big))
    scale = det3(big) * (den or 1)
    return LieVec(tuple(tuple(Fraction(x, scale) for x in row) for row in prod))


def theta_involution(v: LieVec) -> LieVec:
    """Lie algebra involution v -> -v^T (exchanges the two circle directions)."""
    return -v.transpose()


def theta_group(g: GroupElem) -> GroupElem:
    """Group involution g -> (g^T)^{-1}, the flip-equivariance morphism."""
    return g.transpose().inverse()


# ---------------------------------------------------------------------------
# quotient adjoint action on sl3 / (upper triangular)
# ---------------------------------------------------------------------------

def _strictly_lower_class(m: LieVec):
    """Class of m modulo upper-triangular matrices, as coordinates over
    the images of (e_alpha, e_beta, e_0)."""
    e = m.entries
    return (e[2][1], e[1][0], e[2][0])


def quotient_adjoint(p: GroupElem):
    """Matrix of the induced adjoint action of upper-triangular p on the
    quotient of sl3 by the upper-triangular subalgebra, over the ordered
    basis of classes (e_alpha, e_beta, e_0).

    Closed form, scale invariant in the projective representative: with
    diagonal (d1, d2, d3) and entries p12, p23,

        e_alpha -> (d3/d2) e_alpha
        e_beta  -> (d2/d1) e_beta
        e_0     -> -(d3 p12/(d1 d2)) e_alpha + (p23/d1) e_beta + (d3/d1) e_0
    """
    if not p.is_upper_triangular():
        raise NotUpperTriangularError("quotient adjoint needs an upper-triangular element")
    e = p.entries
    d1, d2, d3 = e[0][0], e[1][1], e[2][2]
    p12, p23 = e[0][1], e[1][2]
    return mat3([
        [d3 / d2, 0, -(d3 * p12) / (d1 * d2)],
        [0, d2 / d1, p23 / d1],
        [0, 0, d3 / d1],
    ])


def quotient_adjoint_bruteforce(p: GroupElem):
    """Independent computation: conjugate each class generator by p and
    project modulo the upper-triangular part."""
    if not p.is_upper_triangular():
        raise NotUpperTriangularError("quotient adjoint needs an upper-triangular element")
    cols = [_strictly_lower_class(conjugate(p, gen)) for gen in (E_ALPHA, E_BETA, E_0)]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# centralizers, normalizers, subalgebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subalgebra:
    """Subalgebra of sl(3) given by a linearly independent basis."""

    basis: tuple

    @staticmethod
    def of(vectors) -> "Subalgebra":
        vecs = tuple(vectors)
        if rank([v.flat() for v in vecs]) != len(vecs):
            raise ValueError("basis is linearly dependent")
        return Subalgebra(vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: LieVec) -> bool:
        return in_span([b.flat() for b in self.basis], v.flat())

    def is_subalgebra(self) -> bool:
        flats = [b.flat() for b in self.basis]
        for i, u in enumerate(self.basis):
            for w in self.basis[i + 1:]:
                if not in_span(flats, bracket(u, w).flat()):
                    return False
        return True

    def span_equals(self, other: "Subalgebra") -> bool:
        return span_equal([b.flat() for b in self.basis],
                          [b.flat() for b in other.basis])

    def map(self, f) -> "Subalgebra":
        return Subalgebra.of([f(b) for b in self.basis])


def _traceless_constraint_rows(condition):
    """Rows of the linear system condition(v) = 0 for v in the traceless
    space, where condition maps a LieVec to a list of Fractions."""
    rows = None
    for k, b in enumerate(BASIS):
        vals = condition(b)
        if rows is None:
            rows = [[Fraction(0)] * 8 for _ in vals]
        for i, val in enumerate(vals):
            rows[i][k] = val
    return rows


def centralizer(s: Subalgebra) -> Subalgebra:
    """Exact solution of [v, s] = 0 over the traceless 3x3 matrices."""
    def cond(v):
        out = []
        for b in s.basis:
            out.extend(bracket(v, b).flat())
        return out

    rows = _traceless_constraint_rows(cond)
    return Subalgebra(tuple(lincomb(c, BASIS) for c in nullspace(rows)))


def normalizer(s: Subalgebra) -> Subalgebra:
    """Exact solution of [v, s] contained in s over the traceless matrices."""
    span = [b.flat() for b in s.basis]
    red, pivots = rref(span)

    def cond(v):
        out = []
        for b in s.basis:
            out.extend(_residual_mod_span(bracket(v, b).flat(), red, pivots))
        return out

    rows = _traceless_constraint_rows(cond)
    return Subalgebra(tuple(lincomb(c, BASIS) for c in nullspace(rows)))


def _residual_mod_span(vec, red, pivots):
    v = list(map(Fraction, vec))
    for row, pc in zip(red, pivots):
        if v[pc] != 0:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return v


# ---------------------------------------------------------------------------
# adjoint matrices and exponentials
# ---------------------------------------------------------------------------

def ad_matrix(v: LieVec):
    """8x8 exact matrix of ad(v) = [v, .] over BASIS."""
    cols = [traceless_coords(bracket(v, b)) for b in BASIS]
    return tuple(tuple(cols[j][i] for j in range(8)) for i in range(8))


def fmat_mul(a, b):
    """Product of two float matrices.  The loops run inside map, zip and
    sum, with no bytecode per entry."""
    width = len(b[0])
    prods = map(mul, chain.from_iterable([row * width for row in a]),
                tuple(chain.from_iterable(zip(*b))) * len(a))
    return tuple(zip(*[map(sum, zip(*[prods] * len(b)))] * width))


def fmat_sub(a, b):
    """Difference of two float matrices of one shape."""
    return tuple(tuple(map(sub, r, s)) for r, s in zip(a, b))


def fnorm(m) -> float:
    """Frobenius norm of a float matrix."""
    return math.hypot(*(x for row in m for x in row))


_EXP_ORDER = 18
# Paterson-Stockmeyer: one product of the Taylor coefficients, as a 5x4
# matrix padded with zeros, with the stacked powers m^0..m^3 gives five
# blocks, and Horner's rule runs over them in m^4; 7 matrix products in all.
_PS_BLOCK = 4
_EXP_BLOCKS = tuple(
    tuple(1.0 / math.factorial(k) if k <= _EXP_ORDER else 0.0 for k in range(j, j + _PS_BLOCK))
    for j in range(0, _EXP_ORDER + 1, _PS_BLOCK))


def _exp_series(m):
    """The Taylor polynomial at m; the blocks and `out` are flat, row by row."""
    n = range(len(m))
    pows = [tuple(tuple(float(i == j) for j in n) for i in n), m]
    for _ in range(_PS_BLOCK - 1):
        pows.append(fmat_mul(pows[-1], m))
    top = pows.pop()
    *blocks, out = fmat_mul(_EXP_BLOCKS, [tuple(chain.from_iterable(p)) for p in pows])
    for block in reversed(blocks):
        out = fmat_mul(tuple(zip(*[iter(out)] * len(m))), top)
        out = tuple(map(add, chain.from_iterable(out), block))
    return tuple(zip(*[iter(out)] * len(m)))


def exp_float(m):
    """Matrix exponential by scaling and squaring with a fixed series order:
    the degree-18 Taylor polynomial at m / 2^s, squared s times, with the
    least s that brings the row-sum norm to at most 1/2."""
    norm = max(sum(map(abs, row)) for row in m)
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    scale = 0.5 ** squarings
    out = _exp_series(tuple(tuple(x * scale for x in row) for row in m))
    for _ in range(squarings):
        out = fmat_mul(out, out)
    return out


def exp_group(v: LieVec, t: float = 1.0):
    """exp(t v) as a float 3x3 matrix."""
    return exp_float(v.to_float(t))


def exp_ad(v: LieVec, t: float = 1.0):
    """exp(t ad v) as a float 8x8 matrix; the columns of t ad v are the
    BASIS coordinates of the float brackets [t v, b]."""
    tv = v.to_float(t)
    brackets = (fmat_sub(fmat_mul(tv, b), fmat_mul(b, tv)) for b in _FLOAT_BASIS)
    return exp_float(tuple(zip(*map(_basis_coords, brackets))))


def Ad_of_exp(v: LieVec, t: float = 1.0):
    """Conjugation action of exp(t v) over BASIS, float path.

    Computed from exp_group directly (independent of exp_ad); the two must
    agree to roughly 1e-9 for moderate inputs.  The inverse is exp(-t v)
    rather than a numerical inversion, whose error grows with the condition
    number of exp(t v).  Coordinates are read as in `traceless_coords`.
    """
    g, ginv = exp_group(v, t), exp_group(v, -t)
    return tuple(zip(*(_basis_coords(fmat_mul(fmat_mul(g, b), ginv)) for b in _FLOAT_BASIS)))
