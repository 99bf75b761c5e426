"""Exact kernel for gl(3)/sl(3): brackets, grading, adjoint actions, exponentials.

All algebraic operations are exact and run in flat row-major Python ints: a
`LieVec` is nine ints over one denominator, a `GroupElem` the primitive
integer matrix of its class, `nums`, and its adjugate, `adj`, nine ints each,
so a ratio of two of them is built as a Fraction, never with `/`; one
integer kernel, `_bracket_ints`, serves `bracket`, `centralizer` and
`Subalgebra.is_subalgebra`.

Floats appear only in the numerical exponential `exp_group` and the float
matrix helpers under it, read by `curvature.flow_commutator_defect` alone;
a float matrix is a tuple of rows, each a tuple of Python floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import sub

from .rational import (
    _CanonicalInts,
    _Record,
    _adjugate_ints,
    _cleared,
    _mul_ints,
    _primitive_ints,
    _rows,
    in_span,
    nullspace,
    rank,
    span_equal,
)


class NotUpperTriangularError(ValueError):
    pass


class LieVec(_CanonicalInts):
    """Element of gl(3) over exact rationals: entry (i, j) is nums[3 i + j] /
    den, nine ints over one denominator (see `rational._CanonicalInts`)."""

    __slots__ = ()

    @staticmethod
    def of(rows) -> "LieVec":
        return LieVec(*_cleared(*rows))

    @staticmethod
    def zero() -> "LieVec":
        return LieVec((0,) * 9)

    @staticmethod
    def elementary(i: int, j: int) -> "LieVec":
        nums = [0] * 9
        nums[3 * i + j] = 1
        return LieVec(nums)

    @staticmethod
    def diag(a, b, c) -> "LieVec":
        return LieVec.of([[a, 0, 0], [0, b, 0], [0, 0, c]])

    @property
    def entries(self) -> tuple:
        """The entry rows as Fractions, built from (nums, den) on each read."""
        den = self.den
        return _rows(tuple([Fraction(n, den) for n in self.nums]))

    def __add__(self, other: "LieVec") -> "LieVec":
        a, b = self.den, other.den
        return LieVec([x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __sub__(self, other: "LieVec") -> "LieVec":
        a, b = self.den, other.den
        return LieVec([x * b - y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __neg__(self) -> "LieVec":
        return LieVec([-n for n in self.nums], self.den)

    def scale(self, c) -> "LieVec":
        """c * self, for an int or Fraction c; a float raises TypeError."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError("exact routines take ints and Fractions only")
        return LieVec([n * c.numerator for n in self.nums], self.den * c.denominator)

    def __matmul__(self, other: "LieVec") -> "LieVec":
        return LieVec(_mul_ints(self.nums, other.nums), self.den * other.den)

    def is_traceless(self) -> bool:
        n = self.nums
        return n[0] + n[4] + n[8] == 0

    def transpose(self) -> "LieVec":
        n = self.nums
        return LieVec((n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8]), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def to_float(self, t: float = 1.0) -> tuple:
        """The float matrix of t * self; each entry rounds as float() of its
        Fraction does."""
        den, n = self.den, self.nums
        return tuple(tuple(x / den * t for x in n[i:i + 3]) for i in (0, 3, 6))


def _bracket_ints(a, b):
    """ab - ba for the integer 3x3 matrices with row-major entries a and b."""
    return list(map(sub, _mul_ints(a, b), _mul_ints(b, a)))


def bracket(u: LieVec, v: LieVec) -> LieVec:
    """Commutator uv - vu, exact."""
    return LieVec(_bracket_ints(u.nums, v.nums), u.den * v.den)


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

# Positive part of the filtration (grades >= 1).
POSITIVE_BASIS = (E_SUP_ALPHA, E_SUP_BETA, E_SUP_0)


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
    return {k: LieVec([n if grade == k else 0 for n, grade in zip(v.nums, _GRADES)], v.den)
            for k in range(-2, 3)}


_GRADES = tuple(j - i for i in range(3) for j in range(3))


class GroupElem(_Record):
    """Projective transformation: invertible 3x3 rational matrix up to scale.

    `nums` is the primitive integer matrix of the class, row by row: nine
    ints with gcd 1 whose first nonzero one is positive, so two elements,
    records compared by their fields, are equal exactly when they are one
    class.  `adj`, its adjugate, represents the inverse, computed once.
    `entries`, the rows of `nums`, is a view built on each read.

    `GroupElem(rows)` takes ints and Fractions, not the fields, and rejects
    floats; the products, inverses and transposes stay in ints, and
    `theta_group` builds (g^T)^{-1} as one element, the class of adj(g)^T.
    """

    __slots__ = ("nums", "adj")

    def __init__(self, rows):
        self._store(_cleared(*rows)[0])

    @staticmethod
    def _of_ints(nums) -> "GroupElem":
        """The class of the integer matrix with row-major entries nums."""
        g = object.__new__(GroupElem)
        g._store(nums)
        return g

    def _store(self, nums):
        flat = _primitive_ints(nums)
        adj = _adjugate_ints(flat)
        if flat[0] * adj[0] + flat[1] * adj[3] + flat[2] * adj[6] == 0:
            raise ValueError("projective transformation must be invertible")
        set_nums, set_adj = self._setters
        set_nums(self, flat)
        set_adj(self, tuple(adj))

    @property
    def entries(self) -> tuple:
        return _rows(self.nums)

    def __matmul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem._of_ints(_mul_ints(self.nums, other.nums))

    def inverse(self) -> "GroupElem":
        return GroupElem._of_ints(self.adj)

    def transpose(self) -> "GroupElem":
        n = self.nums
        return GroupElem._of_ints((n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8]))

    def is_upper_triangular(self) -> bool:
        n = self.nums
        return n[3] == 0 and n[6] == 0 and n[7] == 0


def conjugate(g: GroupElem, v: LieVec) -> LieVec:
    """g v g^{-1}, exact.  Scale invariant in the representative of g, so it
    is well defined on projective classes.

    With G the integer entries of g and A their adjugate, g v g^{-1} is
    G nums A / (den det(G)): two integer products and one gcd."""
    n, a = g.nums, g.adj
    det = n[0] * a[0] + n[1] * a[3] + n[2] * a[6]
    prod = _mul_ints(_mul_ints(n, v.nums), a)
    return LieVec(prod, v.den * det)


def theta_involution(v: LieVec) -> LieVec:
    """Lie algebra involution v -> -v^T (exchanges the two circle directions)."""
    n = v.nums
    return LieVec((-n[0], -n[3], -n[6], -n[1], -n[4], -n[7], -n[2], -n[5], -n[8]), v.den)


def theta_group(g: GroupElem) -> GroupElem:
    """Group involution g -> (g^T)^{-1}, the flip-equivariance morphism: the
    class of adj(g)^T, as adj(g^T) = adj(g)^T represents (g^T)^{-1}."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = g.adj
    return GroupElem._of_ints((a0, a3, a6, a1, a4, a7, a2, a5, a8))


# ---------------------------------------------------------------------------
# quotient adjoint action on sl3 / (upper triangular)
# ---------------------------------------------------------------------------

def _strictly_lower_class(m: LieVec):
    """Class of m modulo upper-triangular matrices, as coordinates over
    the images of (e_alpha, e_beta, e_0)."""
    n, d = m.nums, m.den
    return (Fraction(n[7], d), Fraction(n[3], d), Fraction(n[6], d))


def _quotient_adjoint_ints(p: GroupElem):
    """`quotient_adjoint` of p as (nums, den): nine ints, row by row, over
    d1 d2, so that entry (i, j) is nums[3 i + j] / den."""
    if not p.is_upper_triangular():
        raise NotUpperTriangularError("quotient adjoint needs an upper-triangular element")
    d1, p12, _, _, d2, p23, _, _, d3 = p.nums
    return (d1 * d3, 0, -d3 * p12, 0, d2 * d2, d2 * p23, 0, 0, d2 * d3), d1 * d2


def quotient_adjoint(p: GroupElem):
    """Matrix of the induced adjoint action of upper-triangular p on the
    quotient of sl3 by the upper-triangular subalgebra, over the ordered
    basis of classes (e_alpha, e_beta, e_0).

    Closed form, scale invariant in the projective representative: with
    diagonal (d1, d2, d3) and entries p12, p23,

        e_alpha -> (d3/d2) e_alpha
        e_beta  -> (d2/d1) e_beta
        e_0     -> -(d3 p12/(d1 d2)) e_alpha + (p23/d1) e_beta + (d3/d1) e_0

    The entries are Fractions, built from `_quotient_adjoint_ints`.
    """
    nums, den = _quotient_adjoint_ints(p)
    zero = Fraction(0)
    return _rows(tuple([Fraction(n, den) if n else zero for n in nums]))


def quotient_adjoint_bruteforce(p: GroupElem):
    """Independent computation: conjugate each class generator by p and
    project modulo the upper-triangular part."""
    if not p.is_upper_triangular():
        raise NotUpperTriangularError("quotient adjoint needs an upper-triangular element")
    cols = [_strictly_lower_class(conjugate(p, gen)) for gen in (E_ALPHA, E_BETA, E_0)]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# centralizers, subalgebras
# ---------------------------------------------------------------------------

class Subalgebra(_Record):
    """Subalgebra of sl(3) given by a linearly independent basis."""

    __slots__ = ("basis",)

    @staticmethod
    def of(vectors) -> "Subalgebra":
        vecs = tuple(vectors)
        if rank([v.nums for v in vecs]) != len(vecs):
            raise ValueError("basis is linearly dependent")
        return Subalgebra(vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: LieVec) -> bool:
        return in_span([b.nums for b in self.basis], v.nums)

    def is_subalgebra(self) -> bool:
        """Adding every pairwise bracket, in ints, keeps the rank."""
        nums = [b.nums for b in self.basis]
        brackets = [_bracket_ints(u, w) for i, u in enumerate(nums) for w in nums[i + 1:]]
        return rank(nums + brackets) == rank(nums)

    def span_equals(self, other: "Subalgebra") -> bool:
        return span_equal([b.nums for b in self.basis], [b.nums for b in other.basis])

    def map(self, f) -> "Subalgebra":
        return Subalgebra.of([f(b) for b in self.basis])


def centralizer(s: Subalgebra) -> Subalgebra:
    """Exact solution of [v, s] = 0 over the traceless 3x3 matrices: column
    j holds the entries of [BASIS[j], b] times b.den for each b in s, in
    ints, a scale per row.  With no equations the system is one zero row,
    which keeps the eight unknowns."""
    cols = [[e for b in s.basis for e in _bracket_ints(v.nums, b.nums)] for v in BASIS]
    rows = list(zip(*cols)) or [[0] * len(BASIS)]
    return Subalgebra(tuple(lincomb(c, BASIS) for c in nullspace(rows)))


# ---------------------------------------------------------------------------
# float exponentials
# ---------------------------------------------------------------------------

def fmat_mul(a, b):
    """Product of two float 3x3 matrices, written out: entry (i, j) is 0.0 +
    a[i][0] b[0][j] + a[i][1] b[1][j] + a[i][2] b[2][j], sum's order (3.11)."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return ((0.0 + a0 * b0 + a1 * b3 + a2 * b6, 0.0 + a0 * b1 + a1 * b4 + a2 * b7,
             0.0 + a0 * b2 + a1 * b5 + a2 * b8),
            (0.0 + a3 * b0 + a4 * b3 + a5 * b6, 0.0 + a3 * b1 + a4 * b4 + a5 * b7,
             0.0 + a3 * b2 + a4 * b5 + a5 * b8),
            (0.0 + a6 * b0 + a7 * b3 + a8 * b6, 0.0 + a6 * b1 + a7 * b4 + a8 * b7,
             0.0 + a6 * b2 + a7 * b5 + a8 * b8))


def fmat_sub(a, b):
    """Difference of two float matrices of one shape."""
    return tuple(tuple(map(sub, r, s)) for r, s in zip(a, b))


def fnorm(m) -> float:
    """Frobenius norm of a float matrix."""
    return math.hypot(*(x for row in m for x in row))


_EXP_ORDER = 18
# Paterson-Stockmeyer: five blocks, each m^0..m^3 combined with four Taylor
# coefficients (zeros past the order); Horner's rule over them in m^4.
_PS_BLOCK = 4
_EXP_BLOCKS = tuple(
    tuple(1.0 / math.factorial(k) if k <= _EXP_ORDER else 0.0 for k in range(j, j + _PS_BLOCK))
    for j in range(0, _EXP_ORDER + 1, _PS_BLOCK))


def _exp_series(m):
    """The Taylor polynomial at the float 3x3 matrix m, in 7 products.  Block
    entries are 0.0 + c0 x0 + .. + c3 x3 over the entries x of m^0..m^3, the
    5x4 by 4x9 product's order; the blocks and `out` are flat, row by row."""
    pows = [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), m]
    for _ in range(_PS_BLOCK - 1):
        pows.append(fmat_mul(pows[-1], m))
    top = pows.pop()
    entries = list(zip(*[chain.from_iterable(p) for p in pows]))
    *blocks, out = [[0.0 + c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 for x0, x1, x2, x3 in entries]
                    for c0, c1, c2, c3 in _EXP_BLOCKS]
    for block in reversed(blocks):
        out = fmat_mul((out[0:3], out[3:6], out[6:9]), top)
        out = [x + y for x, y in zip(chain.from_iterable(out), block)]
    return tuple(out[0:3]), tuple(out[3:6]), tuple(out[6:9])


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

