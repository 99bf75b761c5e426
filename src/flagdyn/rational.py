"""Exact linear algebra over the rationals.

Small dense routines (row reduction, nullspaces, 3x3 helpers) used by the
algebraic oracles.  Everything here is exact: no floats, no tolerances, and
no Fraction built.  The one elimination, `_echelon_ints`, is fraction-free
Bareiss elimination on integer rows; `orbit_rank` calls it on its fresh
rows.  `rank`, `nullspace` and `solve` copy their rows through
`operator.index`, so a Fraction or a float entry raises TypeError (a caller
clears a Fraction row, with its right-hand side, first).  `rank` counts
the pivots; `nullspace` and `solve` back-substitute in ints and return
each vector as (ints, den), over one denominator, the last pivot.

The 3x3 routines are one integer layer on flat row-major matrices:
`_mul_ints`, `_mat_vec_ints`, `_vec_mat_ints`, `_adjugate_ints`, `_det_ints`
and `_primitive_ints` take ints only and trust their input.  Each is written
out over its unpacked entries, with no row slices and no loop, as they are
the inner kernels of every exact check; `_primitive_ints` and the
`_CanonicalInts` records divide through one such kernel, `_divided`, and
`_rows` serves only the public row views.  Exact data is kept as integer
representatives (`GroupElem`, the point and line of a `Flag`, and the
`_CanonicalInts` classes `LieVec`, `NormalCurvature`, `AffineMap`, `HeisElem`,
`HeisAuto` and `Block`, of which only `LieVec` and `AffineMap` have Fraction
views), or cleared of its denominators once by `_cleared`, which rejects
floats.  The value types, these among them, and the report types of every
layer are `_Record`s: read-only slotted records, built with no code
generation, whose one base class holds their equality, hashing and repr,
and writes their fields through the slot setters it binds once per class.

`primitive` is the one normalization of a projective class: the integer
representative with gcd 1 and first nonzero entry positive, which points,
lines, group elements, chart directions and frame lines all use.

`Poly` is a sparse polynomial with integer coefficients, a `_Record` whose
one field is canonical, so that record equality is polynomial equality.
The integer cores use only +, - and *, so they run on Polys unchanged,
which turns a formula in ints into the same formula in indeterminates: a
claim about it is then decided as a polynomial identity, by multiplying
out.  `Poly.diff` is the one partial derivative, and `_values_ints`
evaluates Polys at an integer point over one denominator.
"""

from __future__ import annotations

import math
from operator import add, attrgetter, index


def _cleared(*rows):
    """Clear denominators: the entries of `rows` (ints and Fractions), in
    order, as ints nums over their least common denominator den, so entry
    k == nums[k] / den.  A float raises TypeError: it has no numerator."""
    entries = [e for row in rows for e in row]
    try:
        nums = [e.numerator for e in entries]
        dens = [e.denominator for e in entries]
    except AttributeError:
        raise TypeError("exact routines take ints and Fractions only") from None
    den = math.lcm(*dens)
    if den == 1:
        return nums, 1
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _rows(flat):
    return (flat[0:3], flat[3:6], flat[6:9])


class _Record:
    """A read-only record whose fields are the subclass's `__slots__`, or
    its base's when those are empty, set once from positional or keyword
    arguments in field order.  `_setters` holds the fields' slot setters,
    bound once per class, in field order, and they are the one way a field
    is written: a subclass that checks or normalizes its fields writes its
    own `__init__` and stores them through `_setters`.  Equality and hashing
    compare the fields within a subclass, the repr names the class and the
    fields, and assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__["__slots__"] or cls._fields
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _CanonicalInts(_Record):
    """Exact values as ints over one positive denominator: value k is
    nums[k] / den, with gcd(den, *nums) 1.  The form is canonical, so the
    record's equality is equality of values.  `cls(nums, den)` takes any
    ints with den != 0."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=1):
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g == 1:
            nums = tuple(nums)
        else:
            nums = _divided(nums, g)
            den //= g
        set_nums, set_den = self._setters
        set_nums(self, nums)
        set_den(self, den)


def _divided(nums, g) -> tuple:
    """The ints nums, each divided exactly by g, as a tuple: written out for
    the three entries of a point or line and the nine of a matrix, the
    lengths that every exact check normalizes."""
    if len(nums) == 9:
        a, b, c, d, e, f, h, i, j = nums
        return (a // g, b // g, c // g, d // g, e // g, f // g, h // g, i // g, j // g)
    if len(nums) == 3:
        a, b, c = nums
        return (a // g, b // g, c // g)
    return tuple([n // g for n in nums])


def _primitive_ints(nums) -> tuple:
    """`primitive` of a vector of ints."""
    g = math.gcd(*nums)
    if g == 0:
        raise ValueError("zero vector has no projective class")
    for first in nums:
        if first:
            break
    if first < 0:
        g = -g
    elif g == 1:  # already primitive
        return tuple(nums)
    return _divided(nums, g)


def primitive(vec) -> tuple:
    """Canonical integer representative of the projective class of `vec`
    (ints or Fractions): the integer multiple whose entries have gcd 1 and
    whose first nonzero entry is positive."""
    return _primitive_ints(_cleared(vec)[0])


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _echelon_ints(mat):
    """Row echelon form of the integer rows `mat`, which it reduces in
    place: (the nonzero echelon rows, their pivot columns).

    Fraction-free Bareiss elimination (Math. Comp. 22 (1968) 565-578) runs
    below each pivot.  Every entry below the pivots is a minor of `mat`, so
    dividing by the previous pivot is exact and the entries stay the size
    of those minors; the last pivot is the minor of the pivot rows and
    columns."""
    pivots, prev = [], 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        pv = top[c]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            mat[i] = [(pv * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = pv
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat[:len(pivots)], pivots


def _null_vector(echelon, pivots, ncols, free):
    """The vector of the nullspace of the echelon rows, of `ncols` entries,
    with 1 at the non-pivot column `free` and 0 at every other one, as
    (ints, d): entry k is ints[k] / d.

    Its pivot entries are found from the last row up.  The last pivot d is
    the minor of the pivot rows and columns, so by Cramer's rule d times
    the vector is integral: it is solved for in ints, each division by a
    pivot exact.  d may be negative."""
    d = echelon[-1][pivots[-1]] if pivots else 1
    x = [0] * ncols
    x[free] = d
    for row, c in zip(reversed(echelon), reversed(pivots)):
        x[c] = -sum(a * e for a, e in zip(row[c + 1:], x[c + 1:])) // row[c]
    return x, d


def rank(rows) -> int:
    """Rank of the matrix given by the integer `rows`."""
    return len(_echelon_ints([list(map(index, row)) for row in rows])[1])


def nullspace(rows):
    """Basis of the right nullspace of the matrix given by the integer
    `rows`: one (ints, den) vector per non-pivot column, 1 there and 0 at
    the other non-pivot columns.  A matrix with no rows has no columns."""
    ncols = len(rows[0]) if rows else 0
    echelon, pivots = _echelon_ints([list(map(index, row)) for row in rows])
    return [_null_vector(echelon, pivots, ncols, c) for c in range(ncols) if c not in pivots]


def solve(rows, rhs):
    """Solve A x = b exactly for integer A and b: the (ints, den) solution
    that is 0 at every non-pivot column, or None if the system is
    inconsistent.  (x, 1) spans the nullspace of [A | -b] at its last
    column, which is a pivot column exactly when there is no solution."""
    ncols = len(rows[0]) if rows else 0
    echelon, pivots = _echelon_ints([[*map(index, row), -index(b)]
                                     for row, b in zip(rows, rhs, strict=True)])
    if ncols in pivots:
        return None
    x, d = _null_vector(echelon, pivots, ncols + 1, ncols)
    return x[:ncols], d


def in_span(vectors, v) -> bool:
    """Exact membership of v in span(vectors); all given as coefficient
    lists.  v is in the span exactly when adding it keeps the rank."""
    return rank([*vectors, v]) == rank(vectors)


def span_equal(vs, ws) -> bool:
    """Exact equality of span(vs) and span(ws): both spans have the rank of
    their sum."""
    return rank(vs) == rank(ws) == rank([*vs, *ws])


# ---------------------------------------------------------------------------
# 3x3 matrices: integer cores on flat ints
# ---------------------------------------------------------------------------

def _mul_ints(a, b):
    """Product of the integer 3x3 matrices with row-major entries a and b,
    flat, written out."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return [a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8]


def _mat_vec_ints(m, v):
    """The flat integer 3x3 matrix m times the integer column 3-vector v."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = m
    x, y, z = v
    return [a0 * x + a1 * y + a2 * z, a3 * x + a4 * y + a5 * z, a6 * x + a7 * y + a8 * z]


def _vec_mat_ints(v, m):
    """The integer row 3-vector v times the flat integer 3x3 matrix m."""
    x, y, z = v
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = m
    return [x * a0 + y * a3 + z * a6, x * a1 + y * a4 + z * a7, x * a2 + y * a5 + z * a8]


def _adjugate_ints(n):
    """Adjugate of the integer 3x3 matrix with row-major entries n, flat."""
    a, b, c, d, e, f, g, h, i = n
    return [e * i - f * h, c * h - b * i, b * f - c * e,
            f * g - d * i, a * i - c * g, c * d - a * f,
            d * h - e * g, b * g - a * h, a * e - b * d]


def _det_ints(n):
    a, b, c, d, e, f, g, h, i = n
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class Poly(_Record):
    """A polynomial with integer coefficients: its nonzero terms as sorted
    (exponents, coefficient) pairs, where an exponent tuple has no trailing
    zero, so variable k is k zeros and a 1, and a constant's exponents are
    ().  The form is canonical, so the record's equality is equality of
    polynomials; a Poly never equals an int.  `Poly(terms)` takes a mapping
    from exponents to coefficients, or its items.  +, - and * take Polys and
    ints on either side and refuse other numbers with TypeError, so the
    integer kernels above run on Polys unchanged."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self._setters[0](self, tuple(sorted([(e, c) for e, c in dict(terms).items() if c])))

    @staticmethod
    def of(value) -> "Poly":
        """`value`, a Poly or an int, as a Poly."""
        return value if isinstance(value, Poly) else Poly({(): index(value)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms if isinstance(other, Poly) else (((), index(other)),):
            out[e] = out.get(e, 0) + c
        return Poly(out)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({e: c * index(other) for e, c in self.terms})
        if not other.terms:
            return other
        if not self.terms:
            return self
        out = {}
        for e, c in self.terms:
            for f, d in other.terms:
                k = tuple(map(add, e, f)) + (e[len(f):] or f[len(e):])
                out[k] = out.get(k, 0) + c * d
        return Poly(out)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    def diff(self, k: int) -> "Poly":
        """The partial derivative in variable k."""
        out = {}
        for e, c in self.terms:
            if k < len(e) and e[k]:
                f = (*e[:k], e[k] - 1, *e[k + 1:])
                while f and not f[-1]:
                    f = f[:-1]
                out[f] = c * e[k]
        return Poly(out)


def _values_ints(polys, nums, den) -> list:
    """The Polys `polys` at the point nums / den, for ints nums and den, as
    ints over one denominator: each value times den^D, for D the largest
    total degree among them."""
    degree = max([sum(e) for p in polys for e, _ in p.terms], default=0)
    powers = [[n ** k for k in range(degree + 1)] for n in nums]
    scale = [den ** (degree - k) for k in range(degree + 1)]
    values = []
    for p in polys:
        total = 0
        for e, c in p.terms:
            for row, k in zip(powers, e):
                c *= row[k]
            total += c * scale[sum(e)]
        values.append(total)
    return values
