"""Exact linear algebra over the rationals.

Small dense routines (row reduction, nullspaces, 3x3 helpers) used by the
algebraic oracles.  Everything here is exact: entries are ints or
Fractions, never floats, and there are no tolerances.

The 3x3 routines and `normalize_lead` are fraction-free inside.  Each call
clears the denominators of each operand once (their least common multiple,
then the integer multiples), does its products in Python ints, and builds
one normalized Fraction per result entry at the end.  Values and types are
those of the textbook Fraction formulas: all-int input gives int results,
any Fraction input gives Fraction results, and `inverse3` and
`normalize_lead`, which divide, always give Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction


def _cleared(*rows):
    """Clear denominators: the entries of `rows`, in order, as ints nums
    over their least common denominator den, so entry k == nums[k] / den.
    den is None when every entry is an int, so that int input keeps int
    results."""
    entries = [e for row in rows for e in row]
    if all(type(e) is int for e in entries):
        return entries, None
    try:
        nums = [e.numerator for e in entries]
        dens = [e.denominator for e in entries]
    except AttributeError:
        raise TypeError("exact routines take ints and Fractions only") from None
    den = math.lcm(*dens)
    if den == 1:
        return nums, 1
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _quotients(nums, *dens):
    """The values nums[k] / (product of dens), one normalized Fraction each;
    the ints themselves when every den is None (every operand was int)."""
    if all(d is None for d in dens):
        return tuple(nums)
    den = math.prod([d for d in dens if d is not None])
    # A list, not a generator: tuple() over a generator over-allocates and
    # then shrinks, which on this hot path raised peak memory by about 1%.
    return tuple([Fraction(n, den) for n in nums])


def _rows(flat):
    return (flat[0:3], flat[3:6], flat[6:9])


def normalize_lead(vec) -> tuple:
    """Canonical representative of the projective class of `vec` (ints or
    Fractions): the vector scaled so its first nonzero entry is exactly 1."""
    # The common denominator cancels in the ratios.
    nums, _ = _cleared(vec)
    lead = next((n for n in nums if n != 0), None)
    if lead is None:
        raise ValueError("zero vector has no projective class")
    return _quotients(nums, lead)


# ---------------------------------------------------------------------------
# generic exact row reduction
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [e / pv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right nullspace of the matrix given by `rows`."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns one solution or None if inconsistent."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row in red:
        if all(e == 0 for e in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][-1]
    return x


def in_span(vectors, v) -> bool:
    """Exact membership of v in span(vectors); all given as coefficient
    lists.  v is in the span exactly when adding it keeps the rank."""
    return rank([*vectors, v]) == rank(vectors)


def span_equal(vs, ws) -> bool:
    """Exact equality of span(vs) and span(ws): both spans have the rank of
    their sum."""
    return rank(vs) == rank(ws) == rank([*vs, *ws])


# ---------------------------------------------------------------------------
# fixed-size helpers for 3x3 matrices (tuples of tuples of Fraction)
# ---------------------------------------------------------------------------

def mat3(rows):
    return tuple(tuple(Fraction(e) for e in r) for r in rows)


IDENTITY3 = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def mat_mul(a, b):
    na, da = _cleared(*a)
    nb, db = _cleared(*b)
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = nb
    prods = []
    for i in (0, 3, 6):
        x, y, z = na[i:i + 3]
        prods += (x * b00 + y * b10 + z * b20,
                  x * b01 + y * b11 + z * b21,
                  x * b02 + y * b12 + z * b22)
    return _rows(_quotients(prods, da, db))


def mat_vec(a, v):
    na, da = _cleared(*a)
    (x, y, z), dv = _cleared(v)
    return _quotients([na[i] * x + na[i + 1] * y + na[i + 2] * z
                       for i in (0, 3, 6)], da, dv)


def vec_mat(v, a):
    """Row vector times matrix (covectors transform this way)."""
    na, da = _cleared(*a)
    (x, y, z), dv = _cleared(v)
    return _quotients([x * na[j] + y * na[j + 3] + z * na[j + 6]
                       for j in (0, 1, 2)], dv, da)


def mat_sub(a, b):
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * e for e in row) for row in a)


def transpose3(a):
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def _adjugate_ints(n):
    """Adjugate of the integer 3x3 matrix with row-major entries n, flat."""
    a, b, c, d, e, f, g, h, i = n
    return [e * i - f * h, c * h - b * i, b * f - c * e,
            f * g - d * i, a * i - c * g, c * d - a * f,
            d * h - e * g, b * g - a * h, a * e - b * d]


def _det_ints(n):
    a, b, c, d, e, f, g, h, i = n
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det3(a) -> Fraction:
    n, den = _cleared(*a)
    return _quotients([_det_ints(n)], den, den, den)[0]


def adjugate3(a):
    n, den = _cleared(*a)
    return _rows(_quotients(_adjugate_ints(n), den, den))


def inverse3(a):
    n, den = _cleared(*a)
    det = _det_ints(n)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    # a^-1 = adj(a) / det(a) = (adj(n) / den^2) / (det(n) / den^3)
    den = den or 1
    return _rows(_quotients([x * den for x in _adjugate_ints(n)], det))


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))
