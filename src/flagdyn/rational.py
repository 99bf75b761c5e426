"""Exact linear algebra over Fraction.

Small dense routines (row reduction, nullspaces, 3x3 helpers) used by the
algebraic oracles.  Everything here is exact: no floats, no tolerances.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction


def normalize_lead(vec) -> tuple:
    """Canonical representative of the projective class of `vec` (ints or
    Fractions): the vector scaled so its first nonzero entry is exactly 1."""
    lead = next((e for e in vec if e != 0), None)
    if lead is None:
        raise ValueError("zero vector has no projective class")
    lead = Fraction(lead)
    # A list, not a generator: tuple() over a generator over-allocates and
    # then shrinks, which on this hot path raised peak memory by about 1%.
    return tuple([e / lead for e in vec])


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
    """Exact membership of v in span(vectors); all given as coefficient lists."""
    if not vectors:
        return all(e == 0 for e in v)
    cols = [list(map(Fraction, w)) for w in vectors]
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(v))]
    return solve(rows, v) is not None


def span_equal(vs, ws) -> bool:
    if rank(vs) != rank(ws):
        return False
    return all(in_span(vs, w) for w in ws) and all(in_span(ws, v) for v in vs)


# ---------------------------------------------------------------------------
# fixed-size helpers for 3x3 matrices (tuples of tuples of Fraction)
# ---------------------------------------------------------------------------

def mat3(rows):
    return tuple(tuple(Fraction(e) for e in r) for r in rows)


IDENTITY3 = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def mat_mul(a, b):
    # Unrolled: sum() would start each entry with int 0 + Fraction, a mixed
    # add that costs as much as a product on this hot path.
    b0, b1, b2 = b
    return tuple(
        (r[0] * b0[0] + r[1] * b1[0] + r[2] * b2[0],
         r[0] * b0[1] + r[1] * b1[1] + r[2] * b2[1],
         r[0] * b0[2] + r[1] * b1[2] + r[2] * b2[2])
        for r in a
    )


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def vec_mat(v, a):
    """Row vector times matrix (covectors transform this way)."""
    return tuple(sum(v[k] * a[k][j] for k in range(3)) for j in range(3))


def mat_sub(a, b):
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * e for e in row) for row in a)


def transpose3(a):
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def det3(a) -> Fraction:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def adjugate3(a):
    c = [[Fraction(0)] * 3 for _ in range(3)]
    idx = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            s = [k for k in range(3) if k != j]
            minor = a[r[0]][s[0]] * a[r[1]][s[1]] - a[r[0]][s[1]] * a[r[1]][s[0]]
            c[j][i] = (-1) ** (i + j) * minor
    return tuple(tuple(row) for row in c)


def inverse3(a):
    d = det3(a)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    return mat_scale(Fraction(1) / d, adjugate3(a))


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))
