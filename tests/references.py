"""Routines that only the tests call, kept out of `src` so that a fault in
the program is not also a fault in the oracle that gates it: the textbook
3x3 matrix-vector product, determinant and adjugate, the dense curvature
action (which inverts the quotient adjoint with the textbook determinant
and adjugate, not with `rational`'s integer cores), the normalizer, the
differential of the action in its loop form and as Fractions, the
isotropy and lift eliminations on Fraction rows, the flat-structure matrix
in Fractions, affine-map test handles, and the slope chart's coordinates as
Fractions.
"""

from fractions import Fraction

from flagdyn import classification as cls
from flagdyn import curvature as curv
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.rational import _cleared, dot, nullspace, rank, solve


def values(v):
    """The entries of the LieVec v as Fractions, row by row."""
    return [e for row in v.entries for e in row]


# ---------------------------------------------------------------------------
# textbook 3x3 matrix-vector product, determinant and adjugate
# ---------------------------------------------------------------------------

def mat_vec_oracle(a, v):
    return tuple(sum((Fraction(a[i][k]) * v[k] for k in range(3)), Fraction(0))
                 for i in range(3))


def minor(a, i, j):
    r = [k for k in range(3) if k != i]
    s = [k for k in range(3) if k != j]
    return Fraction(a[r[0]][s[0]]) * a[r[1]][s[1]] - Fraction(a[r[0]][s[1]]) * a[r[1]][s[0]]


def det3_oracle(a):
    return sum((Fraction(a[0][j]) * (-1) ** j * minor(a, 0, j) for j in range(3)),
               Fraction(0))


def adjugate3_oracle(a):
    return tuple(tuple((-1) ** (i + j) * minor(a, j, i) for j in range(3))
                 for i in range(3))


# ---------------------------------------------------------------------------
# the dense curvature action
# ---------------------------------------------------------------------------

def _value_on_wedge(k, idx):
    """Value of k on the wedge basis (a^0, b^0, a^b)."""
    k_alpha, k_beta, k_sup_alpha, k_sup_beta = (Fraction(n, k.den) for n in k.nums)
    if idx == 0:
        return lc.E_SUP_0.scale(k_sup_alpha) + lc.E_SUP_ALPHA.scale(k_alpha)
    if idx == 1:
        return lc.E_SUP_BETA.scale(k_beta) + lc.E_SUP_0.scale(k_sup_beta)
    return lc.LieVec.zero()


def _evaluate(k, u, v):
    """Bilinear evaluation on quotient coordinates u, v over the class basis
    (e_alpha, e_beta, e_0)."""
    c_a0 = u[0] * v[2] - u[2] * v[0]
    c_b0 = u[1] * v[2] - u[2] * v[1]
    c_ab = u[0] * v[1] - u[1] * v[0]
    out = lc.LieVec.zero()
    for c, idx in ((c_a0, 0), (c_b0, 1), (c_ab, 2)):
        if c != 0:
            out = out + _value_on_wedge(k, idx).scale(c)
    return out


def _extract(mat_a0, mat_b0, mat_ab):
    """Read the four components back off the three wedge values, checking
    the result stays inside the module.  Entry (i, j) of a value is its
    numerator 3 i + j over its denominator."""
    a, b = mat_a0.nums, mat_b0.nums
    ok = all(x == 0 for k, x in enumerate(a) if k not in (2, 5))
    ok = ok and all(x == 0 for k, x in enumerate(b) if k not in (1, 2))
    ok = ok and mat_ab.is_zero()
    if not ok:
        raise ValueError("image left the normal-curvature module")
    da, db = mat_a0.den, mat_b0.den
    return curv.NormalCurvature((a[5] * db, b[1] * da, a[2] * db, b[2] * da), da * db)


def curvature_action_dense(p, k):
    """(p . k)(u ^ v) = Ad(p) ( k( Adbar(p)^{-1} u, Adbar(p)^{-1} v ) ), with
    fully dense bilinear evaluation and matrix conjugation."""
    adbar = lc.quotient_adjoint(p)
    det = det3_oracle(adbar)
    adbar_inv = [[e / det for e in row] for row in adjugate3_oracle(adbar)]
    a, b, z = zip(*adbar_inv)
    images = [lc.conjugate(p, _evaluate(k, a, z)),
              lc.conjugate(p, _evaluate(k, b, z)),
              lc.conjugate(p, _evaluate(k, a, b))]
    return _extract(*images)


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

def normalizer(s):
    """Exact solution of [v, s] contained in s over the traceless matrices:
    [v, b] lies in s exactly when every annihilator of s kills it.  With no
    equations the system is one zero row, which keeps the eight unknowns."""
    annihilator = nullspace([b.nums for b in s.basis])
    cols = [[dot(a, values(lc.bracket(v, b))) for b in s.basis for a in annihilator]
            for v in lc.BASIS]
    rows = list(zip(*cols)) or [[0] * 8]
    return lc.Subalgebra(tuple(lc.lincomb(c, lc.BASIS) for c in nullspace(rows)))


# ---------------------------------------------------------------------------
# tangents of the flag space
# ---------------------------------------------------------------------------

def killing_with_value(w, x):
    """Some traceless v whose action derivative at x equals the chart
    tangent w = (dx, dy, dz).  Exists because the action is transitive."""
    cols = [fs.fundamental_vector(b, x) for b in lc.BASIS]
    rows = [[cols[j][i] for j in range(8)] for i in range(3)]
    sol = solve(rows, list(w))
    if sol is None:
        raise ValueError("no generator with the requested velocity")
    return lc.lincomb(sol, lc.BASIS)


def tangent_ints_loop(v, x):
    """The loop form of `flag_space._tangent_ints`: for each of m and n, its
    velocity w (v m, and -n v) modulo the base at the two positions k off
    the base's pivot i, its first nonzero entry, as w[k] base[i] - w[i]
    base[k]; and the two pivot entries."""
    rows = v.entries
    velocities = (mat_vec_oracle(rows, x.point),
                  [-sum(x.line[i] * rows[i][j] for i in range(3)) for j in range(3)])
    nums, pivots = [], []
    for w, base in zip(velocities, (x.point, x.line)):
        i = next(k for k, e in enumerate(base) if e != 0)
        nums += [(w[k] * base[i] - w[i] * base[k]) * v.den for k in range(3) if k != i]
        pivots.append(base[i])
    return nums, tuple(pivots)


def flag_derivative(v, x):
    """Derivative of the action of exp(t v) at the flag x, as Fractions: the
    row of `flag_space._tangent_ints`, coordinate k over v.den times the
    pivot of its base."""
    nums, (bm, bn) = fs._tangent_ints(v, x)
    return tuple([Fraction(n, b * v.den) for n, b in zip(nums, (bm, bm, bn, bn))])


def push_tangent(g, x, w):
    """Differential of the action of g at x applied to the chart tangent w,
    computed through the equivariance of fundamental vector fields."""
    v = killing_with_value(w, x)
    return fs.fundamental_vector(lc.conjugate(g, v), fs.act(g, x))


# ---------------------------------------------------------------------------
# the flat structure of the Heisenberg algebra
# ---------------------------------------------------------------------------

def flat_structure_oracle(v, w):
    """The displayed matrix [[a, a', 0], [b, b', 0], [c, c', a b' - b a']] in
    Fractions, for v = aX + bY + cZ and w = a'X + b'Y + c'Z read off their
    entry rows; a matrix off the Heisenberg algebra raises ValueError, and a
    pair with a b' - b a' = 0 raises `models.ContactConditionError`."""
    def coords(u):
        rows = u.entries
        if any(rows[i][j] for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))):
            raise ValueError("not an element of the Heisenberg algebra")
        return rows[0][1], rows[1][2], rows[0][2]

    (a, b, c), (ap, bp, cp) = coords(v), coords(w)
    if a * bp - b * ap == 0:
        raise md.ContactConditionError("not a contact pair")
    return ((a, ap, 0), (b, bp, 0), (c, cp, a * bp - b * ap))


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

def affine_map(linear, translation):
    """The `models.AffineMap` x -> L x + t from the rows of L and t, ints and
    Fractions; a float raises TypeError, from `_cleared`."""
    return md.AffineMap(*_cleared(*linear, translation))


def affine_apply(f, v):
    """L v + t, the textbook formula over Fractions."""
    return tuple(a + t for a, t in zip(mat_vec_oracle(f.linear, v), f.translation))


# ---------------------------------------------------------------------------
# isotropy and lifts on Fraction rows
# ---------------------------------------------------------------------------

def quotient_matrix(iso_basis, lifts, v):
    """`classification._quotient_matrix` solved on the entry values of the
    isotropy basis and the lifts, with the values of [v, w] as the
    right-hand side."""
    full = [values(w) for w in (*iso_basis, *lifts)]
    cols = []
    for w in lifts:
        coords = solve([[u[i] for u in full] for i in range(9)], values(lc.bracket(v, w)))
        cols.append(coords[len(iso_basis):])
    k = len(lifts)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def isotropy_basis(alg, base):
    """`classification._isotropy_basis` on the `flag_derivative` rows."""
    tangents = [flag_derivative(b, base) for b in alg.basis]
    return [lc.lincomb(c, alg.basis) for c in nullspace(list(zip(*tangents)))]


def adapted_lifts(alg, base, iso_basis):
    """`classification._adapted_lifts` on the `flag_derivative` rows."""
    tangents = [flag_derivative(b, base) for b in alg.basis]

    def find(part):
        for c in nullspace([[t[k] for t in tangents] for k in part]):
            v = lc.lincomb(c, alg.basis)
            if any(flag_derivative(v, base)):
                return v
        raise ValueError("no circle lift inside the subalgebra")

    v_alpha, v_beta = find(range(2)), find(range(2, 4))
    partial = [v.nums for v in (*iso_basis, v_alpha, v_beta)]
    for b in alg.basis:
        if rank([*partial, b.nums]) > rank(partial):
            if fs.orbit_rank((v_alpha, v_beta, b), base) == 3:
                return v_alpha, v_beta, b
    raise ValueError("no transverse lift; the orbit is not open")


def isotropy_eigenvalue_table(case):
    """`classification.isotropy_eigenvalue_table` through `quotient_matrix`."""
    data = cls._ISOTROPY_CASES[case]
    iso_basis = [v for v in (data.iso_a, data.iso_b) if not v.is_zero()]
    qa = quotient_matrix(iso_basis, data.lifts, data.iso_a)
    qb = quotient_matrix(iso_basis, data.lifts, data.iso_b)
    return tuple(tuple((qa[i][j], qb[i][j]) for j in range(3)) for i in range(3))


def chart_coords(x):
    """Global coordinates (x, y, z) of the flag x as Fractions: affine point
    plus direction slope z, the direction being (z : 1).  Domain: point off
    infinity and direction not horizontal (BoundaryError elsewhere)."""
    m, n = fs._slope_chart_ints(x)
    return (Fraction(m[0], m[2]), Fraction(m[1], m[2]), Fraction(-n[1], n[0]))
