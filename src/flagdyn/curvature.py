"""Normal curvature components, their upper-triangular action, and
operational contact / flatness checks.

The four curvature components (K_alpha, K_beta, K^alpha, K^beta) coordinatize
the invariant module of sl3-valued alternating forms on the quotient tangent
space with the shape

    class(e_alpha) ^ class(e_0)  ->  K^alpha e^0 + K_alpha e^alpha
    class(e_beta)  ^ class(e_0)  ->  K_beta e^beta + K^beta e^0
    class(e_alpha) ^ class(e_beta) -> 0

and the upper-triangular group acts on the module by conjugation in the
target combined with the inverse quotient-adjoint action on the arguments.
That defining action is evaluated by brute force here, in ints on the four
ints over one denominator of a `NormalCurvature`, which is built and read as
those ints only; the diagonal scaling laws used by the flatness argument come
out of it exactly.  The tests hold the dense evaluation it is tested against.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from .lie_core import (
    GroupElem,
    LieVec,
    NotUpperTriangularError,
    _quotient_adjoint_ints,
    bracket,
    exp_group,
    fmat_mul,
    fmat_sub,
    fnorm,
)
from .rational import _CanonicalInts, _cleared, _det_ints, _mat_vec_ints, cross


class NormalCurvature(_CanonicalInts):
    """The components (K_alpha, K_beta, K^alpha, K^beta) as four ints over one
    denominator (see `rational._CanonicalInts`)."""

    __slots__ = ()


ZERO_CURVATURE = NormalCurvature((0, 0, 0, 0))


def is_harmonic(k: NormalCurvature) -> bool:
    """True when both lowest-weight components vanish; this subspace is
    preserved by the upper-triangular action."""
    return k.nums[0] == 0 and k.nums[1] == 0


def curvature_action(p: GroupElem, k: NormalCurvature) -> NormalCurvature:
    """Left action of an upper-triangular p on the curvature module:

        (p . k)(u ^ v) = Ad(p) ( k( Adbar(p)^{-1} u, Adbar(p)^{-1} v ) )

    evaluated by brute force on the wedge basis.  The two wedge values are
    matrices supported on two entries each, so the conjugations reduce to
    sparse products.  The action stays inside the module and its two
    lowest components scale exactly by alpha_scale and beta_scale.

    Each step runs in ints over its tracked denominator: qd for Adbar(p)^-1,
    qd^2 for the wedge coefficients, times k.den for the wedge values and
    times det(p) for their conjugates.  The result is normalized once.
    """
    if not p.is_upper_triangular():
        raise NotUpperTriangularError(
            "the curvature action is defined along the upper-triangular subgroup")
    # Adbar is a morphism, so Adbar(p)^-1 = Adbar(p^-1); and p^-1 is
    # adj(p) / det(p), with det(p) = d1 d2 d3 for upper-triangular p
    q, qd = _quotient_adjoint_ints(p.inverse())
    a, b, z = q[0::3], q[1::3], q[2::3]
    d1, p12, _, _, d2, _, _, _, d3 = p.nums
    det = d1 * d2 * d3
    # the entries of det(p) p^-1 that the two sparse conjugations read
    _, _, _, _, inv11, inv12, _, _, inv22 = p.adj
    k_alpha, k_beta, k_sup_alpha, k_sup_beta = k.nums

    # value on the transported alpha-0 wedge: the coefficient over the third
    # wedge basis vector pairs with the zero value and drops out
    c_a0 = a[0] * z[2] - a[2] * z[0]
    m_sup0, m_supa = c_a0 * k_sup_alpha, c_a0 * k_alpha
    # conjugation of a matrix supported on column 3: outer product with the
    # last row of the inverse, entries (0, 2) and (1, 2)
    v0 = d1 * m_sup0 + p12 * m_supa
    v1 = d2 * m_supa

    # value on the transported beta-0 wedge
    c_b0 = b[1] * z[2] - b[2] * z[1]
    m_supb, m_sup0b = c_b0 * k_beta, c_b0 * k_sup_beta
    # conjugation of a matrix supported on the first row: entries (0, 1), (0, 2)
    r1 = d1 * (m_supb * inv11)
    r2 = d1 * (m_supb * inv12 + m_sup0b * inv22)

    # the value on the transported alpha-beta wedge pairs with the zero
    # slot: both arguments are pure circle classes
    return NormalCurvature((v1 * inv22, r1, v0 * inv22, r2), qd * qd * k.den * det)


def alpha_scale(p: GroupElem) -> tuple:
    """Exact multiplier of the K_alpha component, scale invariant in the
    representative: d1 d2^2 / d3^3 for diagonal (d1, d2, d3), as two ints."""
    d1, d2, d3 = p.nums[0::4]
    return d1 * d2 * d2, d3 * d3 * d3


def beta_scale(p: GroupElem) -> tuple:
    """Exact multiplier of the K_beta component: d1^3 / (d2^2 d3), two ints."""
    d1, d2, d3 = p.nums[0::4]
    return d1 * d1 * d1, d2 * d2 * d3


# ---------------------------------------------------------------------------
# contact test for a two-field frame
# ---------------------------------------------------------------------------

class DegenerateFrameError(ValueError):
    pass


class PolynomialField:
    """Vector field on R^3 with polynomial components, carrying an exact
    closed-form Jacobian.  Both are callables of the point (x, y, z): `func`
    returns the three components, `jacobian` the 3x3 rows of partials."""

    def __init__(self, func, jacobian):
        self._func = func
        self._jac = jacobian

    def __call__(self, p):
        return self._func(p)

    def derivative_along(self, p, w):
        """D F(p) w, exact: one integer product of the cleared Jacobian and w."""
        (jac, jd), (wn, wd) = _cleared(*self._jac(p)), _cleared(w)
        return tuple([Fraction(n, jd * wd) for n in _mat_vec_ints(jac, wn)])


def bracket_of_fields(field_a, field_b, p, va, vb):
    """Lie bracket [A, B](p) = DB(p) A(p) - DA(p) B(p) at a rational point p,
    given the field values va = A(p), vb = B(p): each field's exact
    derivative along the other's value."""
    db = field_b.derivative_along(p, va)
    da = field_a.derivative_along(p, vb)
    return tuple(x - y for x, y in zip(db, da))


def contact_test(field_a, field_b, p) -> bool:
    """True when the bracket of the two fields escapes their span at p,
    i.e. the frame is bracket generating there.

    Each field is a callable of the point with an exact
    `derivative_along(p, w)`.  The point is taken exactly (a float converts
    exactly), so the field values, the bracket and the determinant are
    exact, and the verdict is det(A, B, [A, B]) != 0 with no tolerance.
    """
    p = tuple(map(Fraction, p))
    va, vb = field_a(p), field_b(p)
    # clearing scales rows by positive ints: the zeros tested below are kept
    ab = _cleared(va, vb)[0]
    if not any(cross(ab[:3], ab[3:])):
        raise DegenerateFrameError("fields are dependent at the test point")
    return _det_ints(ab + _cleared(bracket_of_fields(field_a, field_b, p, va, vb))[0]) != 0


# ---------------------------------------------------------------------------
# flow commutator defect
# ---------------------------------------------------------------------------

def flow_commutator_defect(u: LieVec, v: LieVec, t: float) -> float:
    """Norm of exp(-tu) exp(-tv) exp(tu) exp(tv) - exp(t^2 [u, v]) in float
    matrix coordinates.  Third order in t for any pair; exactly zero for a
    pair whose bracket is central and kills both arguments.

    The rectangle must open and close with the u-exponentials for the
    second-order term to be + [u, v]; the opposite nesting lands on the
    inverse bracket and the defect degrades to second order.
    """
    eu, ev, eum, evm = (exp_group(w, s) for s in (t, -t) for w in (u, v))
    comm = fmat_mul(fmat_mul(fmat_mul(eum, evm), eu), ev)
    target = exp_group(bracket(u, v), t * t)
    return fnorm(fmat_sub(comm, target))


def loglog_slope(ts, values) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    return statistics.linear_regression(
        [math.log(t) for t in ts], [math.log(max(v, 1e-300)) for v in values]).slope


_SLOPE_TIMES = (1e-1, 1e-2, 1e-3)


def commutator_slope(u: LieVec, v: LieVec) -> float:
    """Log-log slope of the rectangle defect over t = 0.1, 0.01 and 0.001."""
    return loglog_slope(_SLOPE_TIMES, [flow_commutator_defect(u, v, t) for t in _SLOPE_TIMES])
