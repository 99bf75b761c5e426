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
That defining action is evaluated by brute force here; the diagonal scaling
laws used by the flatness argument come out of it exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .lie_core import (
    E_SUP_0,
    E_SUP_ALPHA,
    E_SUP_BETA,
    GroupElem,
    LieVec,
    NotUpperTriangularError,
    bracket,
    conjugate,
    exp_group,
    fmat_mul,
    fmat_sub,
    fnorm,
    quotient_adjoint,
)
from .rational import IDENTITY3, cross, det3, inverse3, mat_vec

__all__ = [
    "NormalCurvature",
    "curvature_action",
    "curvature_action_dense",
    "alpha_scale",
    "beta_scale",
    "is_harmonic",
    "contact_test",
    "bracket_of_fields",
    "flow_commutator_defect",
    "PolynomialField",
    "DegenerateFrameError",
]


@dataclass(frozen=True)
class NormalCurvature:
    k_alpha: Fraction
    k_beta: Fraction
    k_sup_alpha: Fraction
    k_sup_beta: Fraction

    @staticmethod
    def of(k_alpha, k_beta, k_sup_alpha, k_sup_beta) -> "NormalCurvature":
        return NormalCurvature(Fraction(k_alpha), Fraction(k_beta),
                               Fraction(k_sup_alpha), Fraction(k_sup_beta))

    @staticmethod
    def zero() -> "NormalCurvature":
        return NormalCurvature.of(0, 0, 0, 0)


def is_harmonic(k: NormalCurvature) -> bool:
    """True when both lowest-weight components vanish; this subspace is
    preserved by the upper-triangular action."""
    return k.k_alpha == 0 and k.k_beta == 0


def _value_on_wedge(k: NormalCurvature, idx: int) -> LieVec:
    """Value of k on the wedge basis (a^0, b^0, a^b)."""
    if idx == 0:
        return E_SUP_0.scale(k.k_sup_alpha) + E_SUP_ALPHA.scale(k.k_alpha)
    if idx == 1:
        return E_SUP_BETA.scale(k.k_beta) + E_SUP_0.scale(k.k_sup_beta)
    return LieVec.zero()


def _evaluate(k: NormalCurvature, u, v) -> LieVec:
    """Bilinear evaluation on quotient coordinates u, v over the class basis
    (e_alpha, e_beta, e_0)."""
    c_a0 = u[0] * v[2] - u[2] * v[0]
    c_b0 = u[1] * v[2] - u[2] * v[1]
    c_ab = u[0] * v[1] - u[1] * v[0]
    out = LieVec.zero()
    for c, idx in ((c_a0, 0), (c_b0, 1), (c_ab, 2)):
        if c != 0:
            out = out + _value_on_wedge(k, idx).scale(c)
    return out


def _extract(mat_a0: LieVec, mat_b0: LieVec, mat_ab: LieVec) -> NormalCurvature:
    """Read the four components back off the three wedge values, checking
    the result stays inside the module."""
    e = mat_a0.entries
    k_sup_alpha, k_alpha = e[0][2], e[1][2]
    ok = all(e[i][j] == 0 for i in range(3) for j in range(3)
             if (i, j) not in ((0, 2), (1, 2)))
    f = mat_b0.entries
    k_beta, k_sup_beta = f[0][1], f[0][2]
    ok = ok and all(f[i][j] == 0 for i in range(3) for j in range(3)
                    if (i, j) not in ((0, 1), (0, 2)))
    ok = ok and mat_ab.is_zero()
    if not ok:
        raise ValueError("image left the normal-curvature module")
    return NormalCurvature(k_alpha, k_beta, k_sup_alpha, k_sup_beta)


def curvature_action(p: GroupElem, k: NormalCurvature) -> NormalCurvature:
    """Left action of an upper-triangular p on the curvature module:

        (p . k)(u ^ v) = Ad(p) ( k( Adbar(p)^{-1} u, Adbar(p)^{-1} v ) )

    evaluated by brute force on the wedge basis.  The two wedge values are
    matrices supported on two entries each, so the conjugations reduce to
    sparse products; curvature_action_dense keeps the unoptimized path and
    the two must agree.  The action stays inside the module and its two
    lowest components scale exactly by alpha_scale and beta_scale.
    """
    if not p.is_upper_triangular():
        raise NotUpperTriangularError(
            "the curvature action is defined along the upper-triangular subgroup")
    adbar_inv = inverse3(quotient_adjoint(p))
    a, b, z = (tuple(adbar_inv[i][j] for i in range(3)) for j in range(3))
    pm = p.entries
    pinv = inverse3(pm)

    # value on the transported alpha-0 wedge: the coefficient over the third
    # wedge basis vector pairs with the zero value and drops out
    c_a0 = a[0] * z[2] - a[2] * z[0]
    m_sup0, m_supa = c_a0 * k.k_sup_alpha, c_a0 * k.k_alpha
    # conjugation of a matrix supported on column 3: outer product with the
    # last row of the inverse
    v0 = pm[0][0] * m_sup0 + pm[0][1] * m_supa
    v1 = pm[1][1] * m_supa
    img_a = ((Fraction(0), Fraction(0), v0 * pinv[2][2]),
             (Fraction(0), Fraction(0), v1 * pinv[2][2]),
             (Fraction(0), Fraction(0), Fraction(0)))

    # value on the transported beta-0 wedge
    c_b0 = b[1] * z[2] - b[2] * z[1]
    m_supb, m_sup0b = c_b0 * k.k_beta, c_b0 * k.k_sup_beta
    # conjugation of a matrix supported on the first row
    d1 = pm[0][0]
    r1 = d1 * (m_supb * pinv[1][1])
    r2 = d1 * (m_supb * pinv[1][2] + m_sup0b * pinv[2][2])
    img_b = ((Fraction(0), r1, r2),
             (Fraction(0), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(0)))

    # value on the transported alpha-beta wedge: both arguments are pure
    # circle classes, so the value pairs with the zero slot
    img_ab = LieVec.zero()
    return _extract(LieVec(img_a), LieVec(img_b), img_ab)


def curvature_action_dense(p: GroupElem, k: NormalCurvature) -> NormalCurvature:
    """Reference implementation of the same action with fully dense
    bilinear evaluation and matrix conjugation."""
    adbar_inv = inverse3(quotient_adjoint(p))
    a, b, z = (mat_vec(adbar_inv, col) for col in IDENTITY3)
    images = [conjugate(p, _evaluate(k, a, z)),
              conjugate(p, _evaluate(k, b, z)),
              conjugate(p, _evaluate(k, a, b))]
    return _extract(*images)


def alpha_scale(p: GroupElem) -> Fraction:
    """Exact multiplier of the K_alpha component, scale invariant in the
    representative: d1 d2^2 / d3^3 for diagonal (d1, d2, d3)."""
    d1, d2, d3 = p.diagonal()
    return (d1 * d2 * d2) / (d3 * d3 * d3)


def beta_scale(p: GroupElem) -> Fraction:
    """Exact multiplier of the K_beta component: d1^3 / (d2^2 d3)."""
    d1, d2, d3 = p.diagonal()
    return (d1 * d1 * d1) / (d2 * d2 * d3)


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
        """D F(p) w, exact."""
        return mat_vec(self._jac(p), w)


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
    va = tuple(map(Fraction, field_a(p)))
    vb = tuple(map(Fraction, field_b(p)))
    if not any(cross(va, vb)):
        raise DegenerateFrameError("fields are dependent at the test point")
    return det3((va, vb, bracket_of_fields(field_a, field_b, p, va, vb))) != 0


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


def commutator_slope(u: LieVec, v: LieVec, ts=(1e-1, 1e-2, 1e-3)) -> float:
    return loglog_slope(ts, [flow_commutator_defect(u, v, t) for t in ts])
