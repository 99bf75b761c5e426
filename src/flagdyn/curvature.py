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

The contact test and the identities of the contact checks run on ring
fields, vector fields whose components are `rational.Poly` numerators over
one Poly denominator: the bracket, the contact determinant and the
partials it needs come from the ring, with no derivative written by hand.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from functools import lru_cache

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
from .rational import Poly, _CanonicalInts, _cleared, _det_ints, _values_ints, cross, dot


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


@lru_cache(maxsize=64)
def _jet(field) -> tuple:
    """The 16 Polys of a ring field's jet, flat: its numerators N0, N1, N2
    and denominator q, then the partials of each in x, y and z.  A check
    reads the jets of its few fields at every draw, so the last few are
    kept."""
    nums, den = field
    values = tuple([Poly.of(e) for e in (*nums, den)])
    return values + tuple([p.diff(k) for p in values for k in range(3)])


def _bracket_nums(jet_a, jet_b):
    """The numerators of [A, B] over q^2 r^2 from the jets of A = N / q and
    B = M / r, laid out as `_jet` gives them: Polys, or their values at one
    point, as ints."""
    (n, q, dn, dq), (m, r, dm, dr) = [(j[:3], j[3], (j[4:7], j[7:10], j[10:13]), j[13:])
                                      for j in (jet_a, jet_b)]
    qr, rn, qm = q * r, dot(dr, n), dot(dq, m)
    return [qr * (dot(dm[i], n) - dot(dn[i], m)) - q * rn * m[i] + r * qm * n[i]
            for i in range(3)]


def field_bracket(field_a, field_b):
    """The Lie bracket [A, B] = DB A - DA B of two ring fields, a ring field.

    A ring field is a vector field on R^3 with rational components in the
    chart (x, y, z), given as the tuple (nums, den): three numerators over
    one denominator, each a `rational.Poly` or an int.  For A = N / q and
    B = M / r the bracket is q r (DM N - DN M) - q (N . grad r) M +
    r (M . grad q) N over q^2 r^2."""
    jet_a, jet_b = _jet(field_a), _jet(field_b)
    q_r = jet_a[3] * jet_b[3]
    return tuple(_bracket_nums(jet_a, jet_b)), q_r * q_r


def contact_determinant(field_a, field_b):
    """det(A, B, [A, B]) of two ring fields (see `field_bracket`), as a
    numerator and a denominator, both Polys."""
    jet_a, jet_b = _jet(field_a), _jet(field_b)
    nums, den = field_bracket(field_a, field_b)
    return _det_ints([*jet_a[:3], *jet_b[:3], *nums]), jet_a[3] * jet_b[3] * den


def contact_test(field_a, field_b, p) -> bool:
    """True when the bracket of the two ring fields (see `field_bracket`)
    escapes their span at p, i.e. the frame is bracket generating there.

    p is the point (x, y, z), followed by the values of any further
    indeterminates the fields hold, which are constants: the bracket
    differentiates in x, y and z only.  It is taken exactly (a float
    converts exactly), so the verdict is det(A, B, [A, B]) != 0 with no
    tolerance."""
    nums, den = _cleared([Fraction(e) if isinstance(e, float) else e for e in p])
    return _contact_ints(field_a, field_b, nums, den)


def _contact_ints(field_a, field_b, nums, den) -> bool:
    """`contact_test` at the point nums / den, ints: both jets there, over
    one denominator, which keeps the zeros of what is tested."""
    at = _values_ints(_jet(field_a) + _jet(field_b), nums, den)
    a, b = at[:16], at[16:]
    if a[3] == 0 or b[3] == 0:
        raise DegenerateFrameError("a field is not defined at the test point")
    if not any(cross(a[:3], b[:3])):
        raise DegenerateFrameError("fields are dependent at the test point")
    return _det_ints([*a[:3], *b[:3], *_bracket_nums(a, b)]) != 0


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
