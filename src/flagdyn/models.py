"""The two homogeneous models of the flag space and their algebraic avatars.

One open set carries a simply transitive copy of SL(2) (embedded in the
upper-left block), the other a simply transitive Heisenberg group; both carry
an invariant transverse line field completing the two circle directions to a
frame.  This module provides the Heisenberg arithmetic, the diagonal
automorphisms, the group identifications conjugating the geometric and
algebraic pictures, the affine linearization of the Heisenberg affine group,
and the closed-form commuting-flow identities of the affine model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .flag_space import (
    BoundaryError,
    Flag,
    Region,
    affine_chart,
    chart_coords,
    flag_from_coords,
    fundamental_vector,
    region_classify,
)
from .lie_core import GroupElem, LieVec, conjugate
from .rational import Scalar, inverse3, mat_mul, mat_sub, mat_vec, normalize_lead, vec_mat

__all__ = [
    "HeisElem",
    "HeisAuto",
    "AffineMap",
    "FramedPoint",
    "SL2_E",
    "SL2_F",
    "SL2_H",
    "HEIS_X",
    "HEIS_Y",
    "HEIS_Z",
    "CENTRAL_T",
    "heis_semidirect_mul",
    "theta_affine",
    "flat_structure_iso",
    "frame_at",
    "transporter",
    "InvariantField",
    "equivariance_t",
    "equivariance_t_inverse",
    "mat_mul2",
    "equivariance_a",
    "equivariance_a_inverse",
    "central_flow_fields",
    "commutator_identity_check",
    "MembershipError",
    "ContactConditionError",
]


class MembershipError(ValueError):
    pass


class ContactConditionError(ValueError):
    pass


# sl(2) triple embedded in the upper-left block, plus the transverse
# generators of the two models.
SL2_E = LieVec.elementary(0, 1)
SL2_F = LieVec.elementary(1, 0)
SL2_H = LieVec.diag(1, -1, 0)

HEIS_X = LieVec.elementary(0, 1)
HEIS_Y = LieVec.elementary(1, 2)
HEIS_Z = LieVec.elementary(0, 2)

# central element of the block-diagonal model algebra; its flow generates
# the transverse direction of that model globally
CENTRAL_T = LieVec.diag(1, 1, -2)


# ---------------------------------------------------------------------------
# Heisenberg group in matrix coordinates [x, y, z] (upper unitriangular)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeisElem:
    """Upper-unitriangular 3x3 matrix with entries [x, y, z] above the
    diagonal, kept in exact coordinates."""

    x: Scalar
    y: Scalar
    z: Scalar

    @staticmethod
    def of(x, y, z) -> "HeisElem":
        return HeisElem(Fraction(x), Fraction(y), Fraction(z))

    @staticmethod
    def identity() -> "HeisElem":
        return HeisElem.of(0, 0, 0)

    def mul(self, other: "HeisElem") -> "HeisElem":
        return HeisElem(self.x + other.x,
                        self.y + other.y,
                        self.z + other.z + self.x * other.y)

    def inverse(self) -> "HeisElem":
        return HeisElem(-self.x, -self.y, -self.z + self.x * self.y)

    def to_exponential(self):
        """Exponential coordinates: (x, y, z - xy/2)."""
        return (self.x, self.y, self.z - self.x * self.y / 2)

    @staticmethod
    def from_exponential(x, y, z) -> "HeisElem":
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        return HeisElem(x, y, z + x * y / 2)

    def as_group_elem(self) -> GroupElem:
        return GroupElem([[1, self.x, self.z],
                          [0, 1, self.y],
                          [0, 0, 1]])


@dataclass(frozen=True)
class HeisAuto:
    """Diagonal automorphism scaling the two generating directions by lam
    and mu; the center scales by lam*mu."""

    lam: Scalar
    mu: Scalar

    @staticmethod
    def of(lam, mu) -> "HeisAuto":
        lam, mu = Fraction(lam), Fraction(mu)
        if lam == 0 or mu == 0:
            raise ValueError("automorphism parameters must be nonzero")
        return HeisAuto(lam, mu)

    @staticmethod
    def identity() -> "HeisAuto":
        return HeisAuto.of(1, 1)

    def apply(self, g: HeisElem) -> HeisElem:
        return HeisElem(self.lam * g.x, self.mu * g.y, self.lam * self.mu * g.z)

    def compose(self, other: "HeisAuto") -> "HeisAuto":
        return HeisAuto(self.lam * other.lam, self.mu * other.mu)

    def inverse(self) -> "HeisAuto":
        return HeisAuto(1 / self.lam, 1 / self.mu)


def heis_semidirect_mul(a, b):
    """Product in the affine automorphism group: (g1, f1)(g2, f2) =
    (g1 * f1(g2), f1 o f2)."""
    g1, f1 = a
    g2, f2 = b
    return (g1.mul(f1.apply(g2)), f1.compose(f2))


# ---------------------------------------------------------------------------
# affine linearization of the Heisenberg affine group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> L x + t on R^3, exact entries."""

    linear: tuple
    translation: tuple

    @staticmethod
    def of(linear, translation) -> "AffineMap":
        lin = tuple(tuple(Fraction(e) for e in row) for row in linear)
        tr = tuple(Fraction(e) for e in translation)
        return AffineMap(lin, tr)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])

    def apply(self, v):
        lv = mat_vec(self.linear, [Fraction(e) for e in v])
        return tuple(a + t for a, t in zip(lv, self.translation))

    def compose(self, other: "AffineMap") -> "AffineMap":
        return AffineMap(mat_mul(self.linear, other.linear), self.apply(other.translation))


def theta_affine(g: HeisElem, phi: HeisAuto) -> AffineMap:
    """Injective morphism from the affine automorphism group into the affine
    transformations of R^3, reading matrix coordinates as plain vectors:

        linear part [[lam, 0, 0], [0, mu, 0], [0, mu*x, lam*mu]],
        translation (x, y, z).
    """
    lam, mu = phi.lam, phi.mu
    return AffineMap.of(
        [[lam, 0, 0], [0, mu, 0], [0, mu * g.x, lam * mu]],
        (g.x, g.y, g.z),
    )


# ---------------------------------------------------------------------------
# left-invariant structure transported from the Heisenberg generators
# ---------------------------------------------------------------------------

def flat_structure_iso(v: LieVec, w: LieVec):
    """Automorphism matrix of the Heisenberg algebra in the basis (X, Y, Z)
    sending (X, Y) to the contact pair (v, w):

        [[a, a', 0], [b, b', 0], [c, c', a b' - b a']]

    for v = aX + bY + cZ and w = a'X + b'Y + c'Z.  Requires the contact
    condition [v, w] outside span(v, w), which implies a b' - b a' != 0.
    """
    def heis_coords(u: LieVec):
        e = u.entries
        ok = all(e[i][j] == 0 for i in range(3) for j in range(3)
                 if (i, j) not in ((0, 1), (1, 2), (0, 2)))
        if not ok:
            raise ValueError("not an element of the Heisenberg algebra")
        return e[0][1], e[1][2], e[0][2]

    a, b, c = heis_coords(v)
    ap, bp, cp = heis_coords(w)
    d = a * bp - b * ap
    if d == 0:
        raise ContactConditionError(
            "the pair does not span a contact plane (a b' - b a' = 0)")
    return ((a, ap, Fraction(0)),
            (b, bp, Fraction(0)),
            (c, cp, d))


# ---------------------------------------------------------------------------
# invariant frames on the two open models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramedPoint:
    """A flag together with the three invariant tangent lines at it, each a
    projective direction in chart coordinates (first nonzero entry 1)."""

    flag: Flag
    line_alpha: tuple
    line_beta: tuple
    line_c: tuple


def transporter(x: Flag, model: str) -> GroupElem:
    """Group element of the model's transitive subgroup carrying the base
    flag of the model to x; closed form from the chart coordinates."""
    if region_classify(x, model) is not Region.INTERIOR:
        raise BoundaryError("frame transport needs an interior flag")
    if model == "a":
        px, py, z = chart_coords(x)
        return HeisElem.of(z, py, px).as_group_elem()
    if model == "t":
        (px, py), (u, v) = affine_chart(x)
        d = px * v - py * u
        return GroupElem([[px, u / d, 0], [py, v / d, 0], [0, 0, 1]])
    raise ValueError(f"unknown model {model!r}")


_BASE_GENERATORS = {
    "t": (SL2_E, SL2_F, SL2_H),
    "a": (HEIS_X, HEIS_Y, HEIS_Z),
}


def _transporter_jet(p, w, model: str):
    """`transporter` of the chart point p as a plain matrix h, not
    lead-normalized, and its derivative dh along w.  A chart point is
    interior to model t exactly when d = x - yz != 0, and always to a."""
    x, y, z = p
    wx, wy, wz = w
    if model == "a":
        return (((1, z, x), (0, 1, y), (0, 0, 1)),
                ((0, wz, wx), (0, 0, wy), (0, 0, 0)))
    d = x - y * z
    if d == 0:
        raise BoundaryError("frame transport needs an interior flag")
    dd = wx - wy * z - y * wz
    return (((x, z / d, 0), (y, 1 / d, 0), (0, 0, 1)),
            ((wx, (wz * d - z * dd) / (d * d), 0), (wy, -dd / (d * d), 0), (0, 0, 0)))


class InvariantField:
    """The model's invariant vector field extending the generator `gen` at
    its base flag, in the chart (x, y, z): at p, the velocity of
    conjugate(h, gen), h the transporter of the flag of p.  Exact, and
    defined on the interior only (BoundaryError elsewhere)."""

    def __init__(self, gen: LieVec, model: str):
        if model not in _BASE_GENERATORS:
            raise ValueError(f"unknown model {model!r}")
        self.gen = gen
        self.model = model

    def __call__(self, p):
        flag = flag_from_coords(*p)
        return fundamental_vector(conjugate(transporter(flag, self.model), self.gen), flag)

    def derivative_along(self, p, w):
        """D F(p) w, exact: first-order jets pushed through the chain of
        __call__ at the matrix level.  With V = h gen h^-1, dV = [dh h^-1, V].
        The flag of p has the point m = (x, y, 1) and the line n = (-1, z,
        x - yz), and F(p) = (a0 - x a2, a1 - y a2, -(b1 + z b0)) for a = V m
        and b = n V; the product rule differentiates each term."""
        x, y, z = p = tuple(map(Fraction, p))
        wx, wy, wz = w = tuple(map(Fraction, w))
        h, dh = _transporter_jet(p, w, self.model)
        hinv = inverse3(h)
        v = mat_mul(mat_mul(h, self.gen.entries), hinv)
        k = mat_mul(dh, hinv)
        dv = mat_sub(mat_mul(k, v), mat_mul(v, k))
        m, dm = (x, y, 1), (wx, wy, 0)
        n, dn = (-1, z, x - y * z), (0, wz, wx - wy * z - y * wz)
        a, b = mat_vec(v, m), vec_mat(n, v)
        da = [s + t for s, t in zip(mat_vec(dv, m), mat_vec(v, dm))]
        db = [s + t for s, t in zip(vec_mat(n, dv), vec_mat(dn, v))]
        return (da[0] - wx * a[2] - x * da[2],
                da[1] - wy * a[2] - y * da[2],
                -(db[1] + wz * b[0] + z * db[0]))


def frame_at(x: Flag, model: str) -> FramedPoint:
    """Invariant frame at an interior flag, obtained by transporting the
    base frame by any group element carrying the base flag to x; the result
    does not depend on the choice."""
    h = transporter(x, model)
    gens = _BASE_GENERATORS[model]
    lines = [normalize_lead(fundamental_vector(conjugate(h, g), x))
             for g in gens]
    return FramedPoint(x, *lines)


# ---------------------------------------------------------------------------
# equivariant identifications of the model automorphism groups
# ---------------------------------------------------------------------------

def _exact_sqrt(q: Fraction):
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def equivariance_t(g: GroupElem):
    """Factor an automorphism of the block model as (unimodular part,
    diagonal scale): the block G equals lam * s with det(s) = 1, returned
    as (s, lam) with lam > 0.

    Membership: g must be block diagonal with positive block determinant
    after normalizing the corner entry to 1.
    """
    e = g.entries
    if any(e[i][2] != 0 for i in range(2)) or any(e[2][j] != 0 for j in range(2)):
        raise MembershipError("not in the block-diagonal subgroup")
    if e[2][2] == 0:
        raise MembershipError("degenerate corner entry")
    block = tuple(tuple(e[i][j] / e[2][2] for j in range(2)) for i in range(2))
    det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
    if det <= 0:
        raise MembershipError("block determinant must be positive")
    lam = _exact_sqrt(det)
    if lam is None:
        lam = math.sqrt(float(det))
        s = tuple(tuple(float(c) / lam for c in row) for row in block)
        return s, lam
    s = tuple(tuple(c / lam for c in row) for row in block)
    return s, lam


def mat_mul2(a, b):
    """Product of two 2x2 matrices given as nested sequences."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def equivariance_t_inverse(s, lam) -> GroupElem:
    return GroupElem([[lam * s[0][0], lam * s[0][1], 0],
                      [lam * s[1][0], lam * s[1][1], 0],
                      [0, 0, 1]])


def equivariance_a(p: GroupElem):
    """Group isomorphism from the upper-triangular stabilizer onto the
    Heisenberg affine group.  In scale-invariant form, for diagonal
    (d1, d2, d3) and entries p12, p13, p23:

        translation part  [p12/d2, p23/d3, p13/d3]
        automorphism      (d1/d2, d2/d3).
    """
    if not p.is_upper_triangular():
        raise MembershipError("not upper triangular")
    e = p.entries
    d1, d2, d3 = e[0][0], e[1][1], e[2][2]
    h = HeisElem(e[0][1] / d2, e[1][2] / d3, e[0][2] / d3)
    phi = HeisAuto(d1 / d2, d2 / d3)
    return h, phi


def equivariance_a_inverse(h: HeisElem, phi: HeisAuto) -> GroupElem:
    d = (phi.lam * phi.mu, phi.mu, Fraction(1))
    return GroupElem([[d[0], h.x * d[1], h.z * d[2]],
                      [0, d[1], h.y * d[2]],
                      [0, 0, d[2]]])


# ---------------------------------------------------------------------------
# closed-form flows in the affine model coordinates
# ---------------------------------------------------------------------------

class _AffineModelField:
    """Polynomial vector field on the chart (x, y, z) with closed-form flow."""

    def __init__(self, func, flow):
        self._func = func
        self._flow = flow

    def __call__(self, p):
        return self._func(p)

    def flow(self, t, p):
        t = Fraction(t)
        p = tuple(Fraction(c) for c in p)
        return self._flow(t, p)


def central_flow_fields():
    """The three frame fields of the affine model in chart coordinates:

        alpha field (0, 0, 1), beta field (z, 1, 0), central field (1, 0, 0)

    with exact closed-form flows."""
    f_alpha = _AffineModelField(
        lambda p: (0, 0, 1),
        lambda t, p: (p[0], p[1], p[2] + t),
    )
    f_beta = _AffineModelField(
        lambda p: (p[2], 1, 0),
        lambda t, p: (p[0] + t * p[2], p[1] + t, p[2]),
    )
    f_c = _AffineModelField(
        lambda p: (1, 0, 0),
        lambda t, p: (p[0] + t, p[1], p[2]),
    )
    return f_alpha, f_beta, f_c


def commutator_identity_check(p, t):
    """Exact verification of the two commuting-flow identities realizing the
    central flow by alpha-beta rectangles:

        B(-t) A(-t) B(t) A(t) p = p + t^2 e1
        B(t) A(-t) B(-t) A(t) p = p - t^2 e1

    Returns (plus_ok, minus_ok)."""
    f_alpha, f_beta, f_c = central_flow_fields()
    p = tuple(Fraction(c) for c in p)
    t = Fraction(t)

    plus = f_beta.flow(-t, f_alpha.flow(-t, f_beta.flow(t, f_alpha.flow(t, p))))
    plus_ok = plus == f_c.flow(t * t, p)

    minus = f_beta.flow(t, f_alpha.flow(-t, f_beta.flow(-t, f_alpha.flow(t, p))))
    minus_ok = minus == f_c.flow(-t * t, p)
    return plus_ok, minus_ok
