"""The two homogeneous models of the flag space and their algebraic avatars.

One open set carries a simply transitive copy of SL(2) (embedded in the
upper-left block), the other a simply transitive Heisenberg group; both carry
an invariant transverse line field completing the two circle directions to a
frame.  Each model is one read-only `Model` record, `BLOCK` or `AFFINE`,
which every function that depends on the model takes.  This module provides
the Heisenberg arithmetic and the diagonal automorphisms, built and read as
ints over one denominator only, the group identifications conjugating the
geometric and algebraic pictures, the affine linearization of the Heisenberg
affine group, and the closed-form commuting-flow identities of the affine
model, which take ints too.  The invariant frames come from one integer
formula, `_field_ints`, which `frame_at` runs at a flag's chart point and
`invariant_field` runs on the chart variables, in the polynomial ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .flag_space import BoundaryError, Flag, _slope_chart_ints
from .lie_core import GroupElem, LieVec
from .rational import (Poly, _CanonicalInts, _Record, _adjugate_ints, _cleared, _det_ints,
                       _mat_vec_ints, _mul_ints, _primitive_ints, _rows, _vec_mat_ints)


class MembershipError(ValueError):
    pass


class ContactConditionError(ValueError):
    pass


# sl(2) triple embedded in the upper-left block, and the Heisenberg
# generators; the transverse line of the block model is
# classification.CENTRAL_LINE.
SL2_E = LieVec.elementary(0, 1)
SL2_F = LieVec.elementary(1, 0)
SL2_H = LieVec.diag(1, -1, 0)

HEIS_X = LieVec.elementary(0, 1)
HEIS_Y = LieVec.elementary(1, 2)
HEIS_Z = LieVec.elementary(0, 2)


class Model(_Record):
    """An open model: its name, base flag, special point, and the (alpha,
    beta, central) generators of its invariant frame.  Its interior is the
    flags with the point off the line at infinity and the line off the
    special point."""

    __slots__ = ("name", "base_flag", "special_point", "frame")


BLOCK = Model("t", Flag.of((1, 0, 1), (0, 1, 0)), (0, 0, 1), (SL2_E, SL2_F, SL2_H))
AFFINE = Model("a", Flag.of((0, 0, 1), (0, 1, 0)), (1, 0, 0), (HEIS_X, HEIS_Y, HEIS_Z))
MODELS = (BLOCK, AFFINE)


# ---------------------------------------------------------------------------
# Heisenberg group in matrix coordinates [x, y, z] (upper unitriangular)
# ---------------------------------------------------------------------------

class HeisElem(_CanonicalInts):
    """Upper-unitriangular 3x3 matrix with entries [x, y, z] above the
    diagonal, as three ints over one denominator (see
    `rational._CanonicalInts`)."""

    __slots__ = ()

    def mul(self, other: "HeisElem") -> "HeisElem":
        # [x + x', y + y', z + z' + x y'] over d h
        (a, b, c), d = self.nums, self.den
        (e, f, g), h = other.nums, other.den
        return HeisElem((a * h + e * d, b * h + f * d, c * h + g * d + a * f), d * h)

    def inverse(self) -> "HeisElem":
        # [-x, -y, x y - z] over d^2
        (a, b, c), d = self.nums, self.den
        return HeisElem((-a * d, -b * d, a * b - c * d), d * d)

    def to_exponential(self):
        """Exponential coordinates (x, y, z - xy/2) as (nums, den): (a, b,
        c) / d goes to (2ad, 2bd, 2cd - ab) / (2d^2)."""
        (a, b, c), d = self.nums, self.den
        return (2 * a * d, 2 * b * d, 2 * c * d - a * b), 2 * d * d

    @staticmethod
    def from_exponential(nums, den) -> "HeisElem":
        """The inverse of `to_exponential`: the exponential coordinates (X,
        Y, Z) / e give [X, Y, Z + XY/2] = (2eX, 2eY, 2eZ + XY) / (2e^2)."""
        (x, y, z), e = nums, den
        return HeisElem((2 * e * x, 2 * e * y, 2 * e * z + x * y), 2 * e * e)

    def as_group_elem(self) -> GroupElem:
        (a, b, c), d = self.nums, self.den
        return GroupElem._of_ints((d, a, c, 0, d, b, 0, 0, d))


HEIS_IDENTITY = HeisElem((0, 0, 0))


class HeisAuto(_CanonicalInts):
    """Diagonal automorphism scaling the two generating directions by lam
    and mu, and the center by lam*mu: (lam, mu) as two nonzero ints over one
    denominator (see `rational._CanonicalInts`); a zero parameter raises
    ValueError, so `inverse` is always defined."""

    __slots__ = ()

    def __init__(self, nums, den=1):
        if 0 in nums:
            raise ValueError("automorphism parameters must be nonzero")
        _CanonicalInts.__init__(self, nums, den)

    def apply(self, g: HeisElem) -> HeisElem:
        # [lam x, mu y, lam mu z] over e^2 d
        (l, m), e = self.nums, self.den
        (x, y, z), d = g.nums, g.den
        return HeisElem((l * e * x, m * e * y, l * m * z), e * e * d)

    def compose(self, other: "HeisAuto") -> "HeisAuto":
        return HeisAuto([a * b for a, b in zip(self.nums, other.nums)], self.den * other.den)

    def inverse(self) -> "HeisAuto":
        (l, m), e = self.nums, self.den
        return HeisAuto((e * m, e * l), l * m)


AUTO_IDENTITY = HeisAuto((1, 1))


def heis_semidirect_mul(a, b):
    """Product in the affine automorphism group: (g1, f1)(g2, f2) =
    (g1 * f1(g2), f1 o f2)."""
    g1, f1 = a
    g2, f2 = b
    return (g1.mul(f1.apply(g2)), f1.compose(f2))


# ---------------------------------------------------------------------------
# affine linearization of the Heisenberg affine group
# ---------------------------------------------------------------------------

class AffineMap(_CanonicalInts):
    """x -> L x + t on R^3, exact: the entries of L, row by row, then of t,
    as twelve ints over one denominator (see `rational._CanonicalInts`);
    `linear` and `translation` read as Fractions."""

    __slots__ = ()

    @property
    def linear(self) -> tuple:
        return _rows(tuple([Fraction(n, self.den) for n in self.nums[:9]]))

    @property
    def translation(self) -> tuple:
        return tuple([Fraction(n, self.den) for n in self.nums[9:]])

    def compose(self, other: "AffineMap") -> "AffineMap":
        # L1 (L2 x + t2) + t1, over den1 den2
        a, b, d = self.nums, other.nums, other.den
        moved = _mat_vec_ints(a[:9], b[9:])
        return AffineMap(_mul_ints(a[:9], b[:9]) + [x + t * d for x, t in zip(moved, a[9:])],
                         self.den * d)


AFFINE_IDENTITY = AffineMap((1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0))


def theta_affine(g: HeisElem, phi: HeisAuto) -> AffineMap:
    """Injective morphism from the affine automorphism group into the affine
    transformations of R^3, reading matrix coordinates as plain vectors:

        linear part [[lam, 0, 0], [0, mu, 0], [0, mu*x, lam*mu]],
        translation (x, y, z).
    """
    (l, m), e = phi.nums, phi.den
    (x, y, z), d = g.nums, g.den
    # over e^2 d: lam = l/e, mu = m/e and (x, y, z) / d
    return AffineMap((l * e * d, 0, 0, 0, m * e * d, 0, 0, m * e * x, l * m * d,
                      x * e * e, y * e * e, z * e * e), e * e * d)


# ---------------------------------------------------------------------------
# left-invariant structure transported from the Heisenberg generators
# ---------------------------------------------------------------------------

def _flat_structure_ints(v: LieVec, w: LieVec):
    """`flat_structure_iso` as (nums, den): its nine entries, row by row, as
    ints over v.den w.den.  The Heisenberg coordinates (a, b, c) of v are its
    entries (0, 1), (1, 2) and (0, 2); so are (a', b', c') of w."""
    n, m = v.nums, w.nums
    if any(n[k] or m[k] for k in (0, 3, 4, 6, 7, 8)):
        raise ValueError("not an element of the Heisenberg algebra")
    e, f = v.den, w.den
    # a = n1 / e and a' = m1 / f, so a b' - b a' = (n1 m5 - n5 m1) / (e f)
    d = n[1] * m[5] - n[5] * m[1]
    if d == 0:
        raise ContactConditionError(
            "the pair does not span a contact plane (a b' - b a' = 0)")
    return (n[1] * f, m[1] * e, 0, n[5] * f, m[5] * e, 0, n[2] * f, m[2] * e, d), e * f


def flat_structure_iso(v: LieVec, w: LieVec):
    """Automorphism matrix of the Heisenberg algebra in the basis (X, Y, Z)
    sending (X, Y) to the contact pair (v, w), as Fraction rows:

        [[a, a', 0], [b, b', 0], [c, c', a b' - b a']]

    for v = aX + bY + cZ and w = a'X + b'Y + c'Z.  Requires the contact
    condition [v, w] outside span(v, w), which implies a b' - b a' != 0.
    """
    nums, den = _flat_structure_ints(v, w)
    return _rows(tuple([Fraction(n, den) for n in nums]))


# ---------------------------------------------------------------------------
# invariant frames on the two open models
# ---------------------------------------------------------------------------

def _transporter_ints(x, y, c, u, v, model: Model):
    """The model's transporter to the flag at the point (x, y, c) with
    direction (u : v), as a flat integer matrix: c v times the Heisenberg
    element [u/v, y/c, x/c] in AFFINE; c^2 d times the block element with
    columns (x, y) / c and (u, v) c / d, d = x v - y u, in BLOCK.  The flag is
    interior exactly when c and v (AFFINE) or d (BLOCK) are nonzero; else
    BoundaryError."""
    if model is AFFINE:
        d, h = v, (c * v, c * u, v * x, 0, c * v, v * y, 0, 0, c * v)
    else:
        d = x * v - y * u
        h = (d * x, c * c * u, 0, d * y, c * c * v, 0, 0, 0, c * d)
    if c == 0 or d == 0:
        raise BoundaryError("frame transport needs an interior flag")
    return h


def transporter(x: Flag, model: Model) -> GroupElem:
    """Group element of the model's transitive subgroup carrying the base
    flag of the model to x, read off the flag's ints: the point (x, y, c)
    and the direction (n1 : -n0) of the line n."""
    n = x.line
    return GroupElem._of_ints(_transporter_ints(*x.point, n[1], -n[0], model))


def _transport_ints(x, y, z, c, model: Model):
    """H, adj(H) and det(H), for H the model's transporter in ints at the
    chart point p = (x, y, z) / c: what the fields of every generator share
    at p."""
    h = _transporter_ints(x, y, c, z, c, model)
    return h, _adjugate_ints(h), _det_ints(h)


def _field_ints(gen: LieVec, transport, x, y, z, c):
    """The invariant field of `gen` at p = (x, y, z) / c, in ints, from
    `_transport_ints` at p: v = H gen adj(H), so V = v / (det(H) gen.den);
    a = v m and b = n v, with m taken times c and n times c^2; and the
    numerators of F(p), over det(H) gen.den c^3."""
    h, adj, _ = transport
    v = _mul_ints(_mul_ints(h, gen.nums), adj)
    a = _mat_vec_ints(v, (x, y, c))
    b = _vec_mat_ints((-c * c, z * c, x * c - y * z), v)
    value = (c * (c * a[0] - x * a[2]), c * (c * a[1] - y * a[2]), -(c * b[1] + z * b[0]))
    return v, a, b, value


# the chart variables x, y and z of `invariant_field`
CHART = (Poly({(1,): 1}), Poly({(0, 1): 1}), Poly({(0, 0, 1): 1}))


def invariant_field(gen: LieVec, model: Model):
    """The model's invariant vector field extending the generator `gen` at
    its base flag, in the chart (x, y, z): at p, the velocity of
    conjugate(h, gen), h the transporter of the flag of p.  The flag of p has
    the point m = (x, y, 1) and the line n = (-1, z, x - yz); with
    V = h gen h^-1, a = V m and b = n V, F(p) = (a0 - x a2, a1 - y a2,
    -(b1 + z b0)).  It is `_field_ints` run on the chart variables with c = 1:
    a ring field (see `curvature.field_bracket`), three Polys over det(H)
    gen.den, which vanishes off the interior."""
    x, y, z = CHART
    transport = _transport_ints(x, y, z, 1, model)
    value = _field_ints(gen, transport, x, y, z, 1)[3]
    return tuple(map(Poly.of, value)), Poly.of(transport[2] * gen.den)


def frame_at(x: Flag, model: Model) -> tuple:
    """Invariant frame at an interior flag in the slope chart: the tuple
    (alpha, beta, central) of the primitive integer lines of the invariant
    fields extending the model's base frame, at the flag's chart point,
    which share one transporter.  They do not depend on the transport:
    `frame-well-defined` checks them against another transport of the base
    frame."""
    m, n = _slope_chart_ints(x)
    # the chart point (m0 / m2, m1 / m2, -n1 / n0) over c = m2 n0
    px, py, pz, c = m[0] * n[0], m[1] * n[0], -n[1] * m[2], m[2] * n[0]
    transport = _transport_ints(px, py, pz, c, model)
    return tuple(_primitive_ints(_field_ints(gen, transport, px, py, pz, c)[3])
                 for gen in model.frame)


# ---------------------------------------------------------------------------
# equivariant identifications of the model automorphism groups
# ---------------------------------------------------------------------------

class Block(_CanonicalInts):
    """A 2x2 matrix, the SL(2) factor of the block model: its entries in row
    order as four ints over one denominator (see `rational._CanonicalInts`)."""

    __slots__ = ()


def equivariance_t(g: GroupElem):
    """Factor an automorphism of the block model as (unimodular part,
    diagonal scale): the block G equals lam * s with det(s) = 1, returned
    as (s, lam), s a `Block` and lam > 0 a Fraction.

    Membership: g must be block diagonal, and its block determinant, after
    normalizing the corner entry to 1, a positive rational square; lam and
    s are then exact.
    """
    a, b, c, d, e, f, u, v, k = g.nums
    if c or f or u or v:
        raise MembershipError("not in the block-diagonal subgroup")
    # the block over k has determinant det / k^2 (k != 0, as g is invertible),
    # a rational square exactly when the integer det is a square r^2
    det = a * e - b * d
    if det <= 0:
        raise MembershipError("block determinant must be positive")
    r = math.isqrt(det)
    if r * r != det:
        raise MembershipError("block determinant must be a rational square")
    # lam = r / |k| and s = block / lam = block / (sign(k) r)
    return Block((a, b, d, e), r if k > 0 else -r), Fraction(r, abs(k))


def mat_mul2(s: Block, t: Block) -> Block:
    """Product of two 2x2 matrices."""
    (a, b, c, d), (e, f, g, h) = s.nums, t.nums
    return Block((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), s.den * t.den)


def equivariance_t_inverse(s: Block, lam) -> GroupElem:
    """The block element lam s with corner 1; a float lam raises TypeError."""
    (n,), m = _cleared((lam,))
    a, b, c, d = s.nums
    return GroupElem._of_ints((n * a, n * b, 0, n * c, n * d, 0, 0, 0, m * s.den))


def equivariance_a(p: GroupElem):
    """Group isomorphism from the upper-triangular stabilizer onto the
    Heisenberg affine group.  In scale-invariant form, for diagonal
    (d1, d2, d3) and entries p12, p13, p23:

        translation part  [p12/d2, p23/d3, p13/d3]
        automorphism      (d1/d2, d2/d3).
    """
    if not p.is_upper_triangular():
        raise MembershipError("not upper triangular")
    d1, p12, p13, _, d2, p23, _, _, d3 = p.nums
    return (HeisElem((p12 * d3, p23 * d2, p13 * d2), d2 * d3),
            HeisAuto((d1 * d3, d2 * d2), d2 * d3))


def equivariance_a_inverse(h: HeisElem, phi: HeisAuto) -> GroupElem:
    # diagonal (lam mu, mu, 1), entries (x mu, y, z), all times e^2 d
    (l, m), e = phi.nums, phi.den
    (x, y, z), d = h.nums, h.den
    return GroupElem._of_ints((l * m * d, x * m * e, z * e * e, 0, m * e * d, y * e * e,
                               0, 0, e * e * d))


# ---------------------------------------------------------------------------
# closed-form flows in the affine model coordinates
# ---------------------------------------------------------------------------

# The closed-form flows `flow(t, p)` of the affine model's frame fields in
# chart coordinates: alpha (0, 0, 1), beta (z, 1, 0) and central (1, 0, 0).
# Each is polynomial with no division, so it stays exact on ints and
# Fractions, and affine in t: the field at p is (flow(t, p) - p) / t, t != 0.
def _alpha_flow(t, p):
    return (p[0], p[1], p[2] + t)


def _beta_flow(t, p):
    return (p[0] + t * p[2], p[1] + t, p[2])


def _central_flow(t, p):
    return (p[0] + t, p[1], p[2])


FRAME_FLOWS = (_alpha_flow, _beta_flow, _central_flow)


def commutator_identity_check(p, t, den):
    """Exact verification of the two commuting-flow identities realizing the
    central flow C of `FRAME_FLOWS` by rectangles of its alpha and beta
    flows A and B, at the point p / den and time t / den, all ints:

        B(-t) A(-t) B(t) A(t) p = C(t^2) p = p + t^2 e1
        B(t) A(-t) B(-t) A(t) p = C(-t^2) p = p - t^2 e1

    Returns (plus_ok, minus_ok)."""
    alpha, beta, central = FRAME_FLOWS
    # The flows are weighted homogeneous (x of weight 2; y, z, t of weight 1),
    # so for p = (x, y, z) the identities hold at p / den and time t / den
    # exactly when they hold at the int point (den x, y, z) and time t.
    p = (den * p[0], p[1], p[2])
    return (beta(-t, alpha(-t, beta(t, alpha(t, p)))) == central(t * t, p),
            beta(t, alpha(-t, beta(-t, alpha(t, p)))) == central(-t * t, p))
