"""Pointed projective lines: incidence geometry, group action, charts, regions.

A flag is a pair (m, D) with m a point of the projective plane lying on the
projective line D.  Lines are stored as normal covectors, so incidence is a
single exact dot product.  Points and lines are primitive integer vectors
(gcd 1, first nonzero entry positive), so a ratio of coordinates is built
as a Fraction, never with `/`.  The two invariant circle families through
a flag are the pencils obtained by moving the line through a fixed point
(alpha) or the point along a fixed line (beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .lie_core import BASIS, GroupElem, LieVec, conjugate, lincomb
from .rational import (
    _cleared,
    _mat_vec_ints,
    _primitive_ints,
    _rows,
    cross,
    dot,
    primitive,
    rank,
    solve,
)


class BoundaryError(ValueError):
    """Raised when a chart is evaluated outside its domain."""


@dataclass(frozen=True)
class ProjPoint:
    """Projective point stored by its primitive integer coordinates."""

    coords: tuple

    @staticmethod
    def of(vec) -> "ProjPoint":
        return ProjPoint(primitive(vec))


@dataclass(frozen=True)
class ProjLine:
    """Projective line stored by the primitive integer normal covector of
    its plane."""

    normal: tuple

    @staticmethod
    def of(normal) -> "ProjLine":
        return ProjLine(primitive(normal))

    @staticmethod
    def through(p: ProjPoint, q: ProjPoint) -> "ProjLine":
        return ProjLine(_primitive_ints(cross(p.coords, q.coords)))


def incident(m: ProjPoint, d: ProjLine) -> bool:
    return dot(d.normal, m.coords) == 0


def meet(d1: ProjLine, d2: ProjLine) -> ProjPoint:
    return ProjPoint(_primitive_ints(cross(d1.normal, d2.normal)))


@dataclass(frozen=True)
class Flag:
    point: ProjPoint
    line: ProjLine

    def __post_init__(self):
        if not incident(self.point, self.line):
            raise ValueError("flag point must lie on the flag line")

    @staticmethod
    def of(point_vec, second_point_vec) -> "Flag":
        """Flag from the point and a second point spanning the line."""
        m = ProjPoint.of(point_vec)
        q = ProjPoint.of(second_point_vec)
        return Flag(m, ProjLine.through(m, q))


E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))
E3 = (Fraction(0), Fraction(0), Fraction(1))

BASE_FLAG = Flag.of(E1, E2)
O_T = Flag.of((1, 0, 1), E2)
O_A = Flag.of(E3, E2)
LINE_AT_INFINITY = ProjLine.of(E3)
M_T = ProjPoint.of(E3)
M_A = ProjPoint.of(E1)


# ---------------------------------------------------------------------------
# group action and flip
# ---------------------------------------------------------------------------

def act_point(g: GroupElem, m: ProjPoint) -> ProjPoint:
    return ProjPoint(_primitive_ints(_mat_vec_ints(g.entries, m.coords)))


def act_line(g: GroupElem, d: ProjLine) -> ProjLine:
    # covectors transform by the inverse (n -> n adj(g)); the adjugate is a
    # valid projective representative of it
    return ProjLine(_primitive_ints(_mat_vec_ints(zip(*g.adjugate), d.normal)))


def act(g: GroupElem, x: Flag) -> Flag:
    return Flag(act_point(g, x.point), act_line(g, x.line))


def flip(x: Flag) -> Flag:
    """(m, D) -> (D^perp, m^perp) for the standard inner product.

    Involution; exchanges the two circle families and intertwines the
    action through g -> (g^T)^{-1}.
    """
    # both vectors are primitive already
    return Flag(ProjPoint(x.line.normal), ProjLine(x.point.coords))


# ---------------------------------------------------------------------------
# affine chart
# ---------------------------------------------------------------------------

def affine_chart(x: Flag):
    """Identify a flag whose point is off the line at infinity with a pointed
    affine line of the plane: ((x, y), direction class (u : v)), the
    direction as its primitive integer vector."""
    m = x.point.coords
    if m[2] == 0:
        raise BoundaryError("flag point lies on the line at infinity")
    px, py = Fraction(m[0], m[2]), Fraction(m[1], m[2])
    n = x.line.normal
    # direction = intersection of the line with the plane at infinity
    u, v = n[1], -n[0]
    if u == 0 and v == 0:
        raise BoundaryError("flag line is the line at infinity")
    return (px, py), _primitive_ints((u, v))


def affine_chart_inverse(point, direction) -> Flag:
    """The flag at `point` = (px, py) with direction class `direction` =
    (u : v), ints and Fractions; the inverse of `affine_chart`."""
    (x, y, u, v), den = _cleared(point, direction)
    # (u/den : v/den) is the class (u : v)
    return _chart_flag(x, y, den, u, v)


def _chart_flag(x, y, den, u, v) -> Flag:
    """The flag at (x/den, y/den) with direction (u : v), from ints: the
    point m = (x, y, den) and the line through m and m + (u, v, 0), whose
    normal is m x (u, v, 0).  A zero direction raises ValueError."""
    m = _primitive_ints((x, y, den))
    return Flag(ProjPoint(m), ProjLine(_primitive_ints(cross(m, (u, v, 0)))))


def _slope_chart_ints(x: Flag):
    """The stored point m and line n of x, once x is checked to lie in the
    slope chart: m2 != 0, and n0 != 0 (n neither at infinity nor horizontal)."""
    m, n = x.point.coords, x.line.normal
    if m[2] == 0:
        raise BoundaryError("flag point lies on the line at infinity")
    if n[0] == 0 and n[1] == 0:
        raise BoundaryError("flag line is the line at infinity")
    if n[0] == 0:
        raise BoundaryError("direction is horizontal; outside the slope chart")
    return m, n


def chart_coords(x: Flag):
    """Global coordinates (x, y, z): affine point plus direction slope z,
    the direction being (z : 1).  Domain: point off infinity and direction
    not horizontal."""
    m, n = _slope_chart_ints(x)
    return (Fraction(m[0], m[2]), Fraction(m[1], m[2]), Fraction(-n[1], n[0]))


# ---------------------------------------------------------------------------
# model regions
# ---------------------------------------------------------------------------

class Region(Enum):
    INTERIOR = "interior"
    G1 = "boundary-stratum-1"
    G2 = "boundary-stratum-2"
    DEEP_BOUNDARY = "deep-boundary"


def _special_point(model: str) -> ProjPoint:
    if model == "t":
        return M_T
    if model == "a":
        return M_A
    raise ValueError(f"unknown model {model!r}")


def _on_chain(x: Flag) -> bool:
    """Chain through (m_t, line at infinity): flags (m, [m, m_t]) with m at
    infinity."""
    if dot(LINE_AT_INFINITY.normal, x.point.coords) != 0:
        return False
    return x.line == ProjLine.through(x.point, M_T)


def region_classify(x: Flag, model: str) -> Region:
    """Partition of the flag space relative to one of the two open models.

    interior        the open orbit itself,
    G1 / G2         the two boundary strata whose alpha (resp. beta) circle
                    re-enters the open set,
    deep-boundary   boundary flags both of whose circles stay in the boundary.
    """
    m_sp = _special_point(model)
    at_infinity = dot(LINE_AT_INFINITY.normal, x.point.coords) == 0
    through_special = incident(m_sp, x.line)
    if not at_infinity and not through_special:
        return Region.INTERIOR
    if model == "t":
        chain = _on_chain(x)
        in_g1 = through_special and x.point != M_T and not chain
        in_g2 = at_infinity and x.line != LINE_AT_INFINITY and not chain
    else:
        in_g1 = through_special and x.point != M_A and x.line != LINE_AT_INFINITY
        in_g2 = at_infinity and x.point != M_A and x.line != LINE_AT_INFINITY
    if in_g1:
        return Region.G1
    if in_g2:
        return Region.G2
    return Region.DEEP_BOUNDARY


# ---------------------------------------------------------------------------
# circles and their boundary intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleBoundary:
    points: tuple
    full_circle: bool


def circle_boundary_points(x: Flag, which: str, model: str) -> CircleBoundary:
    """All flags of the alpha or beta circle of x lying outside the open
    model, found by exact incidence elimination.

    Through an interior flag each circle meets the boundary in exactly one
    flag; circles inside the boundary are reported as full containment.
    """
    m_sp = _special_point(model)
    if which == "beta":
        d = x.line
        # the whole circle is boundary when the line passes through the
        # special point or is the line at infinity
        if incident(m_sp, d) or d == LINE_AT_INFINITY:
            return CircleBoundary((), True)
        # otherwise the unique boundary flag is the point at infinity of d
        pt = meet(d, LINE_AT_INFINITY)
        return CircleBoundary((Flag(pt, d),), False)
    if which == "alpha":
        m = x.point
        if m == m_sp or dot(LINE_AT_INFINITY.normal, m.coords) == 0:
            return CircleBoundary((), True)
        return CircleBoundary((Flag(m, ProjLine.through(m, m_sp)),), False)
    raise ValueError(f"unknown circle family {which!r}")


def alpha_circle_flag(x: Flag, s, t) -> Flag:
    """Parametrized alpha circle: the line s n1 + t n2 through the point m
    of x, where n_k is the cross product of m with the standard basis
    vector k places (cyclically) after the first nonzero entry of m.  n1
    and n2 are independent and orthogonal to m, so they span the lines
    through m.  The beta circle is the flip of the alpha circle of the
    flipped flag."""
    m = x.point.coords
    i = next(k for k, e in enumerate(m) if e != 0)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    n1, n2 = cross(m, units[(i + 1) % 3]), cross(m, units[(i + 2) % 3])
    return Flag(x.point, ProjLine.of([s * a + t * b for a, b in zip(n1, n2)]))


# ---------------------------------------------------------------------------
# infinitesimal action
# ---------------------------------------------------------------------------

def _velocities(v: LieVec, x: Flag):
    """v.den times the velocities v m and -n v of the point m and the line
    n of x, in ints."""
    rows = _rows(v.nums)
    return (_mat_vec_ints(rows, x.point.coords),
            [-e for e in _mat_vec_ints(zip(*rows), x.line.normal)])


def flag_derivative(v: LieVec, x: Flag):
    """Derivative of the action of exp(t v) at a flag, as the tangent row
    (dm mod m, dn mod n) of the stored representatives m and n: each class
    reduced to two canonical complement coordinates, four entries in all.
    Exact and chart-free."""
    dm, dn = _velocities(v, x)
    return (_class_coords(dm, x.point.coords, v.den)
            + _class_coords(dn, x.line.normal, v.den))


def _class_coords(w, base, den):
    """Coordinates of w / den modulo the span of base, in the two coordinate
    positions complementary to the pivot of base."""
    i = next(k for k, e in enumerate(base) if e != 0)
    b, wi = base[i], w[i]
    return tuple(Fraction(w[k] * b - wi * base[k], b * den) for k in range(3) if k != i)


def orbit_rank(vectors, x: Flag) -> int:
    """Dimension of the span of the action derivatives of the given Lie
    algebra elements at x."""
    return rank([flag_derivative(v, x) for v in vectors])


def fundamental_vector(v: LieVec, x: Flag):
    """Velocity at x of the one-parameter group of v, in the global chart
    (x, y, z).  Closed-form rational derivative, no numerical differencing.
    """
    m, n = _slope_chart_ints(x)
    dm, dn = _velocities(v, x)
    den = v.den
    dx = Fraction(dm[0] * m[2] - m[0] * dm[2], den * m[2] * m[2])
    dy = Fraction(dm[1] * m[2] - m[1] * dm[2], den * m[2] * m[2])
    # z = -n2/n1
    dz = Fraction(n[1] * dn[0] - dn[1] * n[0], den * n[0] * n[0])
    return (dx, dy, dz)


def killing_with_value(w, x: Flag) -> LieVec:
    """Some traceless v whose action derivative at x equals the chart
    tangent w = (dx, dy, dz).  Exists because the action is transitive."""
    cols = [fundamental_vector(b, x) for b in BASIS]
    rows = [[cols[j][i] for j in range(8)] for i in range(3)]
    sol = solve(rows, list(w))
    if sol is None:
        raise ValueError("no generator with the requested velocity")
    return lincomb(sol, BASIS)


def push_tangent(g: GroupElem, x: Flag, w):
    """Differential of the action of g at x applied to the chart tangent w,
    computed through the equivariance of fundamental vector fields."""
    v = killing_with_value(w, x)
    return fundamental_vector(conjugate(g, v), act(g, x))
