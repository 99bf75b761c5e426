"""Pointed projective lines: incidence geometry, group action, charts, regions.

A flag is a pair (m, D) with m a point of the projective plane lying on the
projective line D.  `Flag` holds both as primitive integer 3-tuples (gcd 1,
first nonzero entry positive), the line as the normal covector of its
plane, so incidence is a single exact dot product, `meet` is both the line
through two points and the point on two lines, and a ratio of coordinates
is built as a Fraction, never with `/`.  The two invariant circle families
through a flag are the pencils obtained by moving the line through a fixed
point (alpha) or the point along a fixed line (beta).  An open model
enters here by its special point m_sp alone.  A boundary flag's stratum is
read off its two circles: whether each lies wholly outside the model is the
one containment predicate that `circle_boundary_points` and
`region_classify` both use.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .lie_core import GroupElem, LieVec
from .rational import (
    _Record,
    _cleared,
    _echelon_ints,
    _mat_vec_ints,
    _primitive_ints,
    _vec_mat_ints,
    cross,
    dot,
    primitive,
)


class BoundaryError(ValueError):
    """Raised when a chart is evaluated outside its domain."""


def meet(u, v) -> tuple:
    """The primitive cross product of the integer vectors u and v: the line
    through two points, or the point on two lines.  Equal or zero classes
    raise ValueError."""
    return _primitive_ints(cross(u, v))


def at_infinity(m) -> bool:
    """Whether the point m lies on the line at infinity."""
    return m[2] == 0


class Flag(_Record):
    """A point m on a line n, both primitive integer 3-tuples, n . m = 0.
    A verify pass builds thousands, so `__init__` is written out."""

    __slots__ = ("point", "line")

    def __init__(self, point, line):
        if line[0] * point[0] + line[1] * point[1] + line[2] * point[2]:
            raise ValueError("flag point must lie on the flag line")
        set_point, set_line = self._setters
        set_point(self, point)
        set_line(self, line)

    @staticmethod
    def of(point_vec, second_point_vec) -> "Flag":
        """Flag from the point and a second point spanning the line."""
        m = primitive(point_vec)
        return Flag(m, meet(m, primitive(second_point_vec)))


BASE_FLAG = Flag.of((1, 0, 0), (0, 1, 0))
LINE_AT_INFINITY = (0, 0, 1)


# ---------------------------------------------------------------------------
# group action and flip
# ---------------------------------------------------------------------------

def act(g: GroupElem, x: Flag) -> Flag:
    """g x: the point m goes to g m and the line n to n adj(g), covectors
    transforming by the inverse, of which the adjugate is a valid
    projective representative."""
    return Flag(_primitive_ints(_mat_vec_ints(g.nums, x.point)),
                _primitive_ints(_vec_mat_ints(x.line, g.adj)))


def flip(x: Flag) -> Flag:
    """(m, D) -> (D^perp, m^perp) for the standard inner product.

    Involution; exchanges the two circle families and intertwines the
    action through g -> (g^T)^{-1}.
    """
    return Flag(x.line, x.point)


# ---------------------------------------------------------------------------
# affine chart
# ---------------------------------------------------------------------------

def _affine_ints(x: Flag):
    """The point m and line n of x, once m is checked to lie off the line
    at infinity; n, through m, is then not that line either."""
    if at_infinity(x.point):
        raise BoundaryError("flag point lies on the line at infinity")
    return x.point, x.line


def affine_chart(x: Flag):
    """Identify a flag whose point is off the line at infinity with a pointed
    affine line of the plane: ((x, y), direction class (u : v)), the
    direction as its primitive integer vector: the line's point at
    infinity (n1, -n0, 0)."""
    m, n = _affine_ints(x)
    return (Fraction(m[0], m[2]), Fraction(m[1], m[2])), _primitive_ints((n[1], -n[0]))


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
    return Flag(m, meet(m, (u, v, 0)))


def _slope_chart_ints(x: Flag):
    """The point m and line n of x, once x is checked to lie in the slope
    chart: m off the line at infinity and n0 != 0 (n not horizontal)."""
    m, n = _affine_ints(x)
    if n[0] == 0:
        raise BoundaryError("direction is horizontal; outside the slope chart")
    return m, n


# ---------------------------------------------------------------------------
# model regions
# ---------------------------------------------------------------------------

class Region(Enum):
    INTERIOR = "interior"
    G1 = "boundary-stratum-1"
    G2 = "boundary-stratum-2"
    DEEP_BOUNDARY = "deep-boundary"


def _alpha_in_boundary(m, m_sp) -> bool:
    """Whether the whole alpha circle at the point m, every line through m,
    lies outside the model of special point m_sp: m is that point or lies
    at infinity."""
    return m == m_sp or at_infinity(m)


def _beta_in_boundary(n, m_sp) -> bool:
    """Whether the whole beta circle of the line n, every point on n, lies
    outside the model of special point m_sp: n passes through that point or
    is the line at infinity."""
    return dot(n, m_sp) == 0 or n == LINE_AT_INFINITY


def region_classify(x: Flag, m_sp) -> Region:
    """Partition of the flag space relative to the open model of special
    point m_sp, whose interior is the flags with the point off the line at
    infinity and the line off m_sp.

    interior        the open orbit itself,
    G1 / G2         the boundary flags whose alpha circle leaves the
                    boundary, and those whose alpha circle stays in it but
                    whose beta circle leaves it,
    deep-boundary   boundary flags both of whose circles stay in the boundary.
    """
    if not at_infinity(x.point) and dot(x.line, m_sp) != 0:
        return Region.INTERIOR
    if not _alpha_in_boundary(x.point, m_sp):
        return Region.G1
    if not _beta_in_boundary(x.line, m_sp):
        return Region.G2
    return Region.DEEP_BOUNDARY


# ---------------------------------------------------------------------------
# circles and their boundary intersections
# ---------------------------------------------------------------------------

def circle_boundary_points(x: Flag, which: str, m_sp) -> Flag | None:
    """The one flag of the alpha or beta circle of x lying outside the open
    model of special point m_sp, or None when the whole circle lies outside
    it.

    A circle not wholly in the boundary meets it in exactly one flag, which
    is constructed: the line through the point and m_sp (alpha), or the
    point at infinity of the line (beta).
    """
    if which == "beta":
        if _beta_in_boundary(x.line, m_sp):
            return None
        return Flag(meet(x.line, LINE_AT_INFINITY), x.line)
    if which == "alpha":
        if _alpha_in_boundary(x.point, m_sp):
            return None
        return Flag(x.point, meet(x.point, m_sp))
    raise ValueError(f"unknown circle family {which!r}")


def alpha_circle_flag(x: Flag, s, t) -> Flag:
    """Parametrized alpha circle: for ints s and t, the line s n1 + t n2
    through the point m of x, where n_k is the cross product of m with the
    standard basis vector k places (cyclically) after the first nonzero
    entry of m.  n1 and n2 are independent and orthogonal to m, so they
    span the lines through m.  The beta circle is the flip of the alpha
    circle of the flipped flag."""
    m = x.point
    i = next(k for k, e in enumerate(m) if e != 0)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    n1, n2 = cross(m, units[(i + 1) % 3]), cross(m, units[(i + 2) % 3])
    return Flag(x.point, _primitive_ints([s * a + t * b for a, b in zip(n1, n2)]))


# ---------------------------------------------------------------------------
# infinitesimal action
# ---------------------------------------------------------------------------

def _velocities(v: LieVec, x: Flag):
    """v.den times the velocities v m and -n v of the point m and the line
    n of x, in ints."""
    return _mat_vec_ints(v.nums, x.point), [-e for e in _vec_mat_ints(x.line, v.nums)]


def _tangent_ints(v: LieVec, x: Flag):
    """Derivative of the action of exp(t v) at a flag, as the tangent row
    (dm mod m, dn mod n) of the stored representatives m and n, in ints, and
    the pivots of m and n.  The velocity w of m (of n) is taken modulo its
    base m (n) at the two positions k off the pivot i of base, its first
    nonzero entry, as w[k] base[i] - w[i] base[k]: four coordinates, each an
    int over v.den base[i].  Exact and chart-free, and written out, as
    `orbit_rank` calls it once per generator: a = v m is the velocity of m,
    and b = n v the negated velocity of n."""
    a0, a1, a2 = _mat_vec_ints(v.nums, x.point)
    b0, b1, b2 = _vec_mat_ints(x.line, v.nums)
    m0, m1, m2 = x.point
    n0, n1, n2 = x.line
    if m0:
        nums, pm = [a1 * m0 - a0 * m1, a2 * m0 - a0 * m2], m0
    elif m1:
        nums, pm = [a0 * m1 - a1 * m0, a2 * m1 - a1 * m2], m1
    else:
        nums, pm = [a0 * m2 - a2 * m0, a1 * m2 - a2 * m1], m2
    if n0:
        nums += [b0 * n1 - b1 * n0, b0 * n2 - b2 * n0]
        return nums, (pm, n0)
    if n1:
        nums += [b1 * n0 - b0 * n1, b1 * n2 - b2 * n1]
        return nums, (pm, n1)
    nums += [b2 * n0 - b0 * n2, b2 * n1 - b1 * n2]
    return nums, (pm, n2)


def orbit_rank(vectors, x: Flag) -> int:
    """Dimension of the span of the action derivatives of the given Lie
    algebra elements at x: the rank of their rows in ints, which scale each
    row by v.den and two columns by a pivot, and so keep the rank."""
    return len(_echelon_ints([_tangent_ints(v, x)[0] for v in vectors])[1])


def _fundamental_ints(v: LieVec, x: Flag):
    """`fundamental_vector` as (nums, den): three ints over one denominator,
    v.den m2^2 n0^2."""
    m, n = _slope_chart_ints(x)
    dm, dn = _velocities(v, x)
    mm, nn = m[2] * m[2], n[0] * n[0]
    # x = m0 / m2, y = m1 / m2 and z = -n1 / n0
    return ((dm[0] * m[2] - m[0] * dm[2]) * nn, (dm[1] * m[2] - m[1] * dm[2]) * nn,
            (n[1] * dn[0] - dn[1] * n[0]) * mm), v.den * mm * nn


def fundamental_vector(v: LieVec, x: Flag):
    """Velocity at x of the one-parameter group of v, in the global chart
    (x, y, z).  Closed-form rational derivative, no numerical differencing.
    """
    nums, den = _fundamental_ints(v, x)
    return tuple([Fraction(n, den) for n in nums])
