"""Affine dynamics on a Heisenberg nilmanifold with exact multipliers, frame
rates of the diagonal flow, Lyapunov estimation and hyperbolicity certification.

Points live in exponential coordinates, where the group law is

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x') / 2)

and every automorphism fixing the two generating directions acts linearly.
The concrete lattice is the set of points with integer x, y and half-integer
z; it is closed under the law above and invariant under every integer
determinant-one linear part, so quotient dynamics reduce to a fundamental
box [0,1) x [0,1) x [0,1/2).  Points and vectors are tuples of floats.

One loop, `_reduced_orbit`, walks every float orbit, with the reduction and
the map written out so that a step makes no call; it yields blocks of 1024
steps, and walks the steps before the first one asked for without recording
them.  `write_trajectory` splits the rows of the trajectory CSV over the
CPUs through `workers.split`, the one fork helper, which `checks.run_checks`
uses too.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import partial

from .lie_core import bracket
from .models import BLOCK
from .rational import _Record
from .workers import cpus, split


def heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1],
            p[2] + q[2] + (p[0] * q[1] - p[1] * q[0]) / 2.0)


_RANDOM_BOUND = 5  # coordinate bound of a random lattice element


class NilLattice:
    """Integer x, y and half-integer z in exponential coordinates."""

    generators = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5))

    def contains(self, p) -> bool:
        x, y, z = p
        return all(c == math.floor(c) for c in (x, y, 2 * z))

    def random_element(self, rng):
        return (float(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND)),
                float(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND)),
                rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND) / 2.0)


LATTICE = NilLattice()


# ---------------------------------------------------------------------------
# affine nilmanifold maps
# ---------------------------------------------------------------------------

class NonHyperbolicError(ValueError):
    pass


class NilMap(_Record):
    """Left translation composed with a linear automorphism: the linear part
    is an integer 2x2 matrix of determinant one acting on (x, y) and
    trivially on z in exponential coordinates.

    The translation must normalize the lattice (half-integer x and y parts)
    for the map to descend to the quotient.  `NilMap.of` checks both parts;
    the constructor checks nothing, so `NilMap(linear, translation)` builds
    a map with a non-descending translation, whose frame cocycle is the same.
    """

    __slots__ = ("linear", "translation")

    @staticmethod
    def of(linear, translation=(0.0, 0.0, 0.0)) -> "NilMap":
        """The map with entries given as ints, Fractions or finite floats,
        checked on those exact values; the translation is stored as floats."""
        # int() and math.floor() raise on a float inf or nan: refuse both first
        if any(isinstance(e, float) and not math.isfinite(e) for row in linear for e in row):
            raise ValueError("linear part must be an integer matrix of determinant 1")
        if any(isinstance(c, float) and not math.isfinite(c) for c in translation):
            raise ValueError("translation must be finite")
        m = tuple(tuple(int(e) for e in row) for row in linear)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 1 or any(e != int(e) for row in linear for e in row):
            raise ValueError("linear part must be an integer matrix of determinant 1")
        if any(2 * c != math.floor(2 * c) for c in translation[:2]):
            raise ValueError("translation does not normalize the lattice")
        try:
            return NilMap(m, tuple(float(c) for c in translation))
        except OverflowError:
            raise ValueError("translation is beyond the float range") from None

    def apply(self, p):
        (a, b), (c, d) = self.linear
        x, y, z = p
        return heis_mul(self.translation, (a * x + b * y, c * x + d * y, z))

    def inverse(self) -> "NilMap":
        (a, b), (c, d) = self.linear
        gx, gy, gz = self.translation
        return NilMap(((d, -b), (-c, a)),
                      (-(d * gx - b * gy), -(a * gy - c * gx), -gz))

    def multipliers(self):
        """Eigenvalues of the linear part sorted by decreasing modulus, each
        the float nearest the exact value (the determinant is 1, so they are
        (tr +- sqrt(tr^2 - 4))/2), and their unit eigenvectors.  Complex or
        parabolic linear parts have no invariant line splitting and are
        rejected."""
        (a, b), (c, d) = self.linear
        tr = a + d
        disc = tr * tr - 4
        if disc < 0:
            raise NonHyperbolicError("linear part has complex multipliers")
        if disc == 0:
            if b or c:
                raise NonHyperbolicError("linear part is not diagonalizable")
            return (float(a), float(d)), ((1.0, 0.0), (0.0, 1.0))
        # t = |tr| > 2, so sqrt(t^2 - 4) is irrational and lies strictly
        # between r / 2^k and (r + 1) / 2^k: each multiplier is strictly inside
        # a bracket of width 2^-(k+1) with ends on the 2^-(k+1) grid.  Both are
        # at least 2^-t.bit_length() in modulus, where every float rounding
        # boundary lies on that grid; so the bracket's midpoint rounds as the
        # multiplier does, and int / int true division rounds correctly.
        t = abs(tr)
        k = 64 + 2 * t.bit_length()
        r = math.isqrt(disc << 2 * k)
        try:
            vals = tuple(math.copysign((2 * n + 1) / (1 << (k + 2)), tr)
                         for n in ((t << k) + r, (t << k) - r - 1))
            # of the two kernel vectors of m - lam, the longer is better conditioned
            kernels = [max((b, lam - a), (lam - d, c), key=lambda v: math.hypot(*v))
                       for lam in vals]
        except OverflowError:
            raise ValueError("the linear part is beyond the float range") from None
        vecs = tuple((x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in kernels)
        return vals, vecs

    def exact_rates(self):
        """Per-step log growth along the unstable, stable and central
        directions, exactly from the multipliers: (log|lam_u|, log|lam_s|, 0)."""
        (lam_u, lam_s), _ = self.multipliers()
        return math.log(abs(lam_u)), math.log(abs(lam_s)), 0.0


# ---------------------------------------------------------------------------
# orbits and measured rates
# ---------------------------------------------------------------------------

_BLOCK = 1024  # steps in a block of the orbit walk, and CSV rows formatted by one `%`


def _reduced_orbit(f: NilMap, p, lo: int, hi: int):
    """Steps lo..hi-1 of the orbit of p under the reduced dynamics of f, in
    blocks of 1024 steps, the last one shorter: flat lists of x, y, z, gx,
    gy, gz per step, the point in the fundamental box [0,1) x [0,1) x
    [0,1/2) and the lattice element (gx and gy ints) that left-translates
    the step's image into it.  Steps before lo are walked, not recorded.

    The element is (-fx, -fy, gz) with fx, fy the floors of x, y: the group
    law of (-fx, -fy, 0) * p, then of (0, 0, gz) * that, written out.
    `x + -fx` (not `x - fx`) keeps a -0.0 coordinate at 0.0.  A coordinate
    just below an integer (or z just below a half-integer) rounds up onto
    the far face of the box; it is set to 0.0 and the element moves by one
    unit, before z is computed from it.  `f.apply` follows, written out.
    Two floats multiply faster than a float and an int, so the linear part
    becomes floats after the first block: a one-step walk converts nothing.
    Halving is multiplying by 0.5, which rounds the same and is faster."""
    floor = math.floor
    (a, b), (c, d) = f.linear
    tx, ty, tz = f.translation
    x, y, z = p
    # block ends fall on lo + 1024 j and on hi; `if lo` spares reduce_point a `%`
    k, end = 0, (lo % _BLOCK or _BLOCK) if lo else _BLOCK
    if end > hi:
        if hi <= lo:
            return
        end = hi
    blk = []
    while True:
        fx, fy = floor(x), floor(y)
        rx, ry = x + -fx, y + -fy
        if rx == 1.0:
            rx, fx = 0.0, fx + 1
        if ry == 1.0:
            ry, fy = 0.0, fy + 1
        z = z + (x * fy - y * fx) * 0.5
        gz = 0.5 * -floor(2.0 * z)
        rz = gz + z
        if rz == 0.5:
            rz, gz = 0.0, gz - 0.5
        blk += rx, ry, rz, -fx, -fy, gz
        k += 1
        if k == end:
            if k > lo:
                yield blk
            if k == hi:
                return
            blk = []
            end = k + _BLOCK if k + _BLOCK < hi else hi
            a, b, c, d = 1.0 * a, 1.0 * b, 1.0 * c, 1.0 * d
        u, v = rx * a + ry * b, rx * c + ry * d
        x, y, z = tx + u, ty + v, tz + rz + (tx * v - ty * u) * 0.5


_IDENTITY = NilMap(((1, 0), (0, 1)), (0.0, 0.0, 0.0))


def reduce_point(p):
    """Left-translate p by a lattice element into the fundamental box.  In
    exact arithmetic the representative is unique, so this is a retraction
    invariant under lattice left multiplication.  A float point within
    rounding of a face can land next to either of the two faces that the
    quotient glues, so in floats the reduction is invariant only as a point
    of the quotient."""
    (blk,) = _reduced_orbit(_IDENTITY, p, 0, 1)
    return blk[0], blk[1], blk[2]


class RateEstimate(_Record):
    __slots__ = ("measured", "exact")

    @property
    def error(self) -> float:
        return abs(self.measured - self.exact)


_RATE_START = (0.37, 0.21, 0.13)  # start point of the finite-difference rates
_RATE_STEP = 1e-6  # size of their perturbation


def _measured_rate(f: NilMap, w, n: int) -> float:
    """Mean log growth over n steps of the reduced orbit of _RATE_START of a
    perturbation along the left-invariant extension of w, rescaled every
    step; the left frame (w0, w1, w2 + (x w1 - y w0) / 2) and its inverse
    written out."""
    h = _RATE_STEP
    x, y, z = reduce_point(_RATE_START)  # step 0, which f has not moved
    (w0, w1, w2), growth = w, math.hypot(*w)
    total = 0.0
    for blk in _reduced_orbit(f, _RATE_START, 1, n + 1):
        for x1, y1, z1, gx, gy, gz in zip(*[iter(blk)] * 6):
            e0, e1, e2 = w0 / growth, w1 / growth, w2 / growth
            dx, dy, dz = e0, e1, e2 + (-y * e0 + x * e1) / 2.0
            q1x, q1y, q1z = heis_mul((gx, gy, gz), f.apply((x + h * dx, y + h * dy, z + h * dz)))
            d0, d1, d2 = (q1x - x1) / h, (q1y - y1) / h, (q1z - z1) / h
            w0, w1, w2 = d0, d1, d2 - (-y1 * d0 + x1 * d1) / 2.0
            growth = math.hypot(w0, w1, w2)
            if not (growth > 0 and math.isfinite(growth)):
                raise ValueError(f"the {h:g} perturbation was lost to float rounding "
                                 "at this scale; no finite-difference rate")
            total += math.log(growth)
            x, y, z = x1, y1, z1
    return total / n


def tangent_rates(f: NilMap, n: int = 200) -> dict:
    """Per-step log growth along the left-invariant eigen-directions, keyed
    "u", "s" and "c", found two ways: exactly (`NilMap.exact_rates`), and
    by finite-difference transport of a small perturbation through n steps
    of the reduced dynamics.  The contracted direction is measured on the
    inverse map, where it expands, and the sign is flipped back."""
    vals, vecs = f.multipliers()
    # past |tr| of about 2^26 the stable multiplier, about 1/|tr|, is below
    # the rounding of one float step of the map, whose entries are about |tr|
    if abs(vals[1]) <= math.ulp(vals[0]):
        raise ValueError("sqrt(tr^2 - 4) rounds to |tr| at this scale, so the "
                         "splitting of the linear part is below float "
                         "resolution; no reliable finite-difference rates")
    # One step rounds the perturbation's image by about eps times its
    # coordinates, up to the row sums e0, e1 of |linear| (or of its inverse).
    # Over the step, the part along one eigen-direction is off by the rounding
    # off the other, eps (|w0| e1 + |w1| e0), over the sine of their angle; the
    # larger of the two also bounds a central growth's eps (e0 + e1) / 2.
    # Random maps measure within a tenth of it; refuse once that reaches 1e-3.
    # Eigen-directions equal as floats (sine 0.0), or a row sum past the float
    # range, leave no bound: it is inf, and the map is refused.
    (a, b), (c, d) = f.linear
    e0, e1 = abs(b) + max(abs(a), abs(d)), abs(c) + max(abs(a), abs(d))
    (u0, u1), (s0, s1) = vecs
    sine = abs(u0 * s1 - u1 * s0)
    try:
        bound = (math.ulp(1.0) / _RATE_STEP
                 * max(abs(w0) * e1 + abs(w1) * e0 for w0, w1 in vecs) / sine)
    except (ZeroDivisionError, OverflowError):
        bound = math.inf
    if bound >= 1e-2:
        row_sum = max(e0, e1)  # exact up to 17 digits, then too long for a line
        row_sum = row_sum if row_sum < 10 ** 17 else format(Decimal(row_sum), ".3e")
        raise ValueError(f"one step rounds the {_RATE_STEP:g} perturbation by up to {bound:.1e} "
                         f"of its size (row sums up to {row_sum}, eigen-directions at "
                         f"sine {sine:.1e}), past 1e-02; no reliable finite-difference rates")
    measured = (_measured_rate(f, (*vecs[0], 0.0), n),
                -_measured_rate(f.inverse(), (*vecs[1], 0.0), n),
                _measured_rate(f, (0.0, 0.0, 1.0), n))
    return {k: RateEstimate(m, e) for k, m, e in zip("usc", measured, f.exact_rates())}


# ---------------------------------------------------------------------------
# frame rates of the diagonal flow
# ---------------------------------------------------------------------------

def sl2_frame_rates(t: float):
    """Log multipliers of the time-t right translation on the left-invariant
    frame (E, F, H) of `BLOCK`: derived from the bracket eigenvalues of the
    diagonal generator H, not hard coded.  The frame cocycle of the right
    translation is the adjoint of the inverse, so an eigenvector with
    [H, v] = c v carries the rate -c t; c is read at v's first nonzero
    entry."""
    rates, frame = [], BLOCK.frame
    for v in frame:
        b = bracket(frame[2], v)
        lead = next(k for k, n in enumerate(v.nums) if n)
        c = Fraction(b.nums[lead] * v.den, b.den * v.nums[lead])
        if b != v.scale(c):
            raise ArithmeticError("frame vector is not an eigenvector of the generator")
        rates.append(-float(c) * t)
    return tuple(rates)


# ---------------------------------------------------------------------------
# hyperbolicity certification
# ---------------------------------------------------------------------------

_CERTIFY_TOL = 1e-6  # margin of the certificate's strict inequalities
_CERTIFY_MAX_POWER = 100  # largest power it tries


def hyperbolicity_report(rates) -> int | None:
    """Certify uniform contraction / expansion and domination from a rate
    triple: two rates in either order, then the central rate, e.g.
    `NilMap.exact_rates()`, `sl2_frame_rates(t)` or measured rates.  Returns
    the certificate, the smallest power N <= 100 at which all strict
    inequalities hold with margin 1e-6, or None when there is none.  The
    inequalities are compared in logs, so that no power of a large rate
    overflows.
    """
    ra, rb, rc = rates
    rs, ru = min(ra, rb), max(ra, rb)
    shrink, grow = math.log1p(-_CERTIFY_TOL), math.log1p(_CERTIFY_TOL)
    for n in range(1, _CERTIFY_MAX_POWER + 1):
        contracted = n * rs < shrink
        expanded = n * ru > grow
        dominated = n * rs < n * rc + shrink and n * rc < n * ru + shrink
        if contracted and expanded and dominated:
            return n
    return None


def volume_obstruction_check(lam: float, mu: float) -> str:
    """Volume-recurrence obstruction for the multiplier pair: iterating a
    map that scales an invariant volume by (lam*mu)^2 on a compact quotient
    forces |lam| < 1 < |mu| or the reverse; both multipliers on the same
    side of 1 are flagged."""
    if lam == 0 or mu == 0:
        raise ValueError("multipliers must be nonzero")
    both_small = abs(lam) < 1 and abs(mu) < 1
    both_large = abs(lam) > 1 and abs(mu) > 1
    return "obstructed" if (both_small or both_large) else "admissible"


_ROW = "%d,%.17g,%.17g,%.17g\n"
_ROWS = _ROW * _BLOCK


def _range_blocks(f: NilMap, p0, rows):
    """The CSV rows lo..hi-1 of the orbit of p0, for rows = (lo, hi), with
    17 significant digits per coordinate, as text a block of rows at a time:
    one `%` formats a block of the orbit walk, whose steps before lo are
    walked but not recorded."""
    k, hi = rows
    row = [0] * (4 * _BLOCK)  # step, x, y, z of each row of the block
    for blk in _reduced_orbit(f, p0, k, hi):
        m = len(blk) // 6
        if m < _BLOCK:  # the last block
            del row[4 * m:]
        row[0::4] = range(k, k + m)
        row[1::4] = blk[0::6]
        row[2::4] = blk[1::6]
        row[3::4] = blk[2::6]
        yield (_ROWS if m == _BLOCK else _ROW * m) % tuple(row)
        k += m


def write_trajectory(fh, f: NilMap, p0, n: int) -> None:
    """Trajectory CSV of steps 0..n of the reduced orbit of p0 under f to an
    open text stream: header step,x,y,z, then the rows, one block of the
    orbit walk (1024 rows) at a time.  The rows are split into equal
    shares, at block boundaries, over the CPUs this process may use
    (`workers.split`).  The caller writes the first share as it walks the
    orbit; each forked worker walks the orbit from step 0, records no step
    before its share, and formats its share block by block.  The walk is
    deterministic, so the text is the same on any number of CPUs.  Every
    share holds at least one block; with fewer rows there are fewer shares,
    down to one, which the caller writes alone."""
    rows = n + 1
    shares = max(1, min(cpus(), rows // _BLOCK))
    bounds = [_BLOCK * (rows * w // (shares * _BLOCK)) for w in range(shares)] + [rows]
    with split(list(zip(bounds, bounds[1:])), partial(_range_blocks, f, p0)) as text:
        fh.write("step,x,y,z\n")
        fh.writelines(text)  # holds no block while it formats the next


def write_trajectory_csv(path, f: NilMap, p0, n: int) -> None:
    """`write_trajectory` to the file at `path`, opened before any fork."""
    with open(path, "w", encoding="utf-8") as fh:
        write_trajectory(fh, f, p0, n)
