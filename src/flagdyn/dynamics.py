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
the map written out so that a step makes no call.  `write_trajectory` splits
the rows of the trajectory CSV over the CPUs through `workers.split`, the
one fork helper, which `checks.run_checks` uses too.
"""

from __future__ import annotations

import math
from decimal import Decimal
from functools import partial
from itertools import islice

from .lie_core import LieVec, bracket
from .models import SL2_E, SL2_F, SL2_H
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

def _reduced_orbit(f: NilMap, p, n: int):
    """The orbit of p under the reduced dynamics of f: yields its n+1 points,
    each with the lattice element that left-translates it into the
    fundamental box [0,1) x [0,1) x [0,1/2).

    The element is (-fx, -fy, gz) with fx, fy the floors of x, y: the group
    law of (-fx, -fy, 0) * p, then of (0, 0, gz) * that, written out.
    `-fx + x` (not `x - fx`) keeps a -0.0 coordinate at 0.0.  A coordinate
    just below an integer (or z just below a half-integer) rounds up onto
    the far face of the box; it is set to 0.0 and the element moves by one
    unit, before z is computed from it.  `f.apply` follows, written out."""
    floor = math.floor
    (a, b), (c, d) = f.linear
    tx, ty, tz = f.translation
    x, y, z = p
    while True:
        fx, fy = floor(x), floor(y)
        rx, ry = -fx + x, -fy + y
        if rx == 1.0:
            rx, fx = 0.0, fx + 1
        if ry == 1.0:
            ry, fy = 0.0, fy + 1
        z = z + (fy * x - fx * y) / 2.0
        gz = -floor(2.0 * z) / 2.0
        rz = gz + z
        if rz == 0.5:
            rz, gz = 0.0, gz - 0.5
        yield (rx, ry, rz), (float(-fx), float(-fy), gz)
        if n <= 0:
            return
        n -= 1
        u, v = a * rx + b * ry, c * rx + d * ry
        x, y, z = tx + u, ty + v, tz + rz + (tx * v - ty * u) / 2.0


_IDENTITY = NilMap(((1, 0), (0, 1)), (0.0, 0.0, 0.0))


def reduce_with_translation(p):
    """Left-translate by a lattice element into the fundamental box; returns
    (representative, lattice element).  The representative is unique, so
    this is a retraction invariant under lattice left multiplication."""
    (reduced,) = _reduced_orbit(_IDENTITY, p, 0)  # runs it out: cheaper than next()
    return reduced


def reduce_point(p):
    return reduce_with_translation(p)[0]


def iterate(f: NilMap, p0, n: int):
    """Orbit of the reduced dynamics: yields its n+1 points, inside the box,
    one at a time, so that a long orbit streams to its CSV."""
    return (p for p, _ in _reduced_orbit(f, p0, n))


def _left_frame(p, w):
    """Coordinate vector of the left-invariant extension of the algebra
    vector w at the point p."""
    return (w[0], w[1], w[2] + (-p[1] * w[0] + p[0] * w[1]) / 2.0)


def _frame_inverse(p, d):
    return (d[0], d[1], d[2] - (-p[1] * d[0] + p[0] * d[1]) / 2.0)


class RateEstimate(_Record):
    __slots__ = ("measured", "exact")

    @property
    def error(self) -> float:
        return abs(self.measured - self.exact)


_RATE_START = (0.37, 0.21, 0.13)  # start point of the finite-difference rates
_RATE_STEP = 1e-6  # size of their perturbation


def _measured_rate(f: NilMap, w, n: int) -> float:
    h = _RATE_STEP
    orbit = _reduced_orbit(f, _RATE_START, n)
    p, _ = next(orbit)
    norm = math.hypot(*w)
    d = _left_frame(p, tuple(c / norm for c in w))
    total = 0.0
    for p1, gamma in orbit:
        q = (p[0] + h * d[0], p[1] + h * d[1], p[2] + h * d[2])
        q1 = heis_mul(gamma, f.apply(q))
        wv = _frame_inverse(p1, ((q1[0] - p1[0]) / h, (q1[1] - p1[1]) / h,
                                 (q1[2] - p1[2]) / h))
        growth = math.hypot(*wv)
        if not (growth > 0 and math.isfinite(growth)):
            raise ValueError(f"the {h:g} perturbation was lost to float rounding "
                             "at this scale; no finite-difference rate")
        total += math.log(growth)
        d = _left_frame(p1, tuple(c / growth for c in wv))
        p = p1
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

def _eigen_coefficient(h: LieVec, v: LieVec):
    """c with [h, v] = c v, exact; None when v is not an eigenvector."""
    b = bracket(h, v)
    flat_v = v.flat()
    flat_b = b.flat()
    lead = next((i for i, e in enumerate(flat_v) if e != 0), None)
    if lead is None:
        return None
    c = flat_b[lead] / flat_v[lead]
    if all(e == c * f for e, f in zip(flat_b, flat_v)):
        return c
    return None


def sl2_frame_rates(t: float):
    """Log multipliers of the time-t right translation on the left-invariant
    frame (E, F, H): derived from the bracket eigenvalues of the diagonal
    generator, not hard coded.  The frame cocycle of the right translation
    is the adjoint of the inverse, so an eigenvector with [H, v] = c v
    carries the rate -c t."""
    rates = []
    for v in (SL2_E, SL2_F, SL2_H):
        c = _eigen_coefficient(SL2_H, v)
        if c is None:
            raise ArithmeticError("frame vector is not an eigenvector of the generator")
        rates.append(-float(c) * t)
    return tuple(rates)


# ---------------------------------------------------------------------------
# hyperbolicity certification
# ---------------------------------------------------------------------------

class HyperbolicityReport(_Record):
    __slots__ = ("n_certified",)  # an int, or None

    @property
    def partially_hyperbolic(self) -> bool:
        return self.n_certified is not None


_CERTIFY_TOL = 1e-6  # margin of the certificate's strict inequalities
_CERTIFY_MAX_POWER = 100  # largest power it tries


def hyperbolicity_report(rates) -> HyperbolicityReport:
    """Certify uniform contraction / expansion and domination from a rate
    triple: two rates in either order, then the central rate, e.g.
    `NilMap.exact_rates()`, `sl2_frame_rates(t)` or measured rates.  The
    certificate looks for the smallest power N <= 100 at which all strict
    inequalities hold with margin 1e-6; when none exists, n_certified is
    None rather than an error.  The inequalities are compared in logs, so
    that no power of a large rate overflows.
    """
    ra, rb, rc = rates
    rs, ru = min(ra, rb), max(ra, rb)
    shrink, grow = math.log1p(-_CERTIFY_TOL), math.log1p(_CERTIFY_TOL)
    for n in range(1, _CERTIFY_MAX_POWER + 1):
        contracted = n * rs < shrink
        expanded = n * ru > grow
        dominated = n * rs < n * rc + shrink and n * rc < n * ru + shrink
        if contracted and expanded and dominated:
            return HyperbolicityReport(n)
    return HyperbolicityReport(None)


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
_BLOCK = 1024  # rows formatted by one `%`
_ROWS = _ROW * _BLOCK


def _range_blocks(f: NilMap, p0, rows):
    """The CSV rows lo..hi-1 of the orbit of p0, for rows = (lo, hi), with
    17 significant digits per coordinate, as text a block of rows at a time:
    the orbit is walked from step 0, and the rows before lo are not
    formatted."""
    lo, hi = rows
    flat = []
    for k, row in enumerate(islice(iterate(f, p0, hi - 1), lo, None), lo):
        flat.append(k)
        flat += row
        if len(flat) == 4 * _BLOCK:
            yield _ROWS % tuple(flat)
            flat.clear()
    yield _ROW * (len(flat) // 4) % tuple(flat)


def write_trajectory(fh, f: NilMap, p0, n: int) -> None:
    """Trajectory CSV of `iterate(f, p0, n)` to an open text stream: header
    step,x,y,z, then the rows, a block of rows at a time.  The rows are
    split into equal shares, at block boundaries, over the CPUs this
    process may use (`workers.split`).  The caller writes the first share
    as it walks the orbit; each forked worker walks the orbit from step 0
    and formats its own share.  The walk is deterministic, so the text is
    the same on any number of CPUs.  Every share holds at least one block;
    with fewer rows there are fewer shares, down to one, which the caller
    writes alone."""
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
