"""Affine dynamics on a Heisenberg nilmanifold with exact multipliers, frame
rates of the diagonal flow, Lyapunov estimation and hyperbolicity certification.

Points live in exponential coordinates, where the group law is

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x') / 2)

and every automorphism fixing the two generating directions acts linearly.
The concrete lattice is the set of points with integer x, y and half-integer
z; it is closed under the law above and invariant under every integer
determinant-one linear part, so quotient dynamics reduce to a fundamental
box [0,1) x [0,1) x [0,1/2).  Points and vectors are tuples of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lie_core import LieVec, bracket
from .models import SL2_E, SL2_F, SL2_H

__all__ = [
    "NilLattice",
    "NilMap",
    "Sl2TimeMap",
    "RateEstimate",
    "HyperbolicityReport",
    "heis_mul",
    "heis_inv",
    "reduce_point",
    "reduce_with_translation",
    "iterate",
    "tangent_rates",
    "sl2_frame_rates",
    "hyperbolicity_report",
    "volume_obstruction_check",
    "write_trajectory_csv",
    "write_trajectory_rows",
]


def heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1],
            p[2] + q[2] + (p[0] * q[1] - p[1] * q[0]) / 2.0)


def heis_inv(p):
    return (-p[0], -p[1], -p[2])


_LATTICE_TOL = 1e-9  # membership tolerance of a float point
_RANDOM_BOUND = 5  # coordinate bound of a random lattice element


class NilLattice:
    """Integer x, y and half-integer z in exponential coordinates."""

    generators = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5))

    def contains(self, p) -> bool:
        x, y, z = p
        return all(abs(c - round(c)) <= _LATTICE_TOL for c in (x, y, 2 * z))

    def random_element(self, rng):
        return (float(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND)),
                float(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND)),
                rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND) / 2.0)


LATTICE = NilLattice()


def reduce_with_translation(p):
    """Left-translate by a lattice element into the fundamental box; returns
    (representative, lattice element).  The representative is unique, so
    this is a retraction invariant under lattice left multiplication."""
    gamma_xy = (float(-math.floor(p[0])), float(-math.floor(p[1])))
    partial = heis_mul((*gamma_xy, 0.0), p)
    c = -math.floor(2.0 * partial[2]) / 2.0
    return heis_mul((0.0, 0.0, c), partial), (*gamma_xy, c)


def reduce_point(p):
    return reduce_with_translation(p)[0]


# ---------------------------------------------------------------------------
# affine nilmanifold maps
# ---------------------------------------------------------------------------

class NonHyperbolicError(ValueError):
    pass


@dataclass(frozen=True)
class NilMap:
    """Left translation composed with a linear automorphism: the linear part
    is an integer 2x2 matrix of determinant one acting on (x, y) and
    trivially on z in exponential coordinates.

    The translation must normalize the lattice (half-integer x and y parts)
    for the map to descend to the quotient; pass check_descends=False to
    study a non-descending translation, the frame cocycle is unchanged.
    """

    linear: tuple
    translation: tuple

    @staticmethod
    def of(linear, translation=(0.0, 0.0, 0.0), check_descends: bool = True) -> "NilMap":
        m = tuple(tuple(int(e) for e in row) for row in linear)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 1 or any(e != int(e) for row in linear for e in row):
            raise ValueError("linear part must be an integer matrix of determinant 1")
        tr = tuple(float(c) for c in translation)
        if check_descends:
            if abs(2 * tr[0] - round(2 * tr[0])) > 1e-12 or \
               abs(2 * tr[1] - round(2 * tr[1])) > 1e-12:
                raise ValueError(
                    "translation does not normalize the lattice; "
                    "use check_descends=False to override")
        return NilMap(m, tr)

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


@dataclass(frozen=True)
class Sl2TimeMap:
    """Time-t right translation by the diagonal one-parameter subgroup,
    represented only through its frame rates."""

    t: float


# ---------------------------------------------------------------------------
# orbits and measured rates
# ---------------------------------------------------------------------------

def iterate(f: NilMap, p0, n: int):
    """Orbit of the reduced dynamics: yields its n+1 points, inside the box,
    one at a time, so that a long orbit streams to its CSV."""
    p = reduce_point(p0)
    yield p
    for _ in range(n):
        p = reduce_point(f.apply(p))
        yield p


def _left_frame(p, w):
    """Coordinate vector of the left-invariant extension of the algebra
    vector w at the point p."""
    return (w[0], w[1], w[2] + (-p[1] * w[0] + p[0] * w[1]) / 2.0)


def _frame_inverse(p, d):
    return (d[0], d[1], d[2] - (-p[1] * d[0] + p[0] * d[1]) / 2.0)


@dataclass(frozen=True)
class RateEstimate:
    direction: str
    measured: float
    exact: float

    @property
    def error(self) -> float:
        return abs(self.measured - self.exact)


_RATE_START = (0.37, 0.21, 0.13)  # start point of the finite-difference rates
_RATE_STEP = 1e-6  # size of their perturbation


def _measured_rate(f: NilMap, w, n: int) -> float:
    h = _RATE_STEP
    p = reduce_point(_RATE_START)
    norm = math.hypot(*w)
    d = _left_frame(p, tuple(c / norm for c in w))
    total = 0.0
    for _ in range(n):
        q = tuple(a + h * b for a, b in zip(p, d))
        p1, gamma = reduce_with_translation(f.apply(p))
        q1 = heis_mul(gamma, f.apply(q))
        wv = _frame_inverse(p1, tuple((b - a) / h for a, b in zip(p1, q1)))
        growth = math.hypot(*wv)
        if not (growth > 0 and math.isfinite(growth)):
            raise ValueError(f"the {h:g} perturbation was lost to float rounding "
                             "at this scale; no finite-difference rate")
        total += math.log(growth)
        d = _left_frame(p1, tuple(c / growth for c in wv))
        p = p1
    return total / n


def tangent_rates(f: NilMap, direction: str, n: int = 200) -> RateEstimate:
    """Per-step log growth along a left-invariant eigen-direction, found
    two ways: exactly from the multipliers of the linear part, and by
    finite-difference transport of a small perturbation through n steps of
    the reduced dynamics.  The contracted direction is measured on the
    inverse map, where it expands, and the sign is flipped back."""
    if direction not in ("s", "u", "c"):
        raise ValueError("direction must be one of s, u, c")
    if direction == "c":
        return RateEstimate("c", _measured_rate(f, (0.0, 0.0, 1.0), n), 0.0)
    vals, vecs = f.multipliers()
    # past |tr| of about 2^26 the stable multiplier, about 1/|tr|, is below
    # the rounding of one float step of the map, whose entries are about |tr|
    if abs(vals[1]) <= math.ulp(vals[0]):
        raise ValueError("sqrt(tr^2 - 4) rounds to |tr| at this scale, so the "
                         "splitting of the linear part is below float "
                         "resolution; no reliable finite-difference rates")
    i = 0 if direction == "u" else 1
    w = (*vecs[i], 0.0)
    if direction == "u":
        measured = _measured_rate(f, w, n)
    else:
        measured = -_measured_rate(f.inverse(), w, n)
    return RateEstimate(direction, measured, math.log(abs(vals[i])))


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

@dataclass(frozen=True)
class HyperbolicityReport:
    rate_alpha: float
    rate_beta: float
    rate_center: float
    stable_label: str
    unstable_label: str
    n_certified: int | None
    partially_hyperbolic: bool
    inconclusive: bool
    weak_contraction: dict


_CERTIFY_TOL = 1e-6  # margin of the certificate's strict inequalities
_CERTIFY_MAX_POWER = 100  # largest power it tries


def _weak_contraction_verdict(rate: float, tol: float) -> str:
    if rate < -tol:
        return "forward"
    if rate > tol:
        return "backward"
    return "none"


def hyperbolicity_report(source) -> HyperbolicityReport:
    """Certify uniform contraction / expansion and domination from rates.

    `source` is a NilMap (the exact rates log|lam_u|, log|lam_s| and 0 of
    its multipliers), an Sl2TimeMap (frame rates of the diagonal flow), or
    a plain labelled rate triple (rate_alpha, rate_beta, rate_center).  The
    certificate looks for the smallest power N <= 100 at which all strict
    inequalities hold with margin 1e-6; when none exists the report is
    inconclusive rather than an error.
    """
    if isinstance(source, NilMap):
        (lam_u, lam_s), _ = source.multipliers()
        ra, rb, rc = math.log(abs(lam_u)), math.log(abs(lam_s)), 0.0
    elif isinstance(source, Sl2TimeMap):
        ra, rb, rc = sl2_frame_rates(source.t)
    else:
        ra, rb, rc = (float(v) for v in source)

    if ra <= rb:
        rs, ru = ra, rb
        stable, unstable = "alpha", "beta"
    else:
        rs, ru = rb, ra
        stable, unstable = "beta", "alpha"

    tol = _CERTIFY_TOL
    n_certified = None
    for n in range(1, _CERTIFY_MAX_POWER + 1):
        contracted = math.exp(n * rs) < 1.0 - tol
        expanded = math.exp(n * ru) > 1.0 + tol
        dominated = (math.exp(n * rs) < math.exp(n * rc) * (1.0 - tol)
                     and math.exp(n * rc) < math.exp(n * ru) * (1.0 - tol))
        if contracted and expanded and dominated:
            n_certified = n
            break

    weak = {
        "alpha": _weak_contraction_verdict(ra, tol),
        "beta": _weak_contraction_verdict(rb, tol),
        "center": _weak_contraction_verdict(rc, tol),
    }
    return HyperbolicityReport(
        rate_alpha=ra,
        rate_beta=rb,
        rate_center=rc,
        stable_label=stable,
        unstable_label=unstable,
        n_certified=n_certified,
        partially_hyperbolic=n_certified is not None,
        inconclusive=n_certified is None,
        weak_contraction=weak,
    )


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


def write_trajectory_rows(fh, orbit) -> None:
    """Trajectory CSV to an open text stream, one row at a time: header
    step,x,y,z, then 17 significant digits per coordinate."""
    fh.write("step,x,y,z\n")
    for k, row in enumerate(orbit):
        fh.write(f"{k},{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}\n")


def write_trajectory_csv(path, orbit) -> None:
    """Trajectory CSV export to the file at `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        write_trajectory_rows(fh, orbit)
