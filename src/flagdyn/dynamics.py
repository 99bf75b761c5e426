"""Affine dynamics on a Heisenberg nilmanifold and frame rates of the
diagonal flow, with Lyapunov estimation and hyperbolicity certification.

Points live in exponential coordinates, where the group law is

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x') / 2)

and every automorphism fixing the two generating directions acts linearly.
The concrete lattice is the set of points with integer x, y and half-integer
z; it is closed under the law above and invariant under every integer
determinant-one linear part, so quotient dynamics reduce to a fundamental
box [0,1) x [0,1) x [0,1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.array([
        p[0] + q[0],
        p[1] + q[1],
        p[2] + q[2] + (p[0] * q[1] - p[1] * q[0]) / 2.0,
    ])


def heis_inv(p):
    p = np.asarray(p, dtype=float)
    return np.array([-p[0], -p[1], -p[2]])


@dataclass(frozen=True)
class NilLattice:
    """Integer x, y and half-integer z in exponential coordinates."""

    generators: tuple = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5))

    def contains(self, p, tol: float = 1e-9) -> bool:
        x, y, z = p
        return (abs(x - round(x)) <= tol and abs(y - round(y)) <= tol
                and abs(2 * z - round(2 * z)) <= tol)

    def random_element(self, rng, bound: int = 5):
        return np.array([
            float(rng.randint(-bound, bound)),
            float(rng.randint(-bound, bound)),
            rng.randint(-bound, bound) / 2.0,
        ])


LATTICE = NilLattice()


def reduce_with_translation(p):
    """Left-translate by a lattice element into the fundamental box; returns
    (representative, lattice element).  The representative is unique, so
    this is a retraction invariant under lattice left multiplication."""
    p = np.asarray(p, dtype=float)
    m = -math.floor(p[0])
    n = -math.floor(p[1])
    partial = heis_mul(np.array([m, n, 0.0]), p)
    c = -math.floor(2.0 * partial[2]) / 2.0
    gamma = np.array([float(m), float(n), c])
    return heis_mul(np.array([0.0, 0.0, c]), partial), gamma


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
    check_descends: bool = field(default=True)

    @staticmethod
    def of(linear, translation=(0.0, 0.0, 0.0), check_descends: bool = True) -> "NilMap":
        m = tuple(tuple(int(e) for e in row) for row in linear)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det != 1:
            raise ValueError("linear part must be an integer matrix of determinant 1")
        tr = tuple(float(c) for c in translation)
        if check_descends:
            if abs(2 * tr[0] - round(2 * tr[0])) > 1e-12 or \
               abs(2 * tr[1] - round(2 * tr[1])) > 1e-12:
                raise ValueError(
                    "translation does not normalize the lattice; "
                    "use check_descends=False to override")
        return NilMap(m, tr, check_descends)

    def matrix(self) -> np.ndarray:
        return np.array(self.linear, dtype=float)

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        xy = self.matrix() @ p[:2]
        return heis_mul(np.array(self.translation), np.array([xy[0], xy[1], p[2]]))

    def inverse(self) -> "NilMap":
        m = self.linear
        minv = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        gx, gy, gz = self.translation
        ginv = np.array([-gx, -gy, -gz])
        inv_xy = np.array([[minv[0][0], minv[0][1]], [minv[1][0], minv[1][1]]], dtype=float) @ ginv[:2]
        return NilMap(minv, (float(inv_xy[0]), float(inv_xy[1]), float(-gz)),
                      self.check_descends)

    def multipliers(self):
        """Eigenvalues of the linear part sorted by decreasing modulus,
        gated by an exact-diagonalization residual.  Complex or parabolic
        linear parts have no invariant line splitting and are rejected."""
        m = self.matrix()
        vals, vecs = np.linalg.eig(m)
        if abs(vals[0].imag) > 1e-12:
            raise NonHyperbolicError("linear part has complex multipliers")
        if abs(vals[0]) < abs(vals[1]):
            vals = vals[::-1]
            vecs = vecs[:, ::-1]
        vals = vals.real
        vecs = vecs.real
        if vals[1] == 0:
            raise ValueError("the stable multiplier was lost to float rounding "
                             "at this scale")
        if abs(np.linalg.det(vecs)) < 1e-9:
            raise NonHyperbolicError("linear part is not diagonalizable")
        residual = np.linalg.norm(np.linalg.inv(vecs) @ m @ vecs - np.diag(vals))
        if residual > 1e-10:
            raise ArithmeticError("eigenbasis residual gate failed")
        return vals, vecs


@dataclass(frozen=True)
class Sl2TimeMap:
    """Time-t right translation by the diagonal one-parameter subgroup,
    represented only through its frame rates."""

    t: float


# ---------------------------------------------------------------------------
# orbits and measured rates
# ---------------------------------------------------------------------------

def iterate(f: NilMap, p0, n: int) -> np.ndarray:
    """Orbit of the reduced dynamics, rows (n+1) x 3, inside the box."""
    out = np.empty((n + 1, 3))
    p = reduce_point(p0)
    out[0] = p
    for k in range(1, n + 1):
        p = reduce_point(f.apply(p))
        out[k] = p
    return out


def _left_frame(p, w):
    """Coordinate vector of the left-invariant extension of the algebra
    vector w at the point p."""
    return np.array([w[0], w[1], w[2] + (-p[1] * w[0] + p[0] * w[1]) / 2.0])


def _frame_inverse(p, d):
    return np.array([d[0], d[1], d[2] - (-p[1] * d[0] + p[0] * d[1]) / 2.0])


@dataclass(frozen=True)
class RateEstimate:
    direction: str
    measured: float
    exact: float

    @property
    def error(self) -> float:
        return abs(self.measured - self.exact)


def _algebra_direction(f: NilMap, direction: str) -> np.ndarray:
    if direction == "c":
        return np.array([0.0, 0.0, 1.0])
    vals, vecs = f.multipliers()
    idx = 0 if direction == "u" else 1
    v = vecs[:, idx]
    v = v / np.linalg.norm(v)
    return np.array([v[0], v[1], 0.0])


def _measured_rate(f: NilMap, w, p0, n: int, h: float) -> float:
    p = reduce_point(p0)
    d = _left_frame(p, w / np.linalg.norm(w))
    total = 0.0
    for _ in range(n):
        q = p + h * d
        fp = f.apply(p)
        fq = f.apply(q)
        p1, gamma = reduce_with_translation(fp)
        q1 = heis_mul(gamma, fq)
        draw = (q1 - p1) / h
        wv = _frame_inverse(p1, draw)
        growth = np.linalg.norm(wv)
        if not (growth > 0 and math.isfinite(growth)):
            raise ValueError(f"the {h:g} perturbation was lost to float rounding "
                             "at this scale; no finite-difference rate")
        total += math.log(growth)
        d = _left_frame(p1, wv / growth)
        p = p1
    return total / n


def tangent_rates(f: NilMap, direction: str, n: int = 200,
                  start=(0.37, 0.21, 0.13), h: float = 1e-6) -> RateEstimate:
    """Per-step log growth along a left-invariant eigen-direction, measured
    two ways: exactly from the eigenvalues of the linear part, and by
    finite-difference transport of a small perturbation through n steps of
    the reduced dynamics.  The contracted direction is measured on the
    inverse map, where it expands, and the sign is flipped back."""
    if direction not in ("s", "u", "c"):
        raise ValueError("direction must be one of s, u, c")
    if direction == "c":
        exact = 0.0
        measured = _measured_rate(f, np.array([0.0, 0.0, 1.0]), start, n, h)
        return RateEstimate("c", measured, exact)
    vals, _ = f.multipliers()
    if direction == "u":
        exact = math.log(abs(vals[0]))
        w = _algebra_direction(f, "u")
        measured = _measured_rate(f, w, start, n, h)
        return RateEstimate("u", measured, exact)
    exact = math.log(abs(vals[1]))
    w = _algebra_direction(f, "s")
    measured = -_measured_rate(f.inverse(), w, start, n, h)
    return RateEstimate("s", measured, exact)


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


def _weak_contraction_verdict(rate: float, tol: float) -> str:
    if rate < -tol:
        return "forward"
    if rate > tol:
        return "backward"
    return "none"


def hyperbolicity_report(source, n_max: int = 100, tol: float = 1e-6,
                         n_iter: int = 200) -> HyperbolicityReport:
    """Certify uniform contraction / expansion and domination from measured
    rates.

    `source` is a NilMap (rates measured along its invariant frame), an
    Sl2TimeMap (frame rates of the diagonal flow), or a plain labelled rate
    triple (rate_alpha, rate_beta, rate_center).  The certificate looks for
    the smallest power N <= n_max at which all strict inequalities hold
    with margin tol; when none exists the report is inconclusive rather
    than an error.
    """
    if isinstance(source, NilMap):
        ra = tangent_rates(source, "u", n=n_iter).measured
        rb = tangent_rates(source, "s", n=n_iter).measured
        rc = tangent_rates(source, "c", n=n_iter).measured
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

    n_certified = None
    for n in range(1, n_max + 1):
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
