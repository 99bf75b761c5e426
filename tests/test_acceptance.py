"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Expected values on the oracle side come from independent computations
(quadratic formula, brute-force projection, finite differences), never from
the code path they gate.
"""

import math
import random
import time
from fractions import Fraction

from flagdyn import classification as cls
from flagdyn import curvature as curv
from flagdyn import dynamics as dyn
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import (
    nonzero_frac,
    rand_auto,
    rand_frac,
    rand_heis,
    rand_interior_flag,
    rand_sl2,
    rand_traceless,
    rand_upper,
)


def _report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_adjoint_quotient_matrix():
    """1000 random upper-triangular elements: the induced adjoint matrix
    equals the displayed closed form and the brute-force projection,
    exactly, in under a second."""
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        p = rand_upper(rng)
        e = p.entries
        d1, d2, d3 = (Fraction(e[i][i]) for i in range(3))
        display = ((d3 / d2, Fraction(0), -(d3 * e[0][1]) / (d1 * d2)),
                   (Fraction(0), d2 / d1, e[1][2] / d1),
                   (Fraction(0), Fraction(0), d3 / d1))
        computed = lc.quotient_adjoint(p)
        if computed != display or computed != lc.quotient_adjoint_bruteforce(p):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0,
            f"adjoint quotient matrix, 1000 exact samples in {elapsed:.3f}s")


def test_criterion_2_curvature_action_exponents():
    """1000 random elements: the two lowest curvature components scale by
    a^-1 b^-5 and a^5 b exactly; the harmonic subspace is exactly
    invariant.  Under a second."""
    rng = random.Random(103)
    start = time.perf_counter()
    ok = True
    for i in range(1000):
        p = rand_upper(rng)
        k = curv.NormalCurvature.of(rand_frac(rng), rand_frac(rng),
                                    rand_frac(rng), rand_frac(rng))
        out = curv.curvature_action(p, k)
        if out.k_alpha != curv.alpha_scale(p) * k.k_alpha:
            ok = False
            break
        if out.k_beta != curv.beta_scale(p) * k.k_beta:
            ok = False
            break
        if i < 100:
            kh = curv.NormalCurvature.of(0, 0, rand_frac(rng), rand_frac(rng))
            if not curv.is_harmonic(curv.curvature_action(p, kh)):
                ok = False
                break
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 1.0,
            f"curvature exponents and harmonic invariance in {elapsed:.3f}s")


def test_criterion_3_degeneration_oracle():
    """All four degeneration matrices are reproduced exactly at
    t in {1, 1/2, 1/10, 1/100}, with the projected line within 3|t| of its
    limit in sine distance."""
    ok = True
    for case in ("t1", "t2", "a1", "a2"):
        for t in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            res = cls.degeneration_limit(case, t)
            if not res.matches or res.sine_distance > 3 * float(t):
                ok = False
    _report(3, ok, "degeneration matrices exact, line distance <= 3|t|")


def test_criterion_4_isotropy_tables_and_invariant_lines():
    """Isotropy eigenvalue tables [3a, -3a, 0] and [2a+b, -a-2b, a-b] by
    elimination; unique invariant transverse lines (classes of H and Z);
    the four-case stabilizer table; no invariant line for the translation
    extension."""
    t_table = cls.isotropy_eigenvalue_table("t")
    a_table = cls.isotropy_eigenvalue_table("a")
    ok = tuple(t_table[i][i] for i in range(3)) == ((3, 0), (-3, 0), (0, 0))
    ok = ok and tuple(a_table[i][i] for i in range(3)) == \
        ((2, 1), (-1, -2), (1, -1))
    ok = ok and all(t_table[i][j] == (0, 0) and a_table[i][j] == (0, 0)
                    for i in range(3) for j in range(3) if i != j)

    res_t = cls.invariant_transverse_line_search(cls.h_t(), fs.O_T)
    ok = ok and res_t.kind == "unique" and cls.line_class_equals(
        res_t.generator, md.SL2_H, cls.h_t(), fs.O_T)
    res_a = cls.invariant_transverse_line_search(cls.h_a(), fs.O_A)
    ok = ok and res_a.kind == "unique" and cls.line_class_equals(
        res_a.generator, md.HEIS_Z, cls.h_a(), fs.O_A)

    table = cls.transverse_stabilizer_cases(cls.h_a(), fs.O_A)
    from flagdyn.rational import in_span

    ok = ok and len(table["x=0,y=0"]) == 2
    ok = ok and len(table["x=0,y!=0"]) == 1 and in_span(
        [lc.LieVec.diag(1, 1, -2).flat()], table["x=0,y!=0"][0].flat())
    ok = ok and len(table["x!=0,y=0"]) == 1 and in_span(
        [lc.LieVec.diag(-2, 1, 1).flat()], table["x!=0,y=0"][0].flat())
    ok = ok and table["x!=0,y!=0"] == []

    res_1 = cls.invariant_transverse_line_search(cls.h_1(), cls.X1_FLAG)
    ok = ok and res_1.kind == "none"
    _report(4, ok, "isotropy tables, invariant lines, stabilizer four-case table")


def test_criterion_5_central_flow_identity():
    """The alpha-beta rectangle identity x + t^2 e1 holds exactly for 1000
    random rational points and times, both sign variants."""
    rng = random.Random(107)
    ok = True
    for _ in range(1000):
        p = tuple(rand_frac(rng) for _ in range(3))
        t = rand_frac(rng)
        plus, minus = md.commutator_identity_check(p, t)
        if not (plus and minus):
            ok = False
            break
    _report(5, ok, "central-flow commutator identity, exact, both variants")


def test_criterion_6_nilmanifold_lyapunov():
    """Cat-map rates after 200 steps: unstable within 1e-3 of
    log((3+sqrt(5))/2) (quadratic-formula oracle), stable within 1e-3 of
    the negative, center within 1e-6 of zero; certificate at power 1.
    Under a second."""
    oracle = math.log((3 + math.sqrt(5)) / 2)
    start = time.perf_counter()
    ok = True
    translations = [(0.0, 0.0, 0.0), (0.5, 1.5, 0.25), (1.0, 0.5, 0.8),
                    (0.31, 0.77, 0.41)]
    for i, g in enumerate(translations):
        # the last translation does not descend; the rates do not see that
        f = dyn.NilMap.of(((2, 1), (1, 1)), g) if i < 3 else dyn.NilMap(((2, 1), (1, 1)), g)
        rates = dyn.tangent_rates(f, n=200)
        ru, rs, rc = rates["u"], rates["s"], rates["c"]
        ok = ok and abs(ru.measured - oracle) <= 1e-3
        ok = ok and abs(rs.measured + oracle) <= 1e-3
        ok = ok and abs(rc.measured) <= 1e-6
    n = dyn.hyperbolicity_report(dyn.NilMap.of(((2, 1), (1, 1)), (0.5, 0.0, 0.0)).exact_rates())
    ok = ok and n == 1
    elapsed = time.perf_counter() - start
    _report(6, ok and elapsed < 1.0,
            f"nilmanifold Lyapunov rates and certificate in {elapsed:.3f}s")


def test_criterion_7_sl2_frame_rates():
    """Frame rates of the time-one diagonal translation are exactly
    (-2, 2, 0), derived from integer bracket eigenvalues."""
    ok = dyn.sl2_frame_rates(1.0) == (-2.0, 2.0, 0.0)
    ok = ok and dyn.hyperbolicity_report(dyn.sl2_frame_rates(1.0)) == 1
    _report(7, ok, "diagonal-flow frame rates (-2, 2, 0), exact")


def test_criterion_8_contact_and_boundary_geometry():
    """The invariant frame pair passes the contact test at 100 random
    interior points of each model; every circle through 500 random
    interior points meets the boundary in exactly one flag."""
    rng = random.Random(109)
    ok = True
    for model, gens in (("t", (md.SL2_E, md.SL2_F)),
                        ("a", (md.HEIS_X, md.HEIS_Y))):
        fa, fb = md.InvariantField(gens[0], model), md.InvariantField(gens[1], model)
        for _ in range(100):
            p = fs.chart_coords(rand_interior_flag(rng, model))
            if not curv.contact_test(fa, fb, p):
                ok = False

    for model in ("t", "a"):
        for _ in range(500):
            x = rand_interior_flag(rng, model)
            for which in ("alpha", "beta"):
                res = fs.circle_boundary_points(x, which, model)
                if res is None or len(res) != 1:
                    ok = False
    _report(8, ok, "contact frames at 100 points; one boundary flag per circle")


def test_criterion_9_flow_commutator_defect():
    """Log-log slope of the rectangle defect at least 2.9 over three decades
    for 20 random traceless pairs; the nilpotent pair is exact to 1e-12."""
    rng = random.Random(113)
    ok = all(curv.flow_commutator_defect(md.HEIS_X, md.HEIS_Y, t) <= 1e-12
             for t in (0.5, 0.1, 1e-2, 1e-3))
    count = 0
    while count < 20:
        u, v = rand_traceless(rng), rand_traceless(rng)
        if lc.bracket(u, v).is_zero():
            continue
        if curv.commutator_slope(u, v) < 2.9:
            ok = False
        count += 1
    _report(9, ok, "flow-commutator defect third order; nilpotent case exact")


def test_criterion_10_morphism_suite():
    """100-sample exact homomorphism checks for the affine linearization
    and both model equivariances; the volume obstruction flags same-side
    pairs and admits reciprocal ones."""
    rng = random.Random(127)
    ok = True
    for _ in range(100):
        a = (rand_heis(rng), rand_auto(rng))
        b = (rand_heis(rng), rand_auto(rng))
        if md.theta_affine(*md.heis_semidirect_mul(a, b)) != \
                md.theta_affine(*a).compose(md.theta_affine(*b)):
            ok = False
            break
    for _ in range(100):
        p, q = rand_upper(rng), rand_upper(rng)
        if md.equivariance_a(p @ q) != md.heis_semidirect_mul(
                md.equivariance_a(p), md.equivariance_a(q)):
            ok = False
            break
    for _ in range(100):
        g1 = md.equivariance_t_inverse(rand_sl2(rng), nonzero_frac(rng))
        g2 = md.equivariance_t_inverse(rand_sl2(rng), nonzero_frac(rng))
        s1, l1 = md.equivariance_t(g1)
        s2, l2 = md.equivariance_t(g2)
        s12, l12 = md.equivariance_t(g1 @ g2)
        if l12 != l1 * l2 or s12 != md.mat_mul2(s1, s2):
            ok = False
            break
    ok = ok and dyn.volume_obstruction_check(0.5, 1 / 3) == "obstructed"
    ok = ok and dyn.volume_obstruction_check(2.0, 3.0) == "obstructed"
    lam = (3 + math.sqrt(5)) / 2
    ok = ok and dyn.volume_obstruction_check(lam, 1 / lam) == "admissible"
    _report(10, ok, "affine linearization and equivariance morphisms; "
                    "volume obstruction verdicts")
