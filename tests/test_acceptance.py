"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion names the registered checks that verify its claim and runs
them through `run_check(id, seed)` at their default sample counts, so this
module is the map from the paper's claims to check ids, and no criterion
draws a sample of its own.  The runtime budgets are unchanged: criteria 1,
2 and 6 each run in under a second.  Criteria 6 and 9 measure float rates
and keep their own loops.  Every tolerance is pinned, here or in the check
that a criterion names; nothing is deferred to later calibration.
Expected values on the oracle side come from independent computations
(quadratic formula, brute-force projection, exact integer bounds), never
from the code path they gate.
"""

import math
import random
import time

from flagdyn import curvature as curv
from flagdyn import dynamics as dyn
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import rand_traceless, run_check


def _report(num, ok, text, failed=()):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}" + (f"; failed: {', '.join(failed)}" if failed else "")


def _criterion(num, seed, check_ids, text, budget=None):
    """Run the registered checks `check_ids` at `seed` and their default
    sample counts, within `budget` seconds if one is given, and report the
    criterion; `text` may name the {elapsed} time."""
    start = time.perf_counter()
    failed = [cid for cid in check_ids if not run_check(cid, seed)[0]]
    elapsed = time.perf_counter() - start
    _report(num, not failed and (budget is None or elapsed < budget),
            text.format(elapsed=elapsed), failed)


def test_criterion_1_adjoint_quotient_matrix():
    """1000 random upper-triangular elements: the induced adjoint matrix
    equals the displayed closed form and the brute-force projection,
    exactly, in under a second."""
    _criterion(1, 101, ["quotient-adjoint-display", "quotient-adjoint-bruteforce"],
               "adjoint quotient matrix, 1000 exact samples in {elapsed:.3f}s", budget=1.0)


def test_criterion_2_curvature_action_exponents():
    """1000 random elements: the two lowest curvature components scale by
    a^-1 b^-5 and a^5 b exactly; the harmonic subspace is exactly
    invariant (100 of them).  Under a second."""
    _criterion(2, 103, ["curvature-diagonal-exponents", "harmonic-subspace-invariant"],
               "curvature exponents and harmonic invariance in {elapsed:.3f}s", budget=1.0)


def test_criterion_3_degeneration_oracle():
    """All four degeneration matrices are reproduced exactly at
    t in {1, 1/2, 1/10, 1/100}, with the projected line within 3|t| of its
    limit in sine distance, decided exactly: |v x e|^2 <= 9 t^2 |v|^2."""
    _criterion(3, 0, ["degeneration-matrices"],
               "degeneration matrices exact, line distance <= 3|t|")


def test_criterion_4_isotropy_tables_and_invariant_lines():
    """Isotropy eigenvalue tables [3a, -3a, 0] and [2a+b, -a-2b, a-b] by
    elimination; unique invariant transverse lines (classes of H and Z);
    the four-case stabilizer table; no invariant line for the translation
    extension."""
    _criterion(4, 0, ["isotropy-table-block", "isotropy-table-affine", "invariant-line-block",
                      "invariant-line-affine", "stabilizer-four-cases",
                      "invariant-line-translations-sl2"],
               "isotropy tables, invariant lines, stabilizer four-case table")


def test_criterion_5_central_flow_identity():
    """The alpha-beta rectangle identity x + t^2 e1 holds exactly for 1000
    random rational points and times, both sign variants."""
    _criterion(5, 107, ["central-flow-identity"],
               "central-flow commutator identity, exact, both variants")


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
    (-2, 2, 0), derived from integer bracket eigenvalues, and certify
    hyperbolicity at power 1."""
    _criterion(7, 0, ["sl2-frame-rates", "hyperbolicity-certificates"],
               "diagonal-flow frame rates (-2, 2, 0), exact")


def test_criterion_8_contact_and_boundary_geometry():
    """The invariant frame pair passes the contact test at 100 random
    interior points of each model; every circle through 500 random
    interior points of each model meets the boundary in exactly one flag."""
    _criterion(8, 109, ["contact-model-frames", "circle-boundary-unique"],
               "contact frames at 100 points; one boundary flag per circle")


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
    _criterion(10, 127, ["affine-linearization", "equivariance-affine-morphism",
                         "equivariance-block-morphism", "volume-obstruction"],
               "affine linearization and equivariance morphisms; volume obstruction verdicts")
