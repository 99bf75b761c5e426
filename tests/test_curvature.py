"""Curvature component action, harmonic subspace, contact and commutator checks."""

import random
from fractions import Fraction

import pytest

from flagdyn import checks
from flagdyn import curvature as curv
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import (
    nonzero_frac,
    rand_curvature,
    rand_frac,
    rand_traceless,
    rand_upper,
    run_check,
)
from fraction_count import fractions_built


_HALF = Fraction(1, 2)


def zero_jacobian(p):
    return ((0, 0, 0), (0, 0, 0), (0, 0, 0))


class TestCurvatureAction:
    def test_identity(self):
        rng = random.Random(1)
        k = rand_curvature(rng)
        assert curv.curvature_action(lc.GroupElem.identity(), k) == k

    def test_unipotent_fixes_lowest_components(self):
        rng = random.Random(2)
        for _ in range(100):
            p = lc.GroupElem([[1, rand_frac(rng), rand_frac(rng)],
                              [0, 1, rand_frac(rng)],
                              [0, 0, 1]])
            k = rand_curvature(rng)
            out = curv.curvature_action(p, k)
            assert out.k_alpha == k.k_alpha
            assert out.k_beta == k.k_beta

    def test_displayed_alpha_example(self):
        # diagonal (a, a^-1 b^-1, b) with a = 2, b = 1 divides K_alpha by 2
        p = lc.GroupElem([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
        out = curv.curvature_action(p, curv.NormalCurvature.of(1, 0, 0, 0))
        assert out.k_alpha == Fraction(1, 2)

    def test_sparse_path_agrees_with_dense_reference(self):
        rng = random.Random(6)
        for _ in range(200):
            p = rand_upper(rng)
            k = rand_curvature(rng)
            assert curv.curvature_action(p, k) == \
                curv.curvature_action_dense(p, k)

    def test_equality_is_structural_across_representatives(self):
        half = curv.NormalCurvature.of(Fraction(2, 4), 0, -1, Fraction(3, 6))
        same = curv.NormalCurvature.of(Fraction(1, 2), Fraction(0, 5), Fraction(-2, 2), _HALF)
        assert half == same and hash(half) == hash(same)
        assert half == curv.NormalCurvature((-2, 0, 4, -2), -4)
        assert (half.k_alpha, half.k_beta, half.k_sup_alpha, half.k_sup_beta) == \
            (_HALF, 0, -1, _HALF)
        assert half != curv.NormalCurvature.of(_HALF, 0, -1, 0)

    def test_curvature_suite_builds_few_fractions(self, monkeypatch):
        # the suite runs its exact algebra in ints; the count repeats
        # exactly, so a return to per-entry Fractions fails here
        outcomes, built = fractions_built(monkeypatch, "curvature")
        assert all(passed for passed, _ in outcomes)
        assert built < 10_000

    def test_exponent_check_reads_the_scales(self, monkeypatch):
        # alpha_scale with d3^2 for d3^3 fails the exponent check
        def wrong(p):
            d1, d2, d3 = p.diagonal()
            return Fraction(d1 * d2 * d2, d3 * d3)

        monkeypatch.setattr(curv, "alpha_scale", wrong)
        assert run_check("curvature-diagonal-exponents") == (False, None)

    def test_rejects_non_triangular(self):
        with pytest.raises(lc.NotUpperTriangularError):
            curv.curvature_action(lc.GroupElem([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                  curv.NormalCurvature.zero())


class TestHarmonic:
    def test_zero_is_harmonic(self):
        assert curv.is_harmonic(curv.NormalCurvature.zero())

    def test_lowest_component_breaks_harmonicity(self):
        assert not curv.is_harmonic(curv.NormalCurvature.of(1, 0, 0, 0))
        assert not curv.is_harmonic(curv.NormalCurvature.of(0, 1, 0, 0))


class TestContact:
    def test_degenerate_frame_rejected(self):
        a = curv.PolynomialField(lambda p: (1, 0, 0), zero_jacobian)
        with pytest.raises(curv.DegenerateFrameError):
            curv.contact_test(a, a, (0, 0, 0))

    def test_rescaling_check_at_a_seed_where_float_noise_tripped_the_gate(self):
        # float differences at float points once failed the difference gate
        # here; exact derivatives at the same points have no gate
        assert run_check("contact-rescaling-invariance", seed=154)[0]

    def test_float_point_gives_the_verdict_of_its_exact_value(self):
        rng = random.Random(29)
        a = curv.PolynomialField(lambda p: (0, 0, 1), zero_jacobian)
        fields = (
            curv.PolynomialField(
                lambda q: ((2 + q[0] * q[0]) * q[2], 2 + q[0] * q[0], 0),
                lambda q: ((2 * q[0] * q[2], 0, 2 + q[0] * q[0]),
                           (2 * q[0], 0, 0), (0, 0, 0))),
            curv.PolynomialField(
                lambda q: (q[2] * q[2], 1, 0),
                lambda q: ((0, 0, 2 * q[2]), (0, 0, 0), (0, 0, 0))))
        for _ in range(10):
            p = tuple(float(rand_frac(rng)) for _ in range(3))
            for b in fields:
                assert curv.contact_test(a, b, p) == curv.contact_test(
                    a, b, tuple(map(Fraction, p)))

    def test_difference_bracket_equals_closed_form_bracket(self):
        # the jet bracket of two invariant frame fields equals the bracket of
        # their closed forms in the chart, (0, 0, 1) and (z, 1, 0) on model a,
        # (0, 0, d^2) and (x, y, 0) with d = x - yz on model t, at the field
        # values and at a random pair of directions
        def d(p):
            return p[0] - p[1] * p[2]

        closed = {
            ("a", md.HEIS_X): curv.PolynomialField(lambda p: (0, 0, 1), zero_jacobian),
            ("a", md.HEIS_Y): curv.PolynomialField(
                lambda p: (p[2], 1, 0), lambda p: ((0, 0, 1), (0, 0, 0), (0, 0, 0))),
            ("t", md.SL2_E): curv.PolynomialField(
                lambda p: (0, 0, d(p) ** 2),
                lambda p: ((0, 0, 0), (0, 0, 0),
                           (2 * d(p), -2 * d(p) * p[2], -2 * d(p) * p[1]))),
            ("t", md.SL2_H): curv.PolynomialField(
                lambda p: (p[0], p[1], 0), lambda p: ((1, 0, 0), (0, 1, 0), (0, 0, 0))),
        }
        rng = random.Random(31)
        for model, gen_a, gen_b in (("a", md.HEIS_X, md.HEIS_Y), ("t", md.SL2_E, md.SL2_H)):
            jet_a, jet_b = md.InvariantField(gen_a, model), md.InvariantField(gen_b, model)
            exact_a, exact_b = closed[model, gen_a], closed[model, gen_b]
            for _ in range(20):
                p = tuple(rand_frac(rng) for _ in range(3))
                if d(p) == 0:
                    continue
                assert (jet_a(p), jet_b(p)) == (exact_a(p), exact_b(p))
                u, w = (tuple(nonzero_frac(rng) for _ in range(3)) for _ in range(2))
                for va, vb in ((jet_a(p), jet_b(p)), (u, w)):
                    assert curv.bracket_of_fields(jet_a, jet_b, p, va, vb) == \
                        curv.bracket_of_fields(exact_a, exact_b, p, va, vb)

    def test_model_frames_at_a_seed_where_full_jacobians_tripped_the_gate(self):
        # three-axis difference Jacobians once failed the difference gate
        # within this seed's first 18 points; exact derivatives have no gate
        assert run_check("contact-model-frames", seed=21, samples=18)[0]

    @pytest.mark.parametrize("seed", [46, 64, 86])
    def test_model_frames_at_seeds_where_differences_tripped_the_gate(self, seed):
        # directional differences at a fixed step once failed the gate here,
        # at points within a few steps of the pole of the block-model frame;
        # exact derivatives have no step
        assert run_check("contact-model-frames", seed=seed)[0]


class TestFlowCommutator:
    def test_equal_arguments_give_zero(self):
        rng = random.Random(19)
        v = rand_traceless(rng)
        assert curv.flow_commutator_defect(v, v, 0.3) <= 1e-14

    def test_heis_pair_is_exact(self):
        for t in (0.5, 0.1, 1e-2, 1e-3):
            assert curv.flow_commutator_defect(md.HEIS_X, md.HEIS_Y, t) <= 1e-12

    def test_heis_check_fails_on_the_opposite_bracket(self, monkeypatch):
        # the rectangle is I + t^2 [X, Y] exactly, not I - t^2 [X, Y]
        bracket = lc.bracket
        monkeypatch.setattr(lc, "bracket", lambda u, v: -bracket(u, v))
        assert run_check("flow-commutator-heis") == (False, None)

    def test_heis_check_reads_no_float_exponential(self, monkeypatch):
        def no_float(m):
            raise AssertionError("a float exponential was taken")

        monkeypatch.setattr(lc, "exp_float", no_float)
        assert run_check("flow-commutator-heis") == (True, None)

    def test_third_order_slope(self):
        rng = random.Random(23)
        count = 0
        while count < 20:
            u, v = rand_traceless(rng), rand_traceless(rng)
            if lc.bracket(u, v).is_zero():
                continue
            assert curv.commutator_slope(u, v) >= 2.9
            count += 1

    def test_slope_check_fails_when_no_pair_is_tested(self, monkeypatch):
        # every draw commutes, so no rectangle defect is ever measured
        monkeypatch.setattr(checks, "rand_traceless",
                            lambda rng: lc.LieVec.diag(1, -1, 0))
        assert run_check("flow-commutator-slope") == (False, None)

    def test_slope_helper_on_pure_cubic(self):
        ts = (1e-1, 1e-2, 1e-3)
        slope = curv.loglog_slope(ts, [7 * t ** 3 for t in ts])
        assert abs(slope - 3.0) < 1e-9
