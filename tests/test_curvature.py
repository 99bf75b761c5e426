"""Curvature component action, harmonic subspace, contact and commutator checks."""

import inspect
import random
from fractions import Fraction

import pytest

from flagdyn import checks
from flagdyn import curvature as curv
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn import rational as R
from flagdyn.checks import (
    rand_curvature,
    rand_frac,
    rand_traceless,
    rand_upper,
    run_check,
)
from fraction_count import fractions_built
from references import curvature_action_dense

X, Y, Z = md.CHART


class TestCurvatureAction:
    def test_identity(self):
        rng = random.Random(1)
        k = rand_curvature(rng)
        assert curv.curvature_action(lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), k) == k

    def test_unipotent_fixes_lowest_components(self):
        rng = random.Random(2)
        for _ in range(100):
            p = lc.GroupElem([[1, rand_frac(rng), rand_frac(rng)],
                              [0, 1, rand_frac(rng)],
                              [0, 0, 1]])
            k = rand_curvature(rng)
            out = curv.curvature_action(p, k)
            # K_alpha and K_beta, cross-multiplied
            assert out.nums[0] * k.den == k.nums[0] * out.den
            assert out.nums[1] * k.den == k.nums[1] * out.den

    def test_displayed_alpha_example(self):
        # diagonal (a, a^-1 b^-1, b) with a = 2, b = 1 divides K_alpha by 2
        p = lc.GroupElem([[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
        out = curv.curvature_action(p, curv.NormalCurvature((1, 0, 0, 0)))
        assert Fraction(out.nums[0], out.den) == Fraction(1, 2)

    def test_sparse_path_agrees_with_dense_reference(self):
        rng = random.Random(6)
        for _ in range(200):
            p = rand_upper(rng)
            k = rand_curvature(rng)
            assert curv.curvature_action(p, k) == curvature_action_dense(p, k)

    def test_equality_is_structural_across_representatives(self):
        # (1/2, 0, -1, 1/2) over the denominators -4 and 6
        half = curv.NormalCurvature((-2, 0, 4, -2), -4)
        same = curv.NormalCurvature((3, 0, -6, 3), 6)
        assert half == same and hash(half) == hash(same)
        assert (half.nums, half.den) == ((1, 0, -2, 1), 2)
        assert half != curv.NormalCurvature((1, 0, -2, 0), 2)

    def test_curvature_suite_builds_few_fractions(self, monkeypatch):
        # the suite runs its exact algebra in ints; the count repeats
        # exactly, so a return to per-entry Fractions fails here
        outcomes, built = fractions_built(monkeypatch, "curvature")
        assert all(passed for passed, _ in outcomes)
        assert built <= 333

    def test_exponent_check_reads_the_scales(self, monkeypatch):
        # alpha_scale with d3^2 for d3^3 fails the exponent check
        def wrong(p):
            d1, d2, d3 = p.nums[0::4]
            return d1 * d2 * d2, d3 * d3

        monkeypatch.setattr(curv, "alpha_scale", wrong)
        assert run_check("curvature-diagonal-exponents") == (False, None)

    def test_rejects_non_triangular(self):
        with pytest.raises(lc.NotUpperTriangularError):
            curv.curvature_action(lc.GroupElem([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                  curv.ZERO_CURVATURE)


class TestHarmonic:
    def test_zero_is_harmonic(self):
        assert curv.is_harmonic(curv.ZERO_CURVATURE)

    def test_lowest_component_breaks_harmonicity(self):
        assert not curv.is_harmonic(curv.NormalCurvature((1, 0, 0, 0)))
        assert not curv.is_harmonic(curv.NormalCurvature((0, 1, 0, 0)))


class TestContact:
    def test_degenerate_frame_rejected(self):
        # a dependent pair, and the field (0, 1, 0) / x where x = 0
        a = ((1, 0, 0), 1)
        for b, p, why in ((a, (0, 0, 0), "dependent"), (((0, 1, 0), X), (0, 1, 1), "not defined")):
            with pytest.raises(curv.DegenerateFrameError, match=why):
                curv.contact_test(a, b, p)

    def test_rescaling_check_at_a_seed_where_float_noise_tripped_the_gate(self):
        # float differences at float points once failed the difference gate
        # here; exact derivatives at the same points have no gate
        assert run_check("contact-rescaling-invariance", seed=154)[0]

    def test_float_point_gives_the_verdict_of_its_exact_value(self):
        rng = random.Random(29)
        a = ((0, 0, 1), 1)
        fields = (((2 * Z + X * X * Z, 2 + X * X, 0), 1), ((Z * Z, 1, 0), 1))
        for _ in range(10):
            p = tuple(float(rand_frac(rng)) for _ in range(3))
            for b in fields:
                assert curv.contact_test(a, b, p) == curv.contact_test(
                    a, b, tuple(map(Fraction, p)))

    def test_difference_bracket_equals_closed_form_bracket(self):
        # the invariant frame fields equal their closed forms in the chart,
        # (0, 0, 1) and (z, 1, 0) on AFFINE, (0, 0, d^2) and (x, y, 0) with
        # d = x - yz on BLOCK, and so do their brackets, as identities
        d = X - Y * Z
        closed = {(md.AFFINE, md.HEIS_X): ((0, 0, 1), 1), (md.AFFINE, md.HEIS_Y): ((Z, 1, 0), 1),
                  (md.BLOCK, md.SL2_E): ((0, 0, d * d), 1), (md.BLOCK, md.SL2_H): ((X, Y, 0), 1)}

        def same(field, other):
            (nums, den), (other_nums, other_den) = field, other
            return all(a * other_den == b * den for a, b in zip(nums, other_nums))

        for model, gen_a, gen_b in ((md.AFFINE, md.HEIS_X, md.HEIS_Y),
                                    (md.BLOCK, md.SL2_E, md.SL2_H)):
            field_a, field_b = md.invariant_field(gen_a, model), md.invariant_field(gen_b, model)
            closed_a, closed_b = closed[model, gen_a], closed[model, gen_b]
            assert same(field_a, closed_a) and same(field_b, closed_b)
            assert same(curv.field_bracket(field_a, field_b), curv.field_bracket(closed_a, closed_b))

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

    def test_model_frames_fail_on_a_wrong_field_value(self, monkeypatch):
        # the third component -(c b1 - z b0) for -(c b1 + z b0): the mutated
        # fields are still a contact pair at every draw, but they break
        # BLOCK's bracket identity; the check's fields are built afresh
        field_ints = md._field_ints

        def mutant(gen, transport, x, y, z, c):
            v, a, b, value = field_ints(gen, transport, x, y, z, c)
            return v, a, b, (*value[:2], -(c * b[1] - z * b[0]))

        monkeypatch.setattr(md, "_field_ints", mutant)
        monkeypatch.setattr(checks, "_frame_fields", checks._frame_fields.__wrapped__)
        assert run_check("contact-model-frames") == (False, None)

    def test_contact_checks_fail_on_a_wrong_evaluation_scale(self, monkeypatch):
        # _values_ints with each term of degree j scaled by den^(D - j + 1),
        # the constants by 1: the identities never evaluate, so only the
        # draws' values see it
        source = inspect.getsource(R._values_ints)
        mutated = source.replace("scale[sum(e)]", "scale[sum(e) - 1]")
        assert mutated != source
        namespace = {}
        exec(mutated, namespace)
        monkeypatch.setattr(curv, "_values_ints", namespace["_values_ints"])
        for check_id in ("contact-model-frames", "contact-heis-fields",
                         "contact-rescaling-invariance"):
            assert run_check(check_id) == (False, None), check_id

    def test_heis_check_fails_on_a_bracket_of_the_wrong_sign(self, monkeypatch):
        # det(X, Y, -[X, Y]) = -1 is still nonzero at every draw, but it is
        # not the identity det(X, Y, [X, Y]) = 1
        field_bracket = curv.field_bracket

        def negated(field_a, field_b):
            nums, den = field_bracket(field_a, field_b)
            return tuple(-n for n in nums), den

        monkeypatch.setattr(curv, "field_bracket", negated)
        assert run_check("contact-heis-fields") == (False, None)


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
