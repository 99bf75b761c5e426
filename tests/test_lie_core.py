"""Exact kernel tests: brackets, grading, adjoint actions, exponentials."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import check_rng, rand_frac, rand_group, rand_lievec, rand_traceless, run_check
from flagdyn.rational import solve
from children import child_env
from fraction_count import fractions_built
from references import normalizer, values
from strategies import small_fractions


def trace(v):
    """The trace of v, read off its ints."""
    n = v.nums
    return Fraction(n[0] + n[4] + n[8], v.den)


def lievecs():
    return st.lists(small_fractions, min_size=9, max_size=9).map(
        lambda es: lc.LieVec.of([es[0:3], es[3:6], es[6:9]]))


class TestBracket:
    def test_heis_generators(self):
        assert lc.bracket(md.HEIS_X, md.HEIS_Y) == md.HEIS_Z

    def test_sl2_generators(self):
        assert lc.bracket(md.SL2_E, md.SL2_F) == md.SL2_H

    def test_corner_against_lowering(self):
        assert lc.bracket(lc.E_SUP_0, lc.E_0) == lc.E_1 + lc.E_2

    @given(lievecs())
    def test_self_bracket_vanishes(self, v):
        assert lc.bracket(v, v).is_zero()

    @given(lievecs(), lievecs())
    def test_antisymmetry(self, u, v):
        assert lc.bracket(u, v) == -lc.bracket(v, u)

    @settings(max_examples=30)
    @given(lievecs(), lievecs(), lievecs())
    def test_jacobi(self, u, v, w):
        s = (lc.bracket(u, lc.bracket(v, w))
             + lc.bracket(v, lc.bracket(w, u))
             + lc.bracket(w, lc.bracket(u, v)))
        assert s.is_zero()

    def test_bulk_antisymmetry_and_jacobi(self):
        assert run_check("bracket-antisymmetry-jacobi", seed=7, samples=10_000) == (True, None)

    def test_traceless_closed_under_bracket(self):
        rng = random.Random(3)
        for _ in range(50):
            u, v = rand_lievec(rng), rand_lievec(rng)
            tu = u - lc.LieVec.diag(trace(u) / 3, trace(u) / 3, trace(u) / 3)
            tv = v - lc.LieVec.diag(trace(v) / 3, trace(v) / 3, trace(v) / 3)
            assert lc.bracket(tu, tv).is_traceless()


class TestTracelessCoords:
    @given(lievecs())
    def test_equals_elimination_against_the_basis(self, m):
        v = m - lc.LieVec.diag(0, 0, trace(m))
        rows = list(zip(*(values(b) for b in lc.BASIS)))
        assert lc.lincomb(solve(rows, values(v)), lc.BASIS) == v


class TestGrading:
    def test_lowering_corner_is_pure_lowest(self):
        parts = lc.grade_decompose(lc.E_0)
        assert parts[-2] == lc.E_0
        assert all(parts[k].is_zero() for k in parts if k != -2)

    def test_diagonal_is_pure_middle(self):
        parts = lc.grade_decompose(lc.LieVec.diag(1, -1, 0))
        assert parts[0] == lc.LieVec.diag(1, -1, 0)
        assert all(parts[k].is_zero() for k in parts if k != 0)

    def test_components_sum_to_input(self):
        rng = random.Random(11)
        for _ in range(30):
            v = rand_lievec(rng)
            v = v - lc.LieVec.diag(trace(v) / 3, trace(v) / 3, trace(v) / 3)
            parts = lc.grade_decompose(v)
            total = lc.LieVec.zero()
            for p in parts.values():
                total = total + p
            assert total == v

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            lc.grade_decompose(lc.LieVec.diag(1, 0, 0))


class TestGroupElem:
    def test_projective_representatives_normalize_identically(self):
        rng = random.Random(5)
        for _ in range(50):
            g = rand_group(rng)
            c = rand_frac(rng)
            if c == 0:
                continue
            scaled = [[c * e for e in row] for row in g.entries]
            assert lc.GroupElem(scaled) == g

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            lc.GroupElem([[1, 0, 0], [2, 0, 0], [0, 0, 1]])

    def test_inverse_and_product(self):
        rng = random.Random(9)
        for _ in range(50):
            g = rand_group(rng)
            assert g @ g.inverse() == lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestQuotientAdjoint:
    def test_identity(self):
        eye = lc.quotient_adjoint(lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert eye == tuple(tuple(Fraction(int(i == j)) for j in range(3))
                            for i in range(3))

    def test_diagonal_display(self):
        # diagonal (a, a^-1 b^-1, b) with a=2, b=3
        a, b = Fraction(2), Fraction(3)
        p = lc.GroupElem([[a, 0, 0], [0, 1 / (a * b), 0], [0, 0, b]])
        m = lc.quotient_adjoint(p)
        assert (m[0][0], m[1][1], m[2][2]) == (a * b * b, 1 / (a * a * b), b / a)
        assert m[0][2] == 0 and m[1][2] == 0

    def test_rejects_non_triangular(self):
        # the closed form and the brute-force projection each refuse
        for quotient in (lc.quotient_adjoint, lc.quotient_adjoint_bruteforce):
            with pytest.raises(lc.NotUpperTriangularError):
                quotient(lc.GroupElem([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))

    def test_public_fraction_forms_agree(self):
        # the registered checks read the integer closed form; this compares
        # the two public Fraction matrices
        rng = random.Random(101)
        for _ in range(1000):
            p = checks.rand_upper(rng)
            assert lc.quotient_adjoint(p) == lc.quotient_adjoint_bruteforce(p), p

    @pytest.mark.parametrize("check_id, body", [
        ("quotient-adjoint-display", checks._check_qadj_display),
        ("quotient-adjoint-bruteforce", checks._check_qadj_brute)])
    def test_checks_read_the_integer_closed_form(self, monkeypatch, check_id, body):
        # a closed form with its (0, 2) entry negated fails both checks, and
        # each check's draws catch it, not only the brute-force anchor
        def flipped(p, closed_form=lc._quotient_adjoint_ints):
            nums, den = closed_form(p)
            return (*nums[:2], -nums[2], *nums[3:]), den

        monkeypatch.setattr(lc, "_quotient_adjoint_ints", flipped)
        assert run_check(check_id) == (False, None)
        rng = check_rng(0, check_id)
        assert not all(body(rng) for _ in range(1000))


class TestCentralizerNormalizer:
    def test_rotation_algebras_have_trivial_centralizer(self):
        assert lc.centralizer(cls.SO3).dim == 0
        assert lc.centralizer(cls.SO12).dim == 0

    def test_center_of_the_full_algebra_is_trivial(self):
        assert lc.centralizer(lc.Subalgebra.of(list(lc.BASIS))).dim == 0

    def test_normalizer_of_block_sl2_is_the_block_model_algebra(self):
        assert normalizer(cls.S_0).span_equals(cls.H_T)

    def test_normalizer_contains_centralizer_and_algebra(self):
        s = cls.HEIS_ALGEBRA
        nor = normalizer(s)
        for b in s.basis:
            assert nor.contains(b)
        for b in lc.centralizer(s).basis:
            assert nor.contains(b)

    def test_normalizer_of_the_heisenberg_algebra_is_the_affine_model_algebra(self):
        assert normalizer(cls.HEIS_ALGEBRA).span_equals(cls.H_A)

    def test_the_affine_model_algebra_is_self_normalizing(self):
        assert normalizer(cls.H_A).span_equals(cls.H_A)

    def test_the_zero_subalgebra_is_centralized_and_normalized_by_everything(self):
        # no equations: all eight unknowns stay free
        zero = lc.Subalgebra.of([])
        assert lc.centralizer(zero).dim == 8
        assert normalizer(zero).dim == 8


class TestSubalgebraRecognizer:
    def test_rejects_corrupted_basis(self):
        basis = list(cls.H_1.basis)
        rows = [list(r) for r in basis[2].entries]
        rows[2][0] = Fraction(1)
        basis[2] = lc.LieVec.of(rows)
        assert not lc.Subalgebra.of(basis).is_subalgebra()

    def test_closure_is_one_rank_comparison(self, monkeypatch):
        # the basis against the basis and every pairwise bracket: two ranks,
        # whatever the dimension
        calls = []
        monkeypatch.setattr(lc, "rank", lambda rows, rank=lc.rank: calls.append(1) or rank(rows))
        for alg in (cls.SO3, cls.H_A, lc.Subalgebra(lc.BASIS)):
            calls.clear()
            assert alg.is_subalgebra() and len(calls) == 2

    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            lc.Subalgebra.of([md.HEIS_X, md.HEIS_X.scale(2)])


class TestExponentials:
    def test_ad_exp_consistency_on_an_ill_conditioned_exponential(self):
        # traceless draws, row-sum norms capped at 10, so exp_float scales and squares;
        # draw 52, of norm near 9.4, has exp(v) of condition number about 2.5e7
        rng = check_rng(1726011270, "exp-ad-consistency")
        identity = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        for _ in range(53):
            v = rand_traceless(rng)
            norm = max(sum(map(abs, row)) for row in v.to_float())
            if norm > 10:
                v = v.scale(Fraction(9, math.ceil(norm)))
            g, g_inv = lc.exp_group(v), lc.exp_group(-v)
            defect = lc.fnorm(lc.fmat_sub(lc.fmat_mul(g, g_inv), identity))
            assert defect <= 1e-12 * lc.fnorm(g) * lc.fnorm(g_inv), (norm, defect)
        assert 9.3 < norm < 9.5

    def test_exp_ad_consistency_reads_the_exact_bracket(self, monkeypatch):
        monkeypatch.setattr(lc, "bracket", lambda u, v, bracket=lc.bracket: -bracket(u, v))
        assert run_check("exp-ad-consistency") == (False, None)

    def test_exp_of_zero(self):
        assert lc.exp_group(lc.LieVec.zero()) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                                  (0.0, 0.0, 1.0))

    def test_diagonal_eigenvalues_on_circle_directions(self):
        # the bracket action of diag(1,-1,0) scales the two circle
        # generators by +1 and -2, so conjugation by exp(t diag(1,-1,0))
        # scales them by e^t and e^{-2t}
        h = lc.LieVec.diag(1, -1, 0)
        assert lc.bracket(h, lc.E_ALPHA) == lc.E_ALPHA
        assert lc.bracket(h, lc.E_BETA) == lc.E_BETA.scale(-2)
        g, g_inv = lc.exp_group(h, 0.7), lc.exp_group(h, -0.7)
        for e, rate in ((lc.E_ALPHA, math.exp(0.7)), (lc.E_BETA, math.exp(-1.4))):
            conj = lc.fmat_mul(lc.fmat_mul(g, e.to_float()), g_inv)
            assert lc.fnorm(lc.fmat_sub(conj, e.to_float(rate))) < 1e-9

    # the generic float product the written-out forms must reproduce bit for
    # bit: each entry summed by CPython 3.11's sum, left to right from 0
    @staticmethod
    def generic_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))

    @staticmethod
    def float_matrices(seed, count, scale):
        # entries from a wide range, with signed zeros and small integers
        rng = random.Random(seed)
        pick = (lambda: 0.0, lambda: -0.0, lambda: float(rng.randint(-3, 3)),
                lambda: rng.uniform(-scale, scale), lambda: rng.uniform(-scale, scale) * 1e-9)
        return [tuple(tuple(rng.choice(pick)() for _ in range(3)) for _ in range(3))
                for _ in range(count)]

    def test_fmat_mul_is_the_summed_product_bit_for_bit(self):
        mats = self.float_matrices(0, 2000, 10.0)
        for a, b in zip(mats[::2], mats[1::2]):
            # repr tells -0.0 from 0.0
            assert repr(lc.fmat_mul(a, b)) == repr(self.generic_mul(a, b))

    def test_exp_series_is_the_stacked_block_product_bit_for_bit(self):
        # the Taylor polynomial as one product of the 5x4 coefficient matrix
        # with the stacked powers m^0..m^3 (4x9), then Horner's rule in m^4
        def reference(m):
            pows = [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), m]
            for _ in range(3):
                pows.append(self.generic_mul(pows[-1], m))
            top = pows.pop()
            *blocks, out = self.generic_mul(lc._EXP_BLOCKS, [sum(p, ()) for p in pows])
            for block in reversed(blocks):
                prod = self.generic_mul((out[0:3], out[3:6], out[6:9]), top)
                out = [x + y for x, y in zip(sum(prod, ()), block)]
            return tuple(out[0:3]), tuple(out[3:6]), tuple(out[6:9])

        assert len(lc._EXP_BLOCKS) == 5 and {len(row) for row in lc._EXP_BLOCKS} == {4}
        for m in self.float_matrices(1, 500, 0.2):
            assert repr(lc._exp_series(m)) == repr(reference(m))


class TestTheta:
    def test_elementary_transpose_negate(self):
        assert lc.theta_involution(lc.LieVec.elementary(2, 1)) == \
            lc.LieVec.elementary(1, 2).scale(-1)


def test_importing_lie_core_loads_only_the_layers_it_uses():
    # the package __init__ imports no layer, so lie_core loads rational only
    code = ("import sys, flagdyn.lie_core; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'flagdyn'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env()).stdout
    assert out.split() == ["flagdyn", "flagdyn.lie_core", "flagdyn.rational"]


def test_lie_core_suite_builds_few_fractions(monkeypatch):
    # the checks compare exact values as ints; the count repeats exactly, so
    # a return to per-entry Fractions fails here
    outcomes, built = fractions_built(monkeypatch, "lie-core")
    assert all(passed for passed, _ in outcomes)
    assert built < 30
