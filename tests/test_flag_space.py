"""Incidence geometry, group action, charts, regions, circles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import (
    check_rng,
    rand_flag,
    rand_frac,
    rand_interior_flag,
    rand_traceless,
    rand_upper,
    run_check,
)
from flagdyn.rational import cross, primitive, rank
from fraction_count import fractions_built
from references import (chart_coords, flag_derivative, killing_with_value, push_tangent,
                        tangent_ints_loop)
from strategies import small_fractions


def small_flags():
    """The 72 flags spanned by vectors with entries in {-1, 0, 1}."""
    vecs = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
    flags = set()
    for m, q in itertools.product(vecs, repeat=2):
        try:
            flags.add(fs.Flag.of(m, q))
        except ValueError:
            continue  # q spans no line with m
    assert len(flags) == 72
    return flags


class TestIncidence:
    def test_flag_requires_incidence(self):
        with pytest.raises(ValueError):
            fs.Flag((1, 0, 0), (1, 0, 0))

    def test_canonical_representatives(self):
        # (2, 4, 6) x (-3, 0, -3) = (-12, -12, 12): both classes divided by
        # their gcd, the line's sign turned so its first entry is positive
        x = fs.Flag.of((2, 4, 6), (-3, 0, -3))
        assert x == fs.Flag.of((1, 2, 3), (1, 0, 1))
        assert x.point == (1, 2, 3) and x.line == (1, 1, -1)

    def test_base_point_representable(self):
        assert fs.BASE_FLAG.point == (1, 0, 0)


class TestAction:
    def test_incidence_preserved_in_bulk(self):
        assert run_check("act-preserves-incidence", seed=41, samples=10_000) == (True, None)

    def test_identity(self):
        rng = random.Random(43)
        x = rand_flag(rng)
        assert fs.act(lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), x) == x


class TestFlip:
    def test_value_at_base_flag(self):
        # orthogonal complements of span(e1, e2) and span(e1)
        assert fs.flip(fs.BASE_FLAG) == fs.Flag.of((0, 0, 1), (0, 1, 0))

    def test_exchanges_circle_families(self):
        rng = random.Random(67)
        for _ in range(50):
            x = rand_flag(rng)
            fx = fs.flip(x)
            for (s, t) in ((1, 0), (0, 1), (1, 1), (2, -3), (5, 7)):
                # a point of the line pencil through x flips into the point
                # row of the flipped line
                y = fs.flip(fs.alpha_circle_flag(x, s, t))
                assert y.line == fx.line
            # the pencil has two independent generators
            assert fs.alpha_circle_flag(x, 1, 0) != fs.alpha_circle_flag(x, 0, 1)

    def test_circle_check_sees_a_wrong_pencil_index(self, monkeypatch):
        # the pencil's unit vectors taken % 4 agree with the program at every
        # point whose first entry is nonzero, as at most drawn flags; the
        # check's fixed anchor, a point with only its last entry nonzero,
        # fails the mutant at every seed
        def mutant(x, s, t):
            m = x.point
            i = next(k for k, e in enumerate(m) if e != 0)
            units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            n1, n2 = cross(m, units[(i + 1) % 4]), cross(m, units[(i + 2) % 4])
            return fs.Flag(x.point, primitive([s * a + t * b for a, b in zip(n1, n2)]))

        x = fs.Flag.of((1, 2, 3), (0, 1, 0))
        assert all(mutant(x, s, t) == fs.alpha_circle_flag(x, s, t) for s, t in ((1, 0), (2, 3)))
        monkeypatch.setattr(fs, "alpha_circle_flag", mutant)
        for seed in range(5):
            with pytest.raises(IndexError):
                run_check("flip-exchanges-circles", seed)

    def test_circle_check_sees_swapped_pencil_coefficients(self, monkeypatch):
        # s n2 + t n1 spans the same pencil, so every flag still flips onto
        # the beta circle; the anchor's lines at (1, 0) and (0, 1) tell it
        original = fs.alpha_circle_flag
        monkeypatch.setattr(fs, "alpha_circle_flag", lambda x, s, t: original(x, t, s))
        assert run_check("flip-exchanges-circles", 0) == (False, None)


class TestAffineChart:
    def test_base_values(self):
        assert fs.affine_chart(md.AFFINE.base_flag) == ((0, 0), (0, 1))
        assert fs.affine_chart(md.BLOCK.base_flag) == ((1, 0), (0, 1))

    def test_chart_coords_roundtrip(self):
        rng = random.Random(73)
        for _ in range(100):
            px, py, z = coords = tuple(rand_frac(rng) for _ in range(3))
            assert chart_coords(fs.affine_chart_inverse((px, py), (z, 1))) == coords

    @given(small_fractions, small_fractions,
           st.one_of(st.integers(-9, 9), small_fractions),
           st.one_of(st.integers(-9, 9), small_fractions))
    def test_inverse_is_the_flag_through_two_points(self, px, py, u, v):
        # the integer chart flag against the line through the point and the
        # point plus the direction
        if u == v == 0:
            with pytest.raises(ValueError):
                fs.affine_chart_inverse((px, py), (u, v))
        else:
            assert fs.affine_chart_inverse((px, py), (u, v)) == fs.Flag.of(
                (px, py, 1), (px + u, py + v, 1))

    def test_boundary_rejection(self):
        with pytest.raises(fs.BoundaryError):
            fs.affine_chart(fs.Flag.of((0, 1, 0), (1, 0, 0)))
        # horizontal direction is outside the slope chart only
        horizontal = fs.affine_chart_inverse((2, 3), (1, 0))
        with pytest.raises(fs.BoundaryError):
            chart_coords(horizontal)


class TestRegions:
    def test_model_anchors_are_interior(self):
        for model in md.MODELS:
            assert fs.region_classify(model.base_flag, model.special_point) is fs.Region.INTERIOR

    def test_degeneration_anchor_in_second_stratum(self):
        x = cls.DEGENERATION_CASES["t2"].boundary_flag
        assert fs.region_classify(x, md.BLOCK.special_point) is fs.Region.G2

    def test_base_flag_is_deep_boundary_for_affine_model(self):
        assert fs.region_classify(fs.BASE_FLAG, md.AFFINE.special_point) is fs.Region.DEEP_BOUNDARY

    def test_first_strata_examples(self):
        # line through the special point, point neither special nor at
        # infinity
        x_t = fs.Flag.of((1, 0, 1), (1, 0, 0))   # line [e1, e3] passes [e3]
        assert fs.region_classify(x_t, md.BLOCK.special_point) is fs.Region.G1
        x_a = fs.Flag.of((0, 0, 1), (1, 0, 0))   # line [e3, e1] passes [e1]
        assert fs.region_classify(x_a, md.AFFINE.special_point) is fs.Region.G1

    def test_second_stratum_of_the_affine_model(self):
        # point at infinity other than the special point [e1], on a finite
        # line: G2; the special point itself, on a finite line: deep boundary
        x = fs.Flag.of((0, 1, 0), (0, 0, 1))
        assert fs.region_classify(x, md.AFFINE.special_point) is fs.Region.G2
        y = fs.Flag.of((1, 0, 0), (0, 1, 1))
        assert fs.region_classify(y, md.AFFINE.special_point) is fs.Region.DEEP_BOUNDARY

    def test_orbit_rank_is_the_rank_of_the_derivatives(self):
        # orbit_rank ranks integer rows, the Fraction rows scaled by nonzero
        # ints per row and per pair of columns
        for vectors in (cls.H_T.basis, cls.H_A.basis, lc.BASIS):
            for x in small_flags():
                assert fs.orbit_rank(vectors, x) == rank(
                    [flag_derivative(v, x) for v in vectors])

    def test_strata_agree_with_orbit_ranks_of_their_circles(self):
        # the strata against a definition by orbit ranks alone: a flag is
        # interior when the model algebra's orbit through it is open, and a
        # circle re-enters the model when one of four of its flags is
        # interior (a circle not wholly in the boundary meets it in one flag)
        flags = small_flags()
        pencil = ((1, 0), (0, 1), (1, 1), (1, -1))
        wrong = []
        for model, alg in zip(md.MODELS, (cls.H_T, cls.H_A)):
            def interior(y, alg=alg):
                return fs.orbit_rank(alg.basis, y) == 3
            for x in flags:
                enters = {
                    "alpha": any(interior(fs.alpha_circle_flag(x, s, t)) for s, t in pencil),
                    "beta": any(interior(fs.flip(fs.alpha_circle_flag(fs.flip(x), s, t)))
                                for s, t in pencil)}
                full = {which: fs.circle_boundary_points(x, which, model.special_point) is None
                        for which in enters}
                if interior(x):
                    expected = fs.Region.INTERIOR
                elif enters["alpha"]:
                    expected = fs.Region.G1
                elif enters["beta"]:
                    expected = fs.Region.G2
                else:
                    expected = fs.Region.DEEP_BOUNDARY
                if (fs.region_classify(x, model.special_point) is not expected
                        or any(full[which] is enters[which] for which in enters)):
                    wrong.append((model.name, x))
        assert wrong == []


def pivot(vec):
    return next(k for k, e in enumerate(vec) if e != 0)


def test_tangent_row_is_its_loop_form():
    # the written-out kernel against its loop form, at flags whose point and
    # line pivots sit at every pair of positions but (2, 2): the point
    # (0, 0, 1) does not lie on the line (0, 0, 1)
    flags = small_flags()
    pairs = {(pivot(x.point), pivot(x.line)) for x in flags}
    assert pairs == set(itertools.product(range(3), repeat=2)) - {(2, 2)}
    rng = random.Random(71)
    vectors = [*lc.BASIS, *(rand_traceless(rng) for _ in range(5))]
    for x in flags:
        for v in vectors:
            assert fs._tangent_ints(v, x) == tangent_ints_loop(v, x)


class TestCircleBoundary:
    def test_beta_circle_of_affine_anchor(self):
        # the anchor's line x = 0, through [e3] and [e2], meets infinity at [e2]
        assert (fs.circle_boundary_points(md.AFFINE.base_flag, "beta", md.AFFINE.special_point)
                == fs.Flag.of((0, 1, 0), (0, 0, 1)))

    def test_unknown_family_refused(self):
        with pytest.raises(ValueError, match="unknown circle family"):
            fs.circle_boundary_points(md.AFFINE.base_flag, "gamma", md.AFFINE.special_point)

    @pytest.mark.parametrize("model, special", zip(md.MODELS, ((0, 0, 1), (1, 0, 0))),
                             ids=[model.name for model in md.MODELS])
    def test_where_the_boundary_flag_lands(self, model, special):
        # alpha keeps the point and turns the line onto the special point;
        # beta keeps the line and moves the point to infinity
        rng = random.Random(23)
        for _ in range(100):
            x = rand_interior_flag(rng, model)
            alpha = fs.circle_boundary_points(x, "alpha", model.special_point)
            beta = fs.circle_boundary_points(x, "beta", model.special_point)
            assert alpha.point == x.point and fs.dot(alpha.line, special) == 0
            assert beta.line == x.line and beta.point[2] == 0
            for y in (alpha, beta):
                assert fs.dot(y.point, y.line) == 0
                assert fs.region_classify(y, model.special_point) is not fs.Region.INTERIOR


def quotient_error(v, x, w, h):
    """The largest distance of the Fraction difference quotient of the
    chart coordinates along the step I + h v at x from the velocity w."""
    step = lc.GroupElem([
        [Fraction(int(i == j)) + h * v.entries[i][j] for j in range(3)]
        for i in range(3)])
    c0 = chart_coords(x)
    c1 = chart_coords(fs.act(step, x))
    diff = [(a - b) / h for a, b in zip(c1, c0)]
    return max(abs(float(d - ww)) for d, ww in zip(diff, w))


class TestFundamentalVector:
    def test_finite_difference_agreement(self):
        rng = random.Random(97)
        for _ in range(30):
            v = rand_traceless(rng)
            x = rand_interior_flag(rng, md.AFFINE)
            w = fs.fundamental_vector(v, x)
            e1 = quotient_error(v, x, w, Fraction(1, 10 ** 6))
            e2 = quotient_error(v, x, w, Fraction(1, 10 ** 7))
            assert e1 < 1e-2
            # first order in the step: a tenfold finer step shrinks the
            # error by close to ten
            assert e2 < e1 / 5 + 1e-12

    def test_finite_difference_check_near_the_chart_boundary(self):
        # this seed draws velocities large enough that a step of 1e-8
        # left a first-order error of 1.35e-3, over the 1e-4 bound
        passed, residual = run_check("fundamental-finite-difference", seed=9)
        assert passed, residual

    @pytest.mark.parametrize("seed", [0, 9, 39])
    def test_finite_difference_residual_is_the_fraction_quotient(self, seed):
        # the check forms its quotient in ints; on every draw its residual is
        # the float of the Fraction quotient through chart_coords, bit for bit
        ours = check_rng(seed, "fundamental-finite-difference")
        theirs = check_rng(seed, "fundamental-finite-difference")
        for _ in range(200):
            passed, residual = checks._check_fundamental_fd(ours)
            v, x = rand_traceless(theirs), rand_interior_flag(theirs, md.AFFINE)
            expected = quotient_error(v, x, fs.fundamental_vector(v, x), Fraction(1, 10 ** 16))
            assert residual == expected
            assert passed == (expected <= 1e-4)

    @pytest.mark.parametrize("coord", range(3))
    def test_finite_difference_check_fails_on_a_wrong_velocity(self, monkeypatch, coord):
        right = fs.fundamental_vector

        def wrong(v, x):
            w = list(right(v, x))
            w[coord] += Fraction(1, 1000)
            return tuple(w)

        monkeypatch.setattr(fs, "fundamental_vector", wrong)
        passed, residual = run_check("fundamental-finite-difference", seed=0)
        assert not passed and abs(residual - 1e-3) < 1e-4

    def test_chart_domain_violation(self):
        with pytest.raises(fs.BoundaryError):
            fs.fundamental_vector(md.HEIS_Z, fs.BASE_FLAG)


class TestTangentTransport:
    def test_killing_with_value_roundtrip(self):
        rng = random.Random(101)
        for _ in range(50):
            x = rand_interior_flag(rng, md.AFFINE)
            w = tuple(rand_frac(rng) for _ in range(3))
            v = killing_with_value(w, x)
            assert fs.fundamental_vector(v, x) == w

    def test_push_tangent_equivariance(self):
        rng = random.Random(103)
        for _ in range(30):
            x = rand_interior_flag(rng, md.AFFINE)
            v = rand_traceless(rng)
            g = rand_upper(rng)
            y = fs.act(g, x)
            try:
                lhs = push_tangent(g, x, fs.fundamental_vector(v, x))
                rhs = fs.fundamental_vector(lc.conjugate(g, v), y)
            except fs.BoundaryError:
                continue
            assert lhs == rhs


def test_flag_space_suite_builds_few_fractions(monkeypatch):
    # the checks compare exact values as ints; the count repeats exactly, so
    # a return to per-entry Fractions fails here
    outcomes, built = fractions_built(monkeypatch, "flag-space")
    assert all(passed for passed, _ in outcomes)
    assert built < 800
