"""Nilmanifold dynamics: lattice, reduction, rates, certificates."""

import ast
import csv
import decimal
import io
import math
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import dynamics as dyn
from flagdyn import workers
from children import assert_no_child_left

CAT = ((2, 1), (1, 1))


def golden_rate():
    """Independent oracle for the top multiplier of the cat-map linear part:
    quadratic formula for x^2 - 3x + 1."""
    return math.log((3 + math.sqrt(5)) / 2)


class TestLattice:
    def test_generators_are_lattice_points(self):
        for g in dyn.LATTICE.generators:
            assert dyn.LATTICE.contains(g)

    def test_closed_under_group_law(self):
        rng = random.Random(1)
        for _ in range(500):
            g = dyn.LATTICE.random_element(rng)
            h = dyn.LATTICE.random_element(rng)
            assert dyn.LATTICE.contains(dyn.heis_mul(g, h))
            assert dyn.LATTICE.contains(tuple(-c for c in g))  # g^-1

    def test_invariant_under_integer_unimodular_parts(self):
        rng = random.Random(2)
        for m in (CAT, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
                  ((5, 2), (2, 1))):
            f = dyn.NilMap.of(m)
            for _ in range(100):
                g = dyn.LATTICE.random_element(rng)
                assert dyn.LATTICE.contains(f.apply(g))


def reduce_by_group_law(p):
    """Reference reduction: the group law of (-fx, -fy, 0) * p, then of
    (0, 0, c) * that, with fx, fy the floors of x, y and c = -floor(2z)/2.
    The face rule: where x - fx rounds up to 1, fx is one more and x is 0;
    likewise y, and z where it rounds up to 1/2."""
    x, y, _ = p
    fx, fy = math.floor(x), math.floor(y)
    far_x, far_y = -fx + x == 1.0, -fy + y == 1.0
    gamma_xy = (float(-fx - far_x), float(-fy - far_y))
    partial = dyn.heis_mul((*gamma_xy, 0.0), p)
    c = -math.floor(2.0 * partial[2]) / 2.0
    far_z = c + partial[2] == 0.5
    c -= far_z / 2
    r = dyn.heis_mul((0.0, 0.0, c), partial)
    return tuple(0.0 if far else v for v, far in zip(r, (far_x, far_y, far_z))), (*gamma_xy, c)


# points with a coordinate that rounds up onto a far face of the box
FAR_FACE_POINTS = [(-1e-20, 0.25, -1e-20), (0.25, -1e-20, 0.1), (-1e-20, -1e-20, -1e-20),
                   (0.3, 0.6, -1e-17), (-2.0 ** -60, 0.5, 0.25), (1.5, -1e-18, 3.0),
                   (0.75, 0.5, -1e-20)]


class TestReduce:
    def test_closed_form_is_the_group_law_bit_for_bit(self):
        # repr, because == cannot tell -0.0 from 0.0
        edges = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.5, -3.5, 1 - 2 ** -53,
                 -1e-20, 1e6, -1e6, 1e6 + 0.5, -1e6 - 0.5)
        points = [(x, y, z) for x in edges for y in edges for z in edges] + FAR_FACE_POINTS
        rng = random.Random(13)
        for _ in range(5_000):
            scale = rng.choice((1.0, 20.0, 1e6))
            points.append(tuple(rng.uniform(-scale, scale) for _ in range(3)))
        for p in points:
            expected = reduce_by_group_law(p)
            assert repr(dyn.reduce_with_translation(p)) == repr(expected), p
            assert repr(dyn.reduce_point(p)) == repr(expected[0]), p

    def test_lands_in_the_box(self):
        rng = random.Random(3)
        points = [tuple(rng.uniform(-20, 20) for _ in range(3)) for _ in range(1000)]
        for p in points + FAR_FACE_POINTS:
            x, y, z = dyn.reduce_point(p)
            assert 0 <= x < 1 and 0 <= y < 1 and 0 <= z < 0.5, p

    def test_idempotent(self):
        assert checks.run_check("reduce-retraction", seed=5, samples=10_000) == (True, None)

    def test_translation_witness(self):
        rng = random.Random(9)
        for _ in range(200):
            p = tuple(rng.uniform(-8, 8) for _ in range(3))
            r, gamma = dyn.reduce_with_translation(p)
            assert dyn.LATTICE.contains(gamma)
            assert max(abs(a - b) for a, b in zip(dyn.heis_mul(gamma, p), r)) < 1e-12

    def test_commutes_with_descending_map(self):
        f = dyn.NilMap.of(CAT, (0.5, 1.5, 0.25))
        rng = random.Random(11)
        for _ in range(10_000):
            p = tuple(rng.uniform(-8, 8) for _ in range(3))
            a = dyn.reduce_point(f.apply(p))
            b = dyn.reduce_point(f.apply(dyn.reduce_point(p)))
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-8


class TestNilMap:
    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            dyn.NilMap.of(((2, 0), (0, 1)))

    def test_non_integer_linear_part_rejected(self):
        # int() would truncate the first two to the cat map, and raise
        # OverflowError or its own ValueError on the non-finite ones
        inf, nan = math.inf, math.nan
        for matrix in (((2.5, 1), (1, 1)), ((2, 1.9), (1, 1)), ((inf, 1), (1, 1)),
                       ((2, 1), (-inf, 1)), ((2, nan), (1, 1))):
            with pytest.raises(ValueError, match="integer matrix of determinant 1"):
                dyn.NilMap.of(matrix)
        assert dyn.NilMap.of(((2.0, 1), (1, 1))).linear == CAT

    def test_non_normalizing_translation_rejected(self):
        for translation in ((0.3, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.5, -math.inf, 0.0),
                            (math.nan, 0.0, 0.0), (0.0, 0.0, math.inf), (0.0, 0.0, math.nan)):
            with pytest.raises(ValueError):
                dyn.NilMap.of(CAT, translation)
        # exact entries past the float range normalize the lattice, but have no float
        for translation in ((10 ** 400, 0, 0), (0, 0, 10 ** 400), (0, 0, Fraction(10 ** 400, 3))):
            with pytest.raises(ValueError, match="translation"):
                dyn.NilMap.of(CAT, translation)

    def test_translation_near_a_half_integer_is_rejected(self):
        # a decimal half-integer is exact in binary, so no slack is needed
        with pytest.raises(ValueError, match="does not normalize the lattice"):
            dyn.NilMap.of(CAT, (0.5 + 2 ** -44, 0.0, 0.0))
        with pytest.raises(ValueError, match="does not normalize the lattice"):
            dyn.NilMap.of(CAT, (0.0, -1.5 - 2 ** -44, 0.0))
        dyn.NilMap.of(CAT, (0.5, -1.5, 0.3))

    def test_descent_check_is_not_part_of_the_map(self):
        assert dyn.NilMap.of(CAT, (0.5, 0, 0)) == dyn.NilMap(CAT, (0.5, 0.0, 0.0))

    def test_inverse(self):
        f = dyn.NilMap.of(CAT, (0.5, 1.5, 0.25))
        g = f.inverse()
        rng = random.Random(13)
        for _ in range(200):
            p = tuple(rng.uniform(-2, 2) for _ in range(3))
            assert max(abs(a - b) for a, b in zip(g.apply(f.apply(p)), p)) < 1e-12

    def test_multipliers_against_quadratic_formula(self):
        vals, _ = dyn.NilMap.of(CAT).multipliers()
        assert abs(vals[0] - (3 + math.sqrt(5)) / 2) < 1e-12
        assert abs(vals[1] - (3 - math.sqrt(5)) / 2) < 1e-12

    def test_stable_multiplier_is_the_reciprocal(self):
        # det = 1: the product of the multipliers is 1 to the last bit, even
        # where the difference (tr - root)/2 would cancel
        (lam_u, lam_s), _ = dyn.NilMap.of(((10001, 10000), (1, 1))).multipliers()
        assert abs(lam_u * lam_s - 1) <= 1e-15

    @pytest.mark.parametrize("matrix", [((1000001, 1000000), (1, 1)),
                                        ((10000001, 10000000), (1, 1))])
    def test_multipliers_of_large_entries_are_accurate(self, matrix):
        # both multipliers are accurate to the last bits against
        # (tr +- sqrt(tr^2 - 4)) / 2 evaluated to 50 digits
        (a, _), (_, d) = matrix
        tr = a + d
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            root = decimal.Decimal(tr * tr - 4).sqrt()
            exact = ((tr + root) / 2, (tr - root) / 2)
            vals, _ = dyn.NilMap.of(matrix).multipliers()
            for val, ref in zip(vals, exact):
                assert abs(decimal.Decimal(val) - ref) <= ref * decimal.Decimal(2) ** -52

    @pytest.mark.parametrize("traces", [
        range(3, 3000), (2**26 - 3, 2**26 + 3, 2**40 + 3, 2**600 + 1)])
    def test_multipliers_are_the_nearest_floats(self, traces):
        # against (t + sqrt(t^2 - 4)) / 2 and its reciprocal to 80 digits;
        # ((tr, 1), (-1, 0)) has trace tr and determinant 1
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for t in traces:
                big = t + decimal.Decimal(t * t - 4).sqrt()
                exact = (float(big / 2), float(2 / big))
                for sign in (1, -1):
                    vals, _ = dyn.NilMap.of(((sign * t, 1), (-1, 0))).multipliers()
                    assert vals == (sign * exact[0], sign * exact[1]), sign * t

    def test_splitting_below_float_resolution_refuses_only_the_float_rates(self):
        f = dyn.NilMap.of(((2**70, 1), (-1, 0)))
        (lam_u, lam_s), _ = f.multipliers()
        assert (lam_u, lam_s) == (2.0**70, 2.0**-70)
        with pytest.raises(ValueError, match=r"^sqrt\(tr\^2 - 4\) rounds to \|tr\|"):
            dyn.tangent_rates(f)

    def test_multiplier_beyond_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            dyn.NilMap.of(((2**1100, 1), (-1, 0))).multipliers()

    def test_identity_multipliers(self):
        vals, _ = dyn.NilMap.of(((1, 0), (0, 1))).multipliers()
        assert tuple(vals) == (1.0, 1.0)

    def test_rotation_rejected(self):
        with pytest.raises(dyn.NonHyperbolicError):
            dyn.NilMap.of(((0, -1), (1, 0))).multipliers()

    def test_parabolic_rejected(self):
        with pytest.raises(dyn.NonHyperbolicError):
            dyn.NilMap.of(((1, 1), (0, 1))).multipliers()


def random_nil_map(rng):
    """A random integer determinant-one linear part, a product of shears,
    with a half-integer x, y translation."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        (a, b), (c, d) = m
        if rng.random() < 0.5:
            m = ((a + k * c, b + k * d), (c, d))
        else:
            m = ((a, b), (c + k * a, d + k * b))
    return dyn.NilMap.of(m, (rng.randint(-6, 6) / 2, rng.randint(-6, 6) / 2, rng.uniform(-3, 3)))


# starts on the far faces of the box, at signed zeros, and away from it
ORBIT_STARTS = [(1 - 2 ** -53, 0.5, 0.5 - 2 ** -54), (0.25, 1 - 2 ** -53, 0.1),
                (-0.0, -0.0, -0.0), (-1e-20, 0.25, -1e-20), (0.3, 0.6, -1e-17),
                (3.7, -2.2, 1.9), (0.0, 0.0, 0.5 - 2 ** -54)]


class TestIterate:
    def test_fused_orbit_is_the_step_chain_bit_for_bit(self):
        # the oracle reduces every image of NilMap.apply on its own
        rng = random.Random(17)
        for trial in range(60):
            f = random_nil_map(rng)
            p = ORBIT_STARTS[trial % len(ORBIT_STARTS)]
            n = rng.choice((0, 1, 2, 40))
            expected = [dyn.reduce_point(p)]
            for _ in range(n):
                expected.append(dyn.reduce_point(f.apply(expected[-1])))
            assert repr(list(dyn.iterate(f, p, n))) == repr(expected), (f, p)

    def test_identity_map_constant_orbit(self):
        f = dyn.NilMap.of(((1, 0), (0, 1)))
        orbit = list(dyn.iterate(f, (0.2, 0.3, 0.1), 5))
        assert all(abs(a - b) <= 1e-8 + 1e-5 * abs(b)
                   for row in orbit for a, b in zip(row, orbit[0]))

    def test_orbit_stays_in_the_box(self):
        f = dyn.NilMap.of(CAT, (0.5, 1.0, 0.3))
        orbit = list(dyn.iterate(f, (0.37, 0.21, 0.13), 500))
        assert all(0 <= x < 1 and 0 <= y < 1 and 0 <= z < 0.5 for x, y, z in orbit)


def measured_rate_by_steps(f, w, n):
    """`_measured_rate` with every step of the reduced orbit taken through
    `reduce_with_translation` of `NilMap.apply`."""
    h = dyn._RATE_STEP
    p = dyn.reduce_point(dyn._RATE_START)
    norm = math.hypot(*w)
    d = dyn._left_frame(p, tuple(c / norm for c in w))
    total = 0.0
    for _ in range(n):
        q = tuple(a + h * b for a, b in zip(p, d))
        p1, gamma = dyn.reduce_with_translation(f.apply(p))
        q1 = dyn.heis_mul(gamma, f.apply(q))
        wv = dyn._frame_inverse(p1, tuple((b - a) / h for a, b in zip(p1, q1)))
        growth = math.hypot(*wv)
        total += math.log(growth)
        d = dyn._left_frame(p1, tuple(c / growth for c in wv))
        p = p1
    return total / n


class TestTangentRates:
    def test_measured_rate_is_the_step_chain_bit_for_bit(self):
        rng = random.Random(19)
        for _ in range(30):
            f = random_nil_map(rng)
            n = rng.choice((1, 2, 50))
            for g, w in ((f, (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)),
                         (f.inverse(), (rng.uniform(-1, 1), 1.0, rng.uniform(-1, 1))),
                         (f, (0.0, 0.0, 1.0))):
                assert repr(dyn._measured_rate(g, w, n)) == repr(measured_rate_by_steps(g, w, n))

    def test_cat_map_rates_match_eigen_oracle(self):
        for g in ((0.0, 0.0, 0.0), (0.5, 1.0, 0.3), (1.5, 0.5, 0.125)):
            f = dyn.NilMap.of(CAT, g)
            rates = dyn.tangent_rates(f)
            ru, rs, rc = rates["u"], rates["s"], rates["c"]
            assert abs(ru.measured - golden_rate()) <= 1e-3
            assert abs(rs.measured + golden_rate()) <= 1e-3
            assert abs(rc.measured) <= 1e-6

    def test_arbitrary_translation_same_rates(self):
        f = dyn.NilMap(CAT, (0.37, 0.91, 0.24))
        assert abs(dyn.tangent_rates(f)["u"].measured - golden_rate()) <= 1e-3

    def test_transposed_matrix(self):
        rates = dyn.tangent_rates(dyn.NilMap.of(((1, 1), (1, 2))))
        assert abs(rates["u"].measured - golden_rate()) <= 1e-3
        assert abs(rates["s"].measured + golden_rate()) <= 1e-3

    def test_center_rate_exactly_from_determinant(self):
        f = dyn.NilMap.of(CAT)
        assert dyn.tangent_rates(f)["c"].exact == 0.0

    def test_identity_map_all_rates_zero(self):
        f = dyn.NilMap.of(((1, 0), (0, 1)))
        for r in dyn.tangent_rates(f, n=50).values():
            assert abs(r.measured) <= 1e-9 and r.exact == 0.0

    def test_exact_equals_measured_within_gate(self):
        rates = dyn.tangent_rates(dyn.NilMap.of(CAT, (0.5, 0.5, 0.1)))
        assert rates["u"].error <= 1e-6 and rates["s"].error <= 1e-6

    def test_exact_fields_are_the_exact_rates(self):
        for m in (CAT, ((1, 1), (1, 2)), ((-5, 2), (2, -1))):
            f = dyn.NilMap.of(m)
            rates = dyn.tangent_rates(f, n=20)
            assert list(rates) == ["u", "s", "c"]
            assert tuple(r.exact for r in rates.values()) == f.exact_rates()


class TestSl2FrameRates:
    def test_time_one(self):
        assert dyn.sl2_frame_rates(1.0) == (-2.0, 2.0, 0.0)

    def test_time_zero(self):
        assert dyn.sl2_frame_rates(0.0) == (0.0, 0.0, 0.0)

    def test_odd_in_time(self):
        for t in (0.5, 1.7, -2.3):
            plus, minus = dyn.sl2_frame_rates(t), dyn.sl2_frame_rates(-t)
            assert all(a == -b for a, b in zip(plus, minus))

    def test_check_draws_samples_times(self, monkeypatch):
        calls = []
        rates = dyn.sl2_frame_rates
        monkeypatch.setattr(dyn, "sl2_frame_rates", lambda t: calls.append(t) or rates(t))
        assert checks.run_check("sl2-frame-rates", seed=0, samples=3) == (True, None)
        assert len(calls) == 2 + 2 * 3


class TestHyperbolicityReport:
    def test_cat_map_certifies_at_power_one(self):
        rep = dyn.hyperbolicity_report(dyn.NilMap.of(CAT, (0.5, 0.0, 0.125)).exact_rates())
        assert rep.partially_hyperbolic
        assert rep.n_certified == 1

    def test_sl2_time_one_certifies_at_power_one(self):
        rep = dyn.hyperbolicity_report(dyn.sl2_frame_rates(1.0))
        assert rep.partially_hyperbolic and rep.n_certified == 1

    def test_expanding_pair_fails_contraction(self):
        rep = dyn.hyperbolicity_report((math.log(2), math.log(3), math.log(6)))
        assert rep.n_certified is None
        assert not rep.partially_hyperbolic

    def test_nil_map_certifies_from_its_exact_multipliers(self, monkeypatch):
        def no_measurement(*args):
            raise AssertionError("finite-difference step")
        monkeypatch.setattr(dyn, "_measured_rate", no_measurement)
        for m in (CAT, ((-5, 2), (2, -1)), ((2**70, 1), (-1, 0))):
            (lam_u, lam_s), _ = dyn.NilMap.of(m).multipliers()
            rates = dyn.NilMap.of(m, (0.5, 0.0, 0.125)).exact_rates()
            assert rates == (math.log(abs(lam_u)), math.log(abs(lam_s)), 0.0)
            rep = dyn.hyperbolicity_report(rates)
            assert rep.partially_hyperbolic and rep.n_certified == 1

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_the_two_rates_are_unordered(self, a, b, c):
        assert dyn.hyperbolicity_report((a, b, c)) == dyn.hyperbolicity_report((b, a, c))

    @given(st.floats(0.01, 100))
    def test_reciprocal_rates_certify_at_power_one(self, r):
        assert dyn.hyperbolicity_report((-r, r, 0.0)).n_certified == 1


class TestVolumeObstruction:
    def test_examples(self):
        assert dyn.volume_obstruction_check(0.5, 1 / 3) == "obstructed"
        assert dyn.volume_obstruction_check(2.0, 3.0) == "obstructed"
        lam = (3 + math.sqrt(5)) / 2
        assert dyn.volume_obstruction_check(lam, 1 / lam) == "admissible"
        assert dyn.volume_obstruction_check(1.0, 1.0) == "admissible"
        assert dyn.volume_obstruction_check(-2.0, 0.25) == "admissible"
        # a multiplier of modulus one is on neither side
        for pair in ((2.0, 1.0), (1.0, 2.0), (0.5, 1.0), (1.0, 0.5)):
            assert dyn.volume_obstruction_check(*pair) == "admissible"

    def test_zero_multiplier(self):
        with pytest.raises(ValueError):
            dyn.volume_obstruction_check(0.0, 1.0)


class TestTrajectoryExport:
    def test_csv_schema(self, tmp_path):
        f = dyn.NilMap.of(CAT, (0.5, 1.0, 0.3))
        orbit = list(dyn.iterate(f, (0.37, 0.21, 0.13), 20))
        path = tmp_path / "orbit.csv"
        dyn.write_trajectory_csv(path, f, (0.37, 0.21, 0.13), 20)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "x", "y", "z"]
        assert len(rows) == 22
        for k, row in enumerate(rows[1:]):
            assert int(row[0]) == k
            for col, val in zip(row[1:], orbit[k]):
                assert float(col) == val  # 17 significant digits round-trip

    @pytest.mark.parametrize("n_rows", [1, 1023, 1024, 1025, 2049])
    def test_blocks_of_rows_are_the_rows_one_at_a_time(self, monkeypatch, n_rows):
        rng = random.Random(n_rows)
        orbit = [(rng.choice((0.0, -0.0, 1 - 2 ** -53, rng.random())),
                  rng.uniform(-1e6, 1e6), rng.random() / 3) for _ in range(n_rows)]
        expected = "step,x,y,z\n" + "".join(
            "%d,%.17g,%.17g,%.17g\n" % (k, *row) for k, row in enumerate(orbit))
        # the program's writer, over these points in place of an orbit
        monkeypatch.setattr(dyn, "iterate", lambda f, p0, n: iter(orbit[:n + 1]))
        fh = io.StringIO()
        dyn.write_trajectory(fh, SPLIT_MAP, SPLIT_START, n_rows - 1)
        assert fh.getvalue() == expected
        assert_no_child_left()


# rows k * 1024 - 1, k * 1024 and k * 1024 + 1 on either side of the shares' blocks
SPLIT_ROWS = [2047, 2048, 2049, 3071, 3072, 3073]
SPLIT_MAP = dyn.NilMap.of(((3, 2), (1, 1)), (0.5, 1.5, 0.3))
SPLIT_START = (0.37, 0.21, 0.13)


def _split_text(monkeypatch, rows, cpus, work=None):
    """write_trajectory's CSV of SPLIT_MAP's first `rows` rows, split as on
    `cpus` CPUs, and the shares it split them into, the caller's first.
    `work(share, blocks)`, if given, stands in for the program's
    `blocks(share)`, the text of a share."""
    split = []

    def noted_split(shares, blocks):
        split.append(shares)
        return workers.split(shares, blocks if work is None else lambda share: work(share, blocks))

    monkeypatch.setattr(dyn, "cpus", lambda: cpus)
    monkeypatch.setattr(dyn, "split", noted_split)
    fh = io.StringIO()
    dyn.write_trajectory(fh, SPLIT_MAP, SPLIT_START, rows - 1)
    return fh.getvalue(), split[0]


def _one_process_text(rows):
    """The CSV of SPLIT_MAP's first `rows` rows, formatted one row at a time."""
    return "step,x,y,z\n" + "".join("%d,%.17g,%.17g,%.17g\n" % (k, *point) for k, point
                                     in enumerate(dyn.iterate(SPLIT_MAP, SPLIT_START, rows - 1)))


class TestSplitTrajectory:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("rows", SPLIT_ROWS)
    def test_split_rows_are_the_rows_of_one_process(self, monkeypatch, rows, cpus):
        text, shares = _split_text(monkeypatch, rows, cpus)
        assert text == _one_process_text(rows)
        # a share for each CPU, each of at least one block, the caller's first
        assert len(shares) == min(cpus, rows // 1024)
        assert [lo for lo, _ in shares] + [rows] == [0] + [hi for _, hi in shares]
        assert all(lo % 1024 == 0 and hi - lo >= 1024 for lo, hi in shares)
        assert_no_child_left()

    @pytest.mark.parametrize("sent", [0, 40, -1])
    def test_rows_of_a_dying_worker_are_written_by_the_caller(self, monkeypatch, sent):
        # each worker writes its text up to byte `sent` (nothing, part of its
        # first row, all but the last newline) to its file, and leaves with
        # code 3; a file made before a fork is the last in the child's list
        files, caller = [], os.getpid()
        temporary_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: files.append(
            temporary_file(*args, **kwargs)) or files[-1])

        def send_and_leave(share, blocks):
            if os.getpid() == caller:
                return blocks(share)
            files[-1].write("".join(blocks(share)).encode("ascii")[:sent])
            files[-1].flush()
            os._exit(3)

        text, shares = _split_text(monkeypatch, 3073, 3, send_and_leave)
        assert len(shares) == 3
        assert text == _one_process_text(3073)
        assert_no_child_left()

    def test_a_worker_writes_each_block_before_it_formats_the_next(self, monkeypatch):
        # so a worker holds one block at a time, however long its share: the
        # split runs in this process as its first worker would, os.fork
        # returning 0 and os._exit raising
        events = []
        range_blocks = dyn._range_blocks

        def noted_blocks(*args):
            for text in range_blocks(*args):
                events.append("formatted")
                yield text

        class Out:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def write(self, data):
                events.append("written")

            def flush(self):
                events.append("flushed")

        class Exited(BaseException):
            pass

        def leave(status):
            raise Exited(status)

        monkeypatch.setattr(dyn, "_range_blocks", noted_blocks)
        monkeypatch.setattr(dyn, "cpus", lambda: 2)
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: Out())
        monkeypatch.setattr(os, "fork", lambda: 0)
        monkeypatch.setattr(os, "_exit", leave)
        fh = io.StringIO()
        with pytest.raises(Exited) as exited:
            # two shares: rows 0..4095 and 4096..8198, four blocks and 7 rows
            dyn.write_trajectory(fh, SPLIT_MAP, SPLIT_START, 8 * 1024 + 6)
        assert exited.value.args == (0,)
        assert events == ["formatted", "written"] * 5 + ["flushed"]
        assert fh.getvalue() == ""


def test_dynamics_imports_no_float_matrix_algebra():
    # the multipliers are exact, so no float eigenbasis is checked
    tree = ast.parse(Path(dyn.__file__).read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names}
    assert not names & {"fmat_mul", "fmat_sub", "fnorm"}
