"""Nilmanifold dynamics: lattice, reduction, rates, certificates."""

import ast
import csv
import decimal
import math
import random
from pathlib import Path

import pytest

from flagdyn import checks
from flagdyn import dynamics as dyn
from registry_twins import twin

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
            assert dyn.LATTICE.contains(dyn.heis_inv(g))

    def test_invariant_under_integer_unimodular_parts(self):
        rng = random.Random(2)
        for m in (CAT, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
                  ((5, 2), (2, 1))):
            f = dyn.NilMap.of(m)
            for _ in range(100):
                g = dyn.LATTICE.random_element(rng)
                assert dyn.LATTICE.contains(f.apply(g))


class TestReduce:
    test_lattice_invariance = twin("reduce-retraction")

    def test_lands_in_the_box(self):
        rng = random.Random(3)
        for _ in range(1000):
            p = tuple(rng.uniform(-20, 20) for _ in range(3))
            x, y, z = dyn.reduce_point(p)
            assert 0 <= x < 1 and 0 <= y < 1 and 0 <= z < 0.5

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(10_000):
            p = tuple(rng.uniform(-8, 8) for _ in range(3))
            r = dyn.reduce_point(p)
            assert dyn.reduce_point(r) == r

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
        # int() would truncate these to the cat map
        for matrix in (((2.5, 1), (1, 1)), ((2, 1.9), (1, 1))):
            with pytest.raises(ValueError, match="integer matrix of determinant 1"):
                dyn.NilMap.of(matrix)
        assert dyn.NilMap.of(((2.0, 1), (1, 1))).linear == CAT

    def test_non_normalizing_translation_rejected(self):
        with pytest.raises(ValueError):
            dyn.NilMap.of(CAT, (0.3, 0.0, 0.0))
        dyn.NilMap.of(CAT, (0.3, 0.0, 0.0), check_descends=False)

    def test_descent_check_is_not_part_of_the_map(self):
        assert dyn.NilMap.of(CAT, (0.5, 0, 0)) == \
            dyn.NilMap.of(CAT, (0.5, 0, 0), check_descends=False)

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
            dyn.tangent_rates(f, "u")

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


class TestIterate:
    def test_identity_map_constant_orbit(self):
        f = dyn.NilMap.of(((1, 0), (0, 1)))
        orbit = list(dyn.iterate(f, (0.2, 0.3, 0.1), 5))
        assert all(abs(a - b) <= 1e-8 + 1e-5 * abs(b)
                   for row in orbit for a, b in zip(row, orbit[0]))

    def test_orbit_stays_in_the_box(self):
        f = dyn.NilMap.of(CAT, (0.5, 1.0, 0.3))
        orbit = list(dyn.iterate(f, (0.37, 0.21, 0.13), 500))
        assert all(0 <= x < 1 and 0 <= y < 1 and 0 <= z < 0.5 for x, y, z in orbit)


class TestTangentRates:
    def test_cat_map_rates_match_eigen_oracle(self):
        for g in ((0.0, 0.0, 0.0), (0.5, 1.0, 0.3), (1.5, 0.5, 0.125)):
            f = dyn.NilMap.of(CAT, g)
            ru = dyn.tangent_rates(f, "u")
            rs = dyn.tangent_rates(f, "s")
            rc = dyn.tangent_rates(f, "c")
            assert abs(ru.measured - golden_rate()) <= 1e-3
            assert abs(rs.measured + golden_rate()) <= 1e-3
            assert abs(rc.measured) <= 1e-6

    def test_arbitrary_translation_same_rates(self):
        f = dyn.NilMap.of(CAT, (0.37, 0.91, 0.24), check_descends=False)
        assert abs(dyn.tangent_rates(f, "u").measured - golden_rate()) <= 1e-3

    def test_transposed_matrix(self):
        f = dyn.NilMap.of(((1, 1), (1, 2)))
        assert abs(dyn.tangent_rates(f, "u").measured - golden_rate()) <= 1e-3
        assert abs(dyn.tangent_rates(f, "s").measured + golden_rate()) <= 1e-3

    def test_center_rate_exactly_from_determinant(self):
        f = dyn.NilMap.of(CAT)
        assert dyn.tangent_rates(f, "c").exact == 0.0

    def test_identity_map_all_rates_zero(self):
        f = dyn.NilMap.of(((1, 0), (0, 1)))
        for d in ("u", "s", "c"):
            r = dyn.tangent_rates(f, d, n=50)
            assert abs(r.measured) <= 1e-9 and r.exact == 0.0

    def test_exact_equals_measured_within_gate(self):
        f = dyn.NilMap.of(CAT, (0.5, 0.5, 0.1))
        for d in ("u", "s"):
            r = dyn.tangent_rates(f, d)
            assert r.error <= 1e-6

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            dyn.tangent_rates(dyn.NilMap.of(CAT), "q")


class TestSl2FrameRates:
    test_time_one = twin("sl2-frame-rates")
    test_time_zero = twin("sl2-frame-rates")
    test_odd_in_time = twin("sl2-frame-rates")

    def test_check_draws_samples_times(self, monkeypatch):
        calls = []
        rates = dyn.sl2_frame_rates
        monkeypatch.setattr(dyn, "sl2_frame_rates", lambda t: calls.append(t) or rates(t))
        assert checks.run_check("sl2-frame-rates", seed=0, samples=3) == (True, None)
        assert len(calls) == 2 + 2 * 3


class TestHyperbolicityReport:
    def test_cat_map_certifies_at_power_one(self):
        rep = dyn.hyperbolicity_report(dyn.NilMap.of(CAT, (0.5, 0.0, 0.125)))
        assert rep.partially_hyperbolic
        assert rep.n_certified == 1
        assert rep.stable_label != rep.unstable_label
        assert rep.weak_contraction["center"] == "none"

    def test_sl2_time_one_certifies_at_power_one(self):
        rep = dyn.hyperbolicity_report(dyn.Sl2TimeMap(1.0))
        assert rep.partially_hyperbolic and rep.n_certified == 1
        assert rep.rate_alpha == -2.0 and rep.rate_beta == 2.0

    def test_expanding_pair_fails_contraction(self):
        rep = dyn.hyperbolicity_report((math.log(2), math.log(3), math.log(6)))
        assert rep.inconclusive
        assert not rep.partially_hyperbolic
        assert rep.weak_contraction["alpha"] == "backward"
        assert rep.weak_contraction["beta"] == "backward"

    def test_nil_map_certifies_from_its_exact_multipliers(self, monkeypatch):
        def no_measurement(*args):
            raise AssertionError("finite-difference step")
        monkeypatch.setattr(dyn, "_measured_rate", no_measurement)
        for m in (CAT, ((-5, 2), (2, -1)), ((2**70, 1), (-1, 0))):
            (lam_u, lam_s), _ = dyn.NilMap.of(m).multipliers()
            rep = dyn.hyperbolicity_report(dyn.NilMap.of(m, (0.5, 0.0, 0.125)))
            assert (rep.rate_alpha, rep.rate_beta, rep.rate_center) == \
                (math.log(abs(lam_u)), math.log(abs(lam_s)), 0.0)
            assert rep.partially_hyperbolic and rep.n_certified == 1

    def test_weak_contraction_dichotomy_for_the_cat_map(self):
        rep = dyn.hyperbolicity_report(dyn.NilMap.of(CAT))
        stable = rep.stable_label
        unstable = rep.unstable_label
        assert rep.weak_contraction[stable] == "forward"
        assert rep.weak_contraction[unstable] == "backward"


class TestVolumeObstruction:
    def test_examples(self):
        assert dyn.volume_obstruction_check(0.5, 1 / 3) == "obstructed"
        assert dyn.volume_obstruction_check(2.0, 3.0) == "obstructed"
        lam = (3 + math.sqrt(5)) / 2
        assert dyn.volume_obstruction_check(lam, 1 / lam) == "admissible"
        assert dyn.volume_obstruction_check(1.0, 1.0) == "admissible"
        assert dyn.volume_obstruction_check(-2.0, 0.25) == "admissible"

    def test_zero_multiplier(self):
        with pytest.raises(ValueError):
            dyn.volume_obstruction_check(0.0, 1.0)


class TestTrajectoryExport:
    def test_csv_schema(self, tmp_path):
        f = dyn.NilMap.of(CAT, (0.5, 1.0, 0.3))
        orbit = list(dyn.iterate(f, (0.37, 0.21, 0.13), 20))
        path = tmp_path / "orbit.csv"
        dyn.write_trajectory_csv(path, orbit)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "x", "y", "z"]
        assert len(rows) == 22
        for k, row in enumerate(rows[1:]):
            assert int(row[0]) == k
            for col, val in zip(row[1:], orbit[k]):
                assert float(col) == val  # 17 significant digits round-trip


def test_dynamics_imports_no_float_matrix_algebra():
    # the multipliers are exact, so no float eigenbasis is checked
    tree = ast.parse(Path(dyn.__file__).read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names}
    assert not names & {"fmat_mul", "fmat_sub", "fnorm"}
