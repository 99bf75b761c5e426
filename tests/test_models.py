"""Heisenberg arithmetic, model frames, equivariances, and the affine
linearization."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import curvature as curv
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
    rand_upper,
    run_check,
)
from flagdyn.rational import _cleared, primitive
from fraction_count import fractions_built
from references import (affine_apply, affine_map, chart_coords, flat_structure_oracle,
                        push_tangent)
from strategies import small_fractions
from test_rational import sym_poly

heis_elems = st.tuples(small_fractions, small_fractions, small_fractions).map(
    lambda t: md.HeisElem(*_cleared(t)))


def _values(nums, den):
    return tuple(Fraction(n, den) for n in nums)


class TestHeisElem:
    @given(heis_elems, heis_elems)
    def test_group_law(self, g, h):
        (x, y, z), (x1, y1, z1) = _values(g.nums, g.den), _values(h.nums, h.den)
        prod = g.mul(h)
        assert _values(prod.nums, prod.den) == (x + x1, y + y1, z + z1 + x * y1)

    @given(heis_elems)
    def test_inverse(self, g):
        assert g.mul(g.inverse()) == md.HEIS_IDENTITY
        assert g.inverse().mul(g) == md.HEIS_IDENTITY

    @given(heis_elems)
    def test_exponential_roundtrip(self, g):
        assert md.HeisElem.from_exponential(*g.to_exponential()) == g

    def test_exponential_coordinate_convention(self):
        # (x, y, z - xy/2), read as Fractions
        assert _values(*md.HeisElem((2, 3, 10)).to_exponential()) == (2, 3, 10 - 3)
        half = Fraction(1, 2)
        assert _values(*md.HeisElem((1, 4, 6), 2).to_exponential()) == (half, 2, 3 - half * 2 / 2)

    @given(heis_elems, heis_elems)
    def test_exponential_law_has_antisymmetric_cocycle(self, g, h):
        gx, gy, gz = _values(*g.to_exponential())
        hx, hy, hz = _values(*h.to_exponential())
        px, py, pz = _values(*g.mul(h).to_exponential())
        assert (px, py) == (gx + hx, gy + hy)
        assert pz == gz + hz + (gx * hy - gy * hx) / 2

    def test_matrix_representation_multiplies(self):
        rng = random.Random(1)
        g, h = rand_heis(rng), rand_heis(rng)
        assert g.as_group_elem() @ h.as_group_elem() == g.mul(h).as_group_elem()

    def test_equality_is_structural_across_representatives(self):
        # [1/2, 0, -1] over the denominators -2, 2 and 6
        g = md.HeisElem((-1, 0, 2), -2)
        same = md.HeisElem((3, 0, -6), 6)
        assert g == same and hash(g) == hash(same)
        assert (g.nums, g.den) == ((1, 0, -2), 2)
        assert g != md.HeisElem((1, 0, 2), 2)


class TestHeisAuto:
    def test_equality_is_structural_across_representatives(self):
        # (lam, mu) = (1/2, -2) over the denominators -2 and 4
        f = md.HeisAuto((-1, 4), -2)
        same = md.HeisAuto((2, -8), 4)
        assert f == same and hash(f) == hash(same)
        assert (f.nums, f.den) == ((1, -4), 2)
        assert f.inverse() == md.HeisAuto((4, -1), 2)
        assert f != md.HeisAuto((1, 4), 2)

    @pytest.mark.parametrize("nums", [(0, 1), (1, 0), (0, 0)])
    def test_rejects_a_zero_parameter(self, nums):
        # a zero parameter has no inverse
        with pytest.raises(ValueError):
            md.HeisAuto(nums, 3)


def test_models_suite_builds_few_fractions(monkeypatch):
    # the group laws and the equivariances run in ints; the count repeats
    # exactly, so a return to per-entry Fractions fails here
    outcomes, built = fractions_built(monkeypatch, "models")
    assert all(passed for passed, _ in outcomes)
    assert built < 750


class TestEquivarianceAffine:
    def test_identity(self):
        h, phi = md.equivariance_a(lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert h == md.HEIS_IDENTITY
        assert phi == md.AUTO_IDENTITY

    def test_membership_violation(self):
        with pytest.raises(md.MembershipError):
            md.equivariance_a(lc.GroupElem([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


def _block_entries(s):
    return [[Fraction(s.nums[2 * i + j], s.den) for j in range(2)] for i in range(2)]


class TestBlock:
    def test_equality_and_hash_are_structural(self):
        one = md.Block((1, 0, 0, 1))
        for rep in (md.Block((2, 0, 0, 2), 2), md.Block((-3, 0, 0, -3), -3)):
            assert rep == one and hash(rep) == hash(one)
        # a negative denominator moves its sign onto the entries
        s = md.Block((1, 2, 3, 4), -6)
        assert (s.nums, s.den) == ((-1, -2, -3, -4), 6)
        assert s != md.Block((1, 2, 3, 4), 6)
        # never equal to another canonical form with the same ints
        assert one != curv.NormalCurvature((1, 0, 0, 1), 1)

    def test_product_is_the_fraction_product(self):
        rng = random.Random(53)
        for _ in range(50):
            s, t = rand_sl2(rng), rand_sl2(rng)
            a, b = _block_entries(s), _block_entries(t)
            assert _block_entries(md.mat_mul2(s, t)) == [
                [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    def test_draws_have_determinant_one(self):
        rng = random.Random(59)
        for _ in range(50):
            s = rand_sl2(rng)
            a, b, c, d = s.nums
            assert a * d - b * c == s.den * s.den


class TestEquivarianceBlock:
    def test_identity(self):
        s, lam = md.equivariance_t(lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert lam == 1 and s == md.Block((1, 0, 0, 1))

    def test_membership_violations(self):
        with pytest.raises(md.MembershipError):
            md.equivariance_t(lc.GroupElem([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(md.MembershipError):
            # negative block determinant is outside the factorizable part
            md.equivariance_t(lc.GroupElem([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))

    def test_irrational_scale_is_a_membership_violation(self):
        # block determinant 2 has no rational square root, so lam is not exact
        with pytest.raises(md.MembershipError):
            md.equivariance_t(lc.GroupElem([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


@pytest.mark.parametrize("check_id, oracle, seed", [
    ("equivariance-affine-display", "equivariance_a", 20),
    ("equivariance-block-morphism", "equivariance_t_inverse", 2),
    ("equivariance-block-conjugates-action", "equivariance_t_inverse", 19)])
def test_one_sample_exercises_the_map(monkeypatch, check_id, oracle, seed):
    # at these seeds the first draw has a zero parameter; no draw may be skipped
    calls = []
    real = getattr(md, oracle)
    monkeypatch.setattr(md, oracle, lambda *args: calls.append(args) or real(*args))
    assert run_check(check_id, seed, samples=1)[0]
    assert calls


class TestFrames:
    def test_well_defined_under_stabilizer(self):
        assert run_check("frame-well-defined", seed=31, samples=40) == (True, None)

    def test_invariance_under_the_model_group(self):
        rng = random.Random(37)
        for model in md.MODELS:
            done = 0
            while done < 40:
                x = rand_interior_flag(rng, model)
                if model is md.BLOCK:
                    lam = nonzero_frac(rng)
                    g = md.equivariance_t_inverse(rand_sl2(rng), lam)
                else:
                    g = rand_upper(rng)
                y = fs.act(g, x)
                if fs.region_classify(y, model.special_point) is not fs.Region.INTERIOR:
                    continue
                try:
                    fr_x = md.frame_at(x, model)
                    fr_y = md.frame_at(y, model)
                    pushed = tuple(primitive(push_tangent(g, x, line)) for line in fr_x)
                except fs.BoundaryError:
                    continue
                assert pushed == fr_y
                done += 1

    def test_frame_is_the_fraction_path(self):
        # the integer frame against primitive of each base field's Fraction
        # value at the chart coordinates, read off the ring field term by
        # term, on interior flags whose chart scale m2 n0 takes both signs,
        # and off the slope chart
        fields = {model: [md.invariant_field(g, model) for g in model.frame]
                  for model in md.MODELS}

        def fraction_frame(x, model):
            p = chart_coords(x)
            return tuple(primitive(field_value(field, p)) for field in fields[model])

        rng = random.Random(41)
        for model in md.MODELS:
            signs = set()
            for _ in range(100):
                x = rand_interior_flag(rng, model)
                signs.add(x.point[2] * x.line[0] > 0)
                assert md.frame_at(x, model) == fraction_frame(x, model)
            assert signs == {True, False}
            # the point at infinity, then a horizontal direction
            for x in (fs.Flag((1, 1, 0), (1, -1, 0)), fs.Flag((0, 0, 1), (0, 1, 0))):
                for frame in (md.frame_at, fraction_frame):
                    with pytest.raises(fs.BoundaryError):
                        frame(x, model)

    def test_boundary_flag_rejected(self):
        with pytest.raises(fs.BoundaryError):
            md.frame_at(fs.BASE_FLAG, md.AFFINE)

    def test_transporter_raises_exactly_off_the_interior(self):
        rng = random.Random(43)
        for model in md.MODELS:
            seen = set()
            for _ in range(400):
                x = checks.rand_flag(rng)
                interior = fs.region_classify(x, model.special_point) is fs.Region.INTERIOR
                seen.add(interior)
                if interior:
                    assert fs.act(md.transporter(x, model), model.base_flag) == x
                else:
                    with pytest.raises(fs.BoundaryError):
                        md.transporter(x, model)
            assert seen == {True, False}


def _sympy_field(gen, model):
    """The invariant field of `gen` built in sympy, independently of the
    ring: the transporter h in closed form, V = h gen h^-1, and the chart
    velocity of exp(tV) at the flag of (x, y, z), differentiated in t from
    the moved point m(t) and line n(t) of the flag.  Returns the field and
    its Jacobian."""
    x, y, z, t = sp.symbols("x y z t")
    if model is md.BLOCK:
        d = x - y * z
        h = sp.Matrix([[x, z / d, 0], [y, 1 / d, 0], [0, 0, 1]])
    else:
        h = sp.Matrix([[1, z, x], [0, 1, y], [0, 0, 1]])
    v = h * sp.Matrix(gen.entries) * h.inv()
    m = sp.Matrix([x, y, 1])
    n = m.cross(sp.Matrix([x + z, y + 1, 1])).T
    mt, nt = (sp.eye(3) + t * v) * m, n * (sp.eye(3) - t * v)
    chart = sp.Matrix([mt[0] / mt[2], mt[1] / mt[2], -nt[1] / nt[0]])
    field = chart.diff(t).subs(t, 0)
    return field, field.jacobian([x, y, z])


def field_value(field, p):
    """The value of the ring field at the point p, as Fractions: each
    numerator and the denominator summed term by term."""
    def value(poly):
        return sum((c * math.prod(Fraction(v) ** k for v, k in zip(p, e))
                    for e, c in poly.terms), Fraction(0))

    nums, den = field
    return tuple(value(n) / value(den) for n in nums)


class TestInvariantField:
    @pytest.mark.parametrize("model, gen", [
        (md.BLOCK, md.SL2_E), (md.BLOCK, md.SL2_F), (md.BLOCK, md.SL2_H),
        (md.AFFINE, md.HEIS_X), (md.AFFINE, md.HEIS_Y), (md.AFFINE, md.HEIS_Z),
        # outside both model algebras: V m has a nonzero third entry
        (md.BLOCK, lc.LieVec.elementary(2, 0)), (md.AFFINE, lc.LieVec.elementary(2, 0))],
        ids=["t-E", "t-F", "t-H", "a-X", "a-Y", "a-Z", "t-E20", "a-E20"])
    def test_derivative_matches_sympy(self, model, gen):
        # the ring field N / q and its partials (DN q - N Dq) / q^2, taken
        # with the ring's diff, equal sympy's field and Jacobian identically
        value, jac = _sympy_field(gen, model)
        nums, den = md.invariant_field(gen, model)
        q = sym_poly(den)
        for i, n in enumerate(nums):
            assert sp.cancel(sym_poly(n) / q - value[i]) == 0
            for k in range(3):
                partial = sym_poly(n.diff(k) * den - n * den.diff(k)) / q ** 2
                assert sp.cancel(partial - jac[i, k]) == 0


def test_library_does_not_import_sympy():
    # sympy is a test-time oracle only; the library imports nothing but the
    # standard library and its own modules
    src = Path(md.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(n.split(".")[0] in sys.stdlib_module_names for n in names), path.name


def heis_vec(a, b, c):
    """aX + bY + cZ."""
    return lc.LieVec.of([[0, a, c], [0, 0, b], [0, 0, 0]])


class TestFlatStructureIso:
    def test_rejects_non_contact_pair(self):
        with pytest.raises(md.ContactConditionError):
            md.flat_structure_iso(md.HEIS_X, md.HEIS_X.scale(2) + md.HEIS_Z)

    def test_ints_are_the_displayed_matrix(self):
        # nine ints over one denominator against the Fraction definition,
        # and the public view equal to it
        rng = random.Random(61)
        pairs = [(md.HEIS_X, md.HEIS_Y), (md.HEIS_X + md.HEIS_Z, md.HEIS_Y)]
        pairs += [(heis_vec(*(rand_frac(rng) for _ in range(3))),
                   heis_vec(*(rand_frac(rng) for _ in range(3)))) for _ in range(200)]
        for v, w in pairs:
            try:
                expected = flat_structure_oracle(v, w)
            except md.ContactConditionError:
                continue
            nums, den = md._flat_structure_ints(v, w)
            assert all(type(n) is int for n in (*nums, den))
            assert [Fraction(n, den) for n in nums] == [e for row in expected for e in row]
            assert md.flat_structure_iso(v, w) == expected

    @pytest.mark.parametrize("v, w, error", [
        (md.HEIS_X, md.HEIS_X.scale(3) + md.HEIS_Z, md.ContactConditionError),
        (heis_vec(0, 0, 1), heis_vec(1, 0, 5), md.ContactConditionError),
        (md.SL2_H, md.HEIS_Y, ValueError),
        (md.HEIS_X, lc.LieVec.elementary(2, 0), ValueError)])
    def test_ints_refuse_what_the_definition_refuses(self, v, w, error):
        # a non-contact pair, and an element off the Heisenberg algebra, which
        # is a plain ValueError
        for refuse in (md._flat_structure_ints, flat_structure_oracle):
            with pytest.raises(error) as raised:
                refuse(v, w)
            if error is ValueError:
                assert not isinstance(raised.value, md.ContactConditionError)

    def test_fails_when_no_pair_is_tested(self, monkeypatch):
        # every drawn pair is zero, so none is a contact pair
        monkeypatch.setattr(checks, "_rand_ints", lambda rng, count, nonzero=(): [0] * count)
        assert run_check("flat-structure-iso") == (False, None)


class TestAffineLinearization:
    def test_injective(self):
        rng = random.Random(59)
        seen = {}
        for _ in range(100):
            g, phi = rand_heis(rng), rand_auto(rng)
            key = md.theta_affine(g, phi)
            assert seen.setdefault(key, (g, phi)) == (g, phi)

    def test_equality_is_structural_across_representatives(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        m = affine_map([[Fraction(2, 4), 0, 0], [0, 1, 0], [0, 0, Fraction(2, 6)]],
                       (0, Fraction(-3, 3), 2))
        same = affine_map([[half, 0, 0], [0, Fraction(5, 5), 0], [0, 0, third]],
                          (Fraction(0, 7), -1, Fraction(4, 2)))
        assert m == same and hash(m) == hash(same)
        assert m == md.AffineMap((-3, 0, 0, 0, -6, 0, 0, 0, -2, 0, 6, -12), -6)
        assert m.linear == ((half, 0, 0), (0, 1, 0), (0, 0, third))
        assert m.translation == (0, -1, 2)
        assert m != affine_map(m.linear, (0, -1, 3))

    def test_apply_and_compose_are_the_affine_formulas(self):
        # compose is the composite of the two maps, applied by the textbook L v + t
        rng = random.Random(61)
        for _ in range(50):
            f, g = (affine_map([[rand_frac(rng) for _ in range(3)] for _ in range(3)],
                               [rand_frac(rng) for _ in range(3)]) for _ in range(2))
            v = tuple(rand_frac(rng) for _ in range(3))
            assert affine_apply(f.compose(g), v) == affine_apply(f, affine_apply(g, v))


class TestCentralFlow:
    def test_time_zero_is_identity(self):
        assert md.commutator_identity_check((3, -2, 5), 0, 1) == (True, True)

    def test_unit_square_from_origin(self):
        alpha, beta, _ = md.FRAME_FLOWS
        p = (Fraction(0), Fraction(0), Fraction(0))
        assert beta(-1, alpha(-1, beta(1, alpha(1, p)))) == (1, 0, 0)

    def test_fields_realize_the_standard_frame(self):
        # each flow is affine in t, so its field is (flow(t, p) - p) / t
        p = (Fraction(2), Fraction(-1), Fraction(3))
        fields = [tuple((a - b) / t for a, b in zip(flow(t, p), p))
                  for flow in md.FRAME_FLOWS for t in (Fraction(1, 3), Fraction(-5))]
        assert fields == [(0, 0, 1)] * 2 + [(3, 1, 0)] * 2 + [(1, 0, 0)] * 2
