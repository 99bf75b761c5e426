"""Classification oracles: subalgebra tables, isotropy actions, invariant
lines, degenerations, and the flatness predicate."""

import random
from fractions import Fraction

import pytest

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.checks import rand_frac
from flagdyn.rational import in_span, primitive
from fraction_count import fractions_built
import references


class TestSubalgebraTable:
    def test_dimensions(self):
        assert (cls.H_T.dim, cls.H_A.dim, cls.H_1.dim, cls.H_2.dim) == (4, 5, 5, 4)

    def test_similarity_extension_shape(self):
        # similarity block plus translations, corner compensating the trace
        for v in cls.H_2.basis:
            assert v.is_traceless()
            assert v.entries[2][0] == 0 and v.entries[2][1] == 0


def isotropy_diagonal(case):
    """The diagonal of the isotropy table of `case`, after asserting that
    every off-diagonal entry is (0, 0)."""
    table = cls.isotropy_eigenvalue_table(case)
    assert all(table[i][j] == (0, 0) for i in range(3) for j in range(3) if i != j)
    return tuple(table[i][i] for i in range(3))


class TestIsotropyTables:
    def test_block_model_diagonal(self):
        assert isotropy_diagonal("t") == ((3, 0), (-3, 0), (0, 0))

    def test_affine_model_diagonal(self):
        assert isotropy_diagonal("a") == ((2, 1), (-1, -2), (1, -1))

    def test_nilpotent_isotropy_off_diagonal_slot(self):
        table = cls.isotropy_eigenvalue_table("h1")
        b_part = tuple(tuple(table[i][j][1] for j in range(3)) for i in range(3))
        assert b_part == ((0, 0, 0), (0, 0, 1), (0, 0, 0))

    def test_similarity_isotropy_kills_alpha(self):
        table = cls.isotropy_eigenvalue_table("h2")
        assert tuple(table[i][i][0] for i in range(3)) == (0, 3, 3)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            cls.isotropy_eigenvalue_table("nope")

    @pytest.mark.parametrize("sign", (1, -1))
    def test_lift_off_the_algebra_fails_the_data_check(self, monkeypatch, sign):
        # E01 +- E21 is off the block algebra, and the table check reads only
        # the diagonal, which this lift keeps
        lift = lc.LieVec.elementary(0, 1) + lc.LieVec.elementary(2, 1).scale(sign)
        plant(monkeypatch, "t", cls._ISOTROPY_CASES, lifts=(lift, *md.BLOCK.frame[1:]))
        assert checks._check_isotropy_t(None) is True
        assert checks.run_check("isotropy-table-block") == (False, None)

    @pytest.mark.parametrize("case, fields", [
        ("t", {"iso_a": md.SL2_E}),  # in the algebra, but it moves the base flag
        ("a", {"base_flag": md.BLOCK.base_flag}),  # not the flag the isotropy fixes
        ("h2", {"lifts": (cls._J, cls._J, lc.LieVec.elementary(0, 2))}),  # spans too little
    ])
    def test_each_clause_of_the_data_check(self, monkeypatch, case, fields):
        assert checks._isotropy_data(case)
        plant(monkeypatch, case, cls._ISOTROPY_CASES, **fields)
        assert not checks._isotropy_data(case)


class TestInvariantLines:
    def test_block_model_unique_line_is_class_of_H(self):
        base = md.BLOCK.base_flag
        res = cls.invariant_transverse_line_search(cls.H_T, base)
        assert res.kind == "unique"
        assert cls.line_class_equals(res.generator, md.SL2_H, cls.H_T, base)

    def test_affine_model_unique_line_is_class_of_Z(self):
        base = md.AFFINE.base_flag
        res = cls.invariant_transverse_line_search(cls.H_A, base)
        assert res.kind == "unique"
        assert cls.line_class_equals(res.generator, md.HEIS_Z, cls.H_A, base)

    def test_both_checks_see_a_comparison_that_accepts_too_much(self, monkeypatch):
        # with `and` turned into `or`, the comparison accepts any generator
        # outside the isotropy, the other model's transverse line among them;
        # the search's own answer still compares equal, so only the
        # rejection clause of the checks sees it
        def mutant(gen, target, alg, base):
            iso_nums = [v.nums for v in cls._isotropy_basis(alg, base)]
            return (in_span([target.nums, *iso_nums], gen.nums)
                    or not in_span(iso_nums, gen.nums))

        for model, alg, wrong in ((md.BLOCK, cls.H_T, md.HEIS_Z),
                                  (md.AFFINE, cls.H_A, cls.CENTRAL_LINE)):
            base, target = model.base_flag, model.frame[2]
            assert not cls.line_class_equals(wrong, target, alg, base)
            assert mutant(wrong, target, alg, base)
        monkeypatch.setattr(cls, "line_class_equals", mutant)
        assert checks.run_check("invariant-line-block") == (False, None)
        assert checks.run_check("invariant-line-affine") == (False, None)

    def test_translation_extension_has_none(self):
        assert cls.invariant_transverse_line_search(cls.H_1, cls.X1_FLAG).kind == "none"

    def test_similarity_extension_has_a_family(self):
        res = cls.invariant_transverse_line_search(cls.H_2, md.AFFINE.base_flag)
        assert (res.kind, res.family_dim) == ("family", 1)

    def test_non_open_orbit_rejected(self):
        with pytest.raises(ValueError):
            cls.invariant_transverse_line_search(cls.H_T, fs.BASE_FLAG)

    def test_trivial_isotropy_leaves_every_line_invariant(self):
        # the Heisenberg algebra acts simply transitively on the open orbit
        # of the affine model: no isotropy, so no condition on (x, y)
        res = cls.invariant_transverse_line_search(cls.HEIS_ALGEBRA, md.AFFINE.base_flag)
        assert (res.kind, res.family_dim) == ("family", 2)

    def test_stabilizer_eigenvalues_match_the_exclusion(self):
        # the two one-dimensional stabilizers act with a zero rate on one
        # of the circle directions: [0, 3, 3] and [-3, 0, -3]
        table = cls.isotropy_eigenvalue_table("a")
        def rate(diag_ab, a, b):
            return tuple(ca * a + cb * b for (ca, cb) in diag_ab)
        diag = tuple(table[i][i] for i in range(3))
        assert rate(diag, 1, -2) == (0, 3, 3)
        assert rate(diag, -2, 1) == (-3, 0, -3)


class TestDegeneration:
    def test_case_data_is_consistent(self):
        for data in cls.DEGENERATION_CASES.values():
            assert fs.act(data.pivot, data.boundary_flag) == fs.BASE_FLAG
            model = data.model
            y = model.base_flag
            for t in (Fraction(1), Fraction(1, 2), Fraction(-2)):
                lhs = fs.act(cls.unipotent(data.circle, t), data.boundary_flag)
                rhs = fs.act(cls.unipotent(data.along, 1 / t), y)
                assert lhs == rhs
            # the transported generator spans the transverse line at the anchor
            fr = md.frame_at(y, model)
            vec = fs.fundamental_vector(model.frame[2], y)
            assert primitive(vec) == fr[2]

    def test_exact_matrices_at_sampled_parameters(self):
        for case in ("t1", "t2", "a1", "a2"):
            for t in (Fraction(1), Fraction(1, 2), Fraction(1, 10),
                      Fraction(1, 100), Fraction(-3)):
                res = cls.degeneration_limit(case, t)
                assert res.matches, (case, t)

    def test_printed_matrix_t1(self):
        res = cls.degeneration_limit("t1", Fraction(1, 10))
        t = Fraction(1, 10)
        assert res.matrix == ((1, -2, -2 / t), (1, -2, -2 / t), (-t, t, 1))

    def test_printed_matrix_a2(self):
        res = cls.degeneration_limit("a2", Fraction(1, 10))
        t = Fraction(1, 10)
        assert res.matrix == ((0, 0, 0), (0, 0, 0), (t, 1, 0))
        assert res.limit == "alpha"

    def test_wrong_limit_fails_the_exact_bound(self):
        # the verdict reads the exact class, not the reported float residual:
        # swapping the limit vector keeps the residual and fails every time
        # at which the bound 3|t| is below 1
        other = {"alpha": "beta", "beta": "alpha"}
        for case in cls.DEGENERATION_CASES:
            for res in cls.degeneration_samples(case):
                assert res.passed
                wrong = cls.DegenerationResult(res.t, res.matrix, res.matches,
                                               other[res.limit], res.sine_distance)
                assert wrong.passed is (3 * res.t >= 1), (case, res.t)

    def test_errors(self):
        with pytest.raises(ValueError):
            cls.degeneration_limit("zz", 1)
        with pytest.raises(ZeroDivisionError):
            cls.degeneration_limit("t1", 0)

    def test_swapped_limit_vectors_fail_the_data_check(self, monkeypatch):
        # the tables tend to beta for t1 and a1 and to alpha for t2 and a2;
        # the samples fail too, but only at t = 1/10 and 1/100, with a residual
        vectors = cls._LIMIT_VECTORS
        monkeypatch.setattr(cls, "_LIMIT_VECTORS", {"alpha": vectors["beta"],
                                                    "beta": vectors["alpha"]})
        assert not checks._degeneration_data()
        assert checks.run_check("degeneration-matrices") == (False, None)

    @pytest.mark.parametrize("limit", ["alpha", "beta"])
    def test_zero_limit_vector_fails_the_data_check(self, monkeypatch, limit):
        # |v x 0|^2 = 0 meets the bound 3|t| at every t, so only the data
        # check sees a zeroed limit vector
        monkeypatch.setitem(cls._LIMIT_VECTORS, limit, (0, 0, 0))
        assert checks._check_degeneration(None) is True
        assert checks.run_check("degeneration-matrices") == (False, None)

    def test_mutant_pivot_fails_the_data_check(self, monkeypatch):
        # an invertible one-entry pivot mutant that both table checks pass:
        # it no longer carries the boundary flag to the base flag
        plant(monkeypatch, "a1", pivot=lc.GroupElem([[0, 0, 1], [1, 0, -1], [0, 1, 0]]))
        assert checks._check_degeneration(None) is True
        assert checks.run_check("degeneration-symbolic") == (True, None)
        assert checks.run_check("degeneration-matrices") == (False, None)

    def test_swapped_generator_fails_the_data_check(self, monkeypatch):
        # every upper unitriangular matrix fixes Z, so the tables cannot see
        # a1 run along Y; its circle then traces another orbit
        plant(monkeypatch, "a1", along=md.AFFINE.frame[1])
        assert checks._check_degeneration(None) is True
        assert checks.run_check("degeneration-symbolic") == (True, None)
        assert checks.run_check("degeneration-matrices") == (False, None)

    def test_unipotent_needs_a_square_zero_generator(self):
        assert cls.unipotent(md.HEIS_Z, Fraction(1, 2)) == lc.GroupElem(
            [[2, 0, 1], [0, 2, 0], [0, 0, 2]])
        with pytest.raises(ArithmeticError):
            cls.unipotent(lc.LieVec.diag(1, -1, 0), 1)

    def test_a_circle_off_the_premise_fails_both_checks(self, monkeypatch, capfd):
        plant(monkeypatch, "t1", circle=lc.LieVec.diag(1, -1, 0))
        report = {c["id"]: c["pass"] for c in checks.run_checks(suite="classification")}
        assert not report["degeneration-matrices"] and not report["degeneration-symbolic"]
        assert sum(not passed for passed in report.values()) == 2
        assert capfd.readouterr().err == ""


def plant(monkeypatch, case, table=cls.DEGENERATION_CASES, **fields):
    """Replace `fields` of one case of `table` for the test's duration."""
    data = table[case]
    changed = type(data)(**{f: fields.get(f, getattr(data, f)) for f in data._fields})
    monkeypatch.setitem(table, case, changed)


def _vanishing_at(times, low=-2):
    """t^low times the product of (q t - p) over the times p / q, {degree: int}."""
    poly = {low: 1}
    for r in times:
        p, q = r.numerator, r.denominator
        poly = {k: q * poly.get(k - 1, 0) - p * poly.get(k, 0)
                for k in range(low, low + len(poly) + 1)}
    return poly


# the four DEGENERATION_TIMES and five more: no evaluation there sees a bump
_NINE_TIMES = (*cls.DEGENERATION_TIMES, Fraction(1, 3), Fraction(2), Fraction(3), Fraction(5),
               Fraction(1, 5))


class TestLaurentPoly:
    def test_fit_roundtrip(self):
        # a table is read term by term: against Horner's rule on t^2 p(t)
        assert cls._laurent_at({-1: -2, 1: 3}, Fraction(1, 2)) == Fraction(-5, 2)
        rng = random.Random(67)
        for _ in range(30):
            poly = {k: rand_frac(rng) for k in range(-2, 3)}
            t = rand_frac(rng) or Fraction(1)
            horner = Fraction(0)
            for k in range(2, -3, -1):
                horner = horner * t + poly[k]
            assert cls._laurent_at(poly, t) == horner / t ** 2

    @pytest.mark.parametrize("bump", [
        _vanishing_at(cls.DEGENERATION_TIMES), _vanishing_at(_NINE_TIMES),
        _vanishing_at(_NINE_TIMES, low=-3)], ids=["inside", "beyond", "below"])
    def test_a_bump_zero_at_the_samples_fails_the_identity(self, monkeypatch, bump):
        # t1's entry (0, 0) plus a bump of degrees -2..2, -2..7 or -3..6 (which
        # the identity refuses), zero at each of the DEGENERATION_TIMES
        assert all(cls._laurent_at(bump, t) == 0 for t in cls.DEGENERATION_TIMES)
        data = cls.DEGENERATION_CASES["t1"]
        entry = {k: data.expected[0][0].get(k, 0) + c for k, c in bump.items()}
        plant(monkeypatch, "t1", expected=((entry, *data.expected[0][1:]), *data.expected[1:]))
        assert checks._check_degeneration(None) is True
        assert checks.run_check("degeneration-symbolic") == (False, None)
        assert checks.run_check("degeneration-matrices") == (True, None)


def _outcome(call, *args):
    """call(*args), or the type and message of the ArithmeticError it raises."""
    try:
        return call(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _scaled(alg):
    """alg with basis element j scaled by 1 / (j + 2): columns of the
    tangent rows with denominators other than 1."""
    return lc.Subalgebra.of([b.scale(Fraction(1, j + 2)) for j, b in enumerate(alg.basis)])


class TestIntegerRows:
    # the integer systems against the Fraction-row formulas they replaced:
    # on the four table algebras, and on the same algebras with scaled bases
    @pytest.mark.parametrize("case", sorted(cls._ISOTROPY_CASES))
    def test_isotropy_equals_the_fraction_row_reference(self, case):
        assert cls.isotropy_eigenvalue_table(case) == references.isotropy_eigenvalue_table(case)

    @pytest.mark.parametrize("case", sorted(cls._ISOTROPY_CASES))
    @pytest.mark.parametrize("scale", [lambda alg: alg, _scaled], ids=["table", "scaled"])
    def test_lifts_and_stabilizers_equal_the_fraction_row_reference(self, monkeypatch, case,
                                                                    scale):
        d = cls._ISOTROPY_CASES[case]
        alg, base = scale(d.algebra), d.base_flag
        iso = cls._isotropy_basis(alg, base)
        assert iso == references.isotropy_basis(alg, base)
        assert cls._adapted_lifts(alg, base, iso) == references.adapted_lifts(alg, base, iso)
        # h-1's patterns are not stable across representatives: both raise
        stabilizers = _outcome(cls.transverse_stabilizer_cases, alg, base)
        monkeypatch.setattr(cls, "_quotient_matrix", references.quotient_matrix)
        monkeypatch.setattr(cls, "_isotropy_basis", references.isotropy_basis)
        monkeypatch.setattr(cls, "_adapted_lifts", references.adapted_lifts)
        assert stabilizers == _outcome(cls.transverse_stabilizer_cases, alg, base)


def _lifts(alg, base):
    return cls._adapted_lifts(alg, base, cls._isotropy_basis(alg, base))


class TestRefusals:
    # the consistency refusals that no table input reaches, each reached by
    # an input built for it: a bracket off the span, an algebra with no
    # beta-lift, and BLOCK's two circle lifts, which have no transverse lift
    @pytest.mark.parametrize("call, message", [
        (lambda: cls._quotient_matrix([], (lc.E_ALPHA,), lc.E_BETA), "bracket left the subalgebra"),
        (lambda: _lifts(cls.H_T, md.AFFINE.base_flag), "no beta-lift"),
        (lambda: _lifts(lc.Subalgebra.of(_lifts(cls.H_T, md.BLOCK.base_flag)[:2]),
                        md.BLOCK.base_flag), "no transverse lift")], ids=["span", "beta", "open"])
    def test_inconsistent_data_is_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_lifts_that_are_not_adapted_leave_the_contact_plane(self, monkeypatch):
        # h-1's lifts with the beta and the transverse lift exchanged
        alpha, beta, transverse = _lifts(cls.H_1, cls.X1_FLAG)
        monkeypatch.setattr(cls, "_adapted_lifts", lambda *args: (alpha, transverse, beta))
        with pytest.raises(ArithmeticError, match="contact plane"):
            cls._transverse_forms(cls.H_1, cls.X1_FLAG)


def test_classification_suite_builds_few_fractions(monkeypatch):
    # the linear systems are built from integer numerators; the count
    # repeats exactly, so a return to Fraction rows fails here
    outcomes, built = fractions_built(monkeypatch, "classification")
    assert all(passed for passed, _ in outcomes)
    assert built <= 960


class TestFlatnessPredicate:
    def test_generic_pair_forces_flatness(self):
        assert cls.flatness_holonomy_predicate(1, -1)

    def test_resonant_boundaries(self):
        assert not cls.flatness_holonomy_predicate(1, -5)
        assert not cls.flatness_holonomy_predicate(-5, 1)

    def test_degenerate_origin(self):
        assert not cls.flatness_holonomy_predicate(0, 0)

    def test_scaling_invariance_of_the_resonances(self):
        rng = random.Random(71)
        for _ in range(50):
            c = rand_frac(rng)
            if c == 0:
                continue
            assert not cls.flatness_holonomy_predicate(c, -5 * c)
            assert not cls.flatness_holonomy_predicate(-5 * c, c)


class TestBracketTable:
    def test_antisymmetric_counterparts(self):
        assert lc.bracket(lc.E_0, lc.E_SUP_0) == -(lc.E_1 + lc.E_2)
        assert lc.bracket(lc.E_ALPHA, lc.E_SUP_0) == -lc.E_SUP_BETA
        assert lc.bracket(lc.E_BETA, lc.E_SUP_0) == lc.E_SUP_ALPHA
