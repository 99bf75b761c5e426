"""The integer representations of the exact kernel against the textbook
Fraction formulas, and a guard against float leaks from their readers.

A `LieVec` is nine ints over one positive denominator, and a `GroupElem` is
the primitive integer matrix of its projective class.  Each property below
compares an operation with the plain formula over Fractions, kept here as
the oracle.  Inputs are drawn as all ints, all Fractions, a mix of the two,
or Fractions with denominator 1.

The guard feeds integer-entry group elements, flags and Lie algebra
elements to every reader that takes a ratio of entries or coordinates:
with int entries `a / b` is a float, so each must build a Fraction.

The value and report records of every layer, these representations
included, are `_Record`s and behave as frozen dataclasses: read-only,
equal and hashed by their fields within one type, and printed with their
field names; no other class defines that behaviour.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import curvature as curv
from flagdyn import dynamics as dyn
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn import rational as R
from flagdyn.checks import run_check
from flagdyn.rational import _Record
from references import adjugate3_oracle, det3_oracle
from test_rational import (
    fracs,
    ints,
    mat_mul_oracle,
    normalize_lead_oracle,
    operands,
    rows,
)


def frac(a):
    return [[Fraction(e) for e in row] for row in a]


def entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(r, s)] for r, s in zip(frac(a), frac(b))]


def as_rows(a):
    return tuple(tuple(row) for row in a)


def assert_canonical(v: lc.LieVec):
    """Nine ints over a positive int denominator, gcd-reduced."""
    assert type(v.den) is int and v.den > 0
    assert len(v.nums) == 9 and all(type(n) is int for n in v.nums)
    assert math.gcd(v.den, *v.nums) == 1


def assert_primitive(vec):
    assert all(type(n) is int for n in vec)
    assert math.gcd(*vec) == 1
    assert next(n for n in vec if n != 0) > 0


# ---------------------------------------------------------------------------
# LieVec
# ---------------------------------------------------------------------------

@given(operands(9, 9), st.one_of(ints, fracs))
def test_lievec_operations(ops, c):
    a, b = map(rows, ops)
    u, v = lc.LieVec.of(a), lc.LieVec.of(b)
    cases = [
        (u + v, entrywise(lambda x, y: x + y, a, b)),
        (u - v, entrywise(lambda x, y: x - y, a, b)),
        (-u, [[-x for x in row] for row in frac(a)]),
        (u.scale(c), [[c * x for x in row] for row in frac(a)]),
        (u @ v, mat_mul_oracle(a, b)),
        (u.transpose(), [list(col) for col in zip(*frac(a))]),
        (lc.theta_involution(u), [[-x for x in col] for col in zip(*frac(a))]),
        (lc.bracket(u, v),
         entrywise(lambda x, y: x - y, mat_mul_oracle(a, b), mat_mul_oracle(b, a))),
    ]
    for result, oracle in cases:
        assert_canonical(result)
        assert result.entries == as_rows(oracle)
        assert all(type(e) is Fraction for row in result.entries for e in row)
    # the trace, read off the ints
    trace = Fraction(u.nums[0] + u.nums[4] + u.nums[8], u.den)
    assert trace == sum(frac(a)[i][i] for i in range(3))


@given(operands(9, 9))
def test_conjugate(ops):
    g_rows, v_rows = map(rows, ops)
    d = det3_oracle(g_rows)
    assume(d != 0)
    g = lc.GroupElem(g_rows)
    # the drawn representative, not the stored one: conjugation is scale
    # invariant
    inverse = [[e / d for e in row] for row in adjugate3_oracle(g_rows)]
    oracle = mat_mul_oracle(mat_mul_oracle(g_rows, v_rows), inverse)
    result = lc.conjugate(g, lc.LieVec.of(v_rows))
    assert_canonical(result)
    assert result.entries == as_rows(oracle)


@given(operands(9), st.integers(min_value=2, max_value=6))
def test_equal_values_are_equal_whatever_the_input_types(ops, k):
    a = rows(ops[0])
    exact = frac(a)
    forms = [
        exact,
        # unreduced numerator and denominator pairs
        [[Fraction(x.numerator * k, x.denominator * k) for x in row] for row in exact],
        # ints wherever the value is integral, Fractions elsewhere
        [[x.numerator if x.denominator == 1 else x for x in row] for row in exact],
        # mixed, row by row
        [exact[0], [x.numerator if x.denominator == 1 else x for x in exact[1]], exact[2]],
    ]
    vs = [lc.LieVec.of(f) for f in forms]
    vs.append(lc.LieVec.of(a).scale(k).scale(Fraction(1, k)))
    vs.append(lc.LieVec.of(a) + lc.LieVec.zero())
    for v in vs:
        assert_canonical(v)
        assert v == vs[0] and hash(v) == hash(vs[0])


# ---------------------------------------------------------------------------
# GroupElem
# ---------------------------------------------------------------------------

@given(operands(9), st.one_of(ints, fracs).filter(bool))
def test_group_elem_stores_the_primitive_representative(ops, c):
    a = rows(ops[0])
    assume(det3_oracle(a) != 0)
    g = lc.GroupElem(a)
    assert_primitive(g.nums)
    assert normalize_lead_oracle(g.nums) == normalize_lead_oracle([e for row in a for e in row])
    assert lc.GroupElem([[c * e for e in row] for row in a]) == g
    assert g.adj == tuple(e for row in adjugate3_oracle(g.entries) for e in row)
    # the entries are a view: the rows of nums, ints only
    assert g.entries == rows(g.nums)
    assert all(type(e) is int for e in (*g.nums, *g.adj))
    assert g.inverse() == lc.GroupElem(adjugate3_oracle(a))


@given(operands(9))
def test_theta_group_is_the_inverse_transpose(ops):
    a = rows(ops[0])
    d = det3_oracle(a)
    assume(d != 0)
    # the textbook (g^T)^{-1} = adj(g^T) / det(g^T), with det(g^T) = det(g)
    oracle = [[e / d for e in row] for row in adjugate3_oracle([list(col) for col in zip(*a)])]
    flat = [e for row in lc.theta_group(lc.GroupElem(a)).entries for e in row]
    assert_primitive(flat)
    assert normalize_lead_oracle(flat) == normalize_lead_oracle([e for row in oracle for e in row])


# ---------------------------------------------------------------------------
# float-leak guard
# ---------------------------------------------------------------------------

def exact(value) -> bool:
    """True when every leaf of `value` is an int or a Fraction; a record
    is read as the tuple of its fields."""
    if isinstance(value, _Record):
        value = tuple(getattr(value, name) for name in value._fields)
    if isinstance(value, (tuple, list)):
        return all(map(exact, value))
    return type(value) in (int, Fraction)


def nonzero(rng):
    return rng.choice([-1, 1]) * rng.randint(2, 30)


def int_upper(rng) -> lc.GroupElem:
    return lc.GroupElem([[nonzero(rng), rng.randint(-30, 30), rng.randint(-30, 30)],
                         [0, nonzero(rng), rng.randint(-30, 30)],
                         [0, 0, nonzero(rng)]])


def int_interior_flag(rng) -> fs.Flag:
    """A flag from integer vectors, its point off the line at infinity and
    its line neither at infinity nor horizontal in the slope chart."""
    while True:
        try:
            x = fs.Flag.of([rng.randint(-30, 30) for _ in range(3)],
                           [rng.randint(-30, 30) for _ in range(3)])
        except ValueError:
            continue  # a zero or repeated point spans no line
        if x.point[2] != 0 and x.line[0] != 0:
            return x


def test_readers_of_integer_entries_stay_exact():
    rng = random.Random(17)
    models_seen = set()
    for _ in range(50):
        p = int_upper(rng)
        assert all(type(e) is int for row in p.entries for e in row)
        assert exact(lc.quotient_adjoint(p))
        assert exact((curv.alpha_scale(p), curv.beta_scale(p)))
        assert exact(md.equivariance_a(p))
        # a block element whose block determinant is a square: k^2 det(s)
        # with det(s) = 1, so the factorization stays exact
        k, corner = nonzero(rng), nonzero(rng)
        s = rng.choice([((2, 1), (1, 1)), ((1, 3), (0, 1)), ((5, 2), (2, 1))])
        block = lc.GroupElem([[k * s[0][0], k * s[0][1], 0],
                              [k * s[1][0], k * s[1][1], 0],
                              [0, 0, corner]])
        assert exact(md.equivariance_t(block))
        x = int_interior_flag(rng)
        v = lc.LieVec.of([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        assert exact(fs.affine_chart(x))
        assert exact(fs.fundamental_vector(v, x))
        assert exact(fs._tangent_ints(v, x))
        for model in md.MODELS:
            if fs.region_classify(x, model.special_point) is fs.Region.INTERIOR:
                assert exact(md.frame_at(x, model))
                assert exact(md.transporter(x, model).entries)
                models_seen.add(model)
    assert models_seen == set(md.MODELS)
    # the check builds its display from the integer entries of its draws:
    # a float ratio would miss the exact closed form
    for seed in range(3):
        assert run_check("quotient-adjoint-display", seed=seed) == (True, None)


# ---------------------------------------------------------------------------
# read-only records
# ---------------------------------------------------------------------------

# each record type with its fields in order and a sample value, built from
# the fields or, for a type in BUILT_FROM, from the arguments there
RECORDS = {
    cls.TransverseLineResult: {"kind": "unique", "generator": md.SL2_H, "family_dim": 0},
    cls.DegenerationCase: {"model": md.AFFINE, "boundary_flag": md.AFFINE.base_flag,
                           "pivot": lc.GroupElem([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                           "circle": md.HEIS_Z, "along": md.HEIS_X, "expected": (),
                           "limit": "alpha"},
    cls.IsotropyCase: {"algebra": cls.H_2, "base_flag": md.AFFINE.base_flag, "iso_a": md.HEIS_Z,
                       "iso_b": lc.LieVec.zero(), "lifts": (md.HEIS_X,)},
    cls.DegenerationResult: {"t": Fraction(1, 2), "matrix": ((1, 0, 0),), "matches": True,
                             "limit": "beta", "sine_distance": 0.25},
    curv.NormalCurvature: {"nums": (1, -1, 0, 3), "den": 4},
    dyn.NilMap: {"linear": ((2, 1), (1, 1)), "translation": (0.5, 0.0, 0.0)},
    dyn.RateEstimate: {"measured": 0.96, "exact": 0.9624},
    fs.Flag: {"point": (1, 0, 0), "line": (0, 0, 1)},
    lc.GroupElem: {"nums": (1, 2, 0, 0, 1, 0, 0, 0, 1), "adj": (1, -2, 0, 0, 1, 0, 0, 0, 1)},
    lc.LieVec: {"nums": (1, 0, 0, 0, -1, 0, 0, 0, 0), "den": 2},
    lc.Subalgebra: {"basis": (md.HEIS_X, md.HEIS_Y)},
    md.AffineMap: {"nums": (2, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0), "den": 2},
    md.Block: {"nums": (1, -1, 0, 3), "den": 4},  # the fields of NormalCurvature's
    md.HeisAuto: {"nums": (2, 3), "den": 1},
    md.HeisElem: {"nums": (1, 2, 3), "den": 5},
    md.Model: {"name": "t", "base_flag": fs.Flag((1, 0, 1), (0, 1, 0)), "special_point": (0, 0, 1),
               "frame": (md.SL2_E, md.SL2_F, md.SL2_H)},
    R.Poly: {"terms": (((), 5), ((0, 1), -1), ((2,), 3))},
}
# a group element takes the rows of any matrix of its class, not its fields
BUILT_FROM = {lc.GroupElem: ([[2, 4, 0], [0, 2, 0], [0, 0, 2]],)}


def sample(record_type):
    return record_type(*BUILT_FROM.get(record_type, RECORDS[record_type].values()))


def test_every_record_type_is_in_the_table():
    # a new record type gets the checks below; the private bases are not
    # record types of their own
    defined = {value for module in (checks, cls, curv, dyn, fs, lc, md, R)
               for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, _Record)
               and value.__module__ == module.__name__ and not name.startswith("_")}
    assert defined == set(RECORDS)


def test_a_record_refuses_the_wrong_fields():
    # too few fields, too many, and an unknown keyword
    for args, kwargs in ((0.5,), {}), ((0.5, 0.5, 1), {}), ((0.5,), {"exact": 1, "bound": 1}):
        with pytest.raises(TypeError, match="takes the fields measured, exact"):
            dyn.RateEstimate(*args, **kwargs)


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_records_are_read_only_values(record_type):
    fields = RECORDS[record_type]
    record = sample(record_type)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    same = sample(record_type) if record_type in BUILT_FROM else record_type(**fields)
    assert same == record and hash(same) == hash(record)
    assert record != tuple(fields.values())
    # a record of another type with the same fields and values
    twin = type("Twin", (_Record,), {"__slots__": tuple(fields)})(*fields.values())
    assert record != twin and twin != record
    assert all(record != sample(other) for other in RECORDS if other is not record_type)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{record_type.__name__}({body})"


def test_module_constants_are_read_only():
    # a module-level value is shared by every later reader
    for value in (lc.E_0, md.HEIS_Z, checks._UPPER, md.BLOCK, md.AFFINE, md.AFFINE.base_flag,
                  *md.CHART,
                  cls.H_T, cls.H_A, cls.H_1, cls.H_2, cls.S_0, cls.SO3, cls.SO12,
                  cls.HEIS_ALGEBRA, md.HEIS_IDENTITY, md.AUTO_IDENTITY, md.AFFINE_IDENTITY,
                  curv.ZERO_CURVATURE, *cls.H_T.basis):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_one_class_holds_the_value_semantics():
    # no class in src but _Record defines equality, hashing or assignment
    src = Path(lc.__file__).resolve().parent
    defining = {(path.stem, node.name) for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef)
                        and f.name in {"__eq__", "__hash__", "__setattr__", "__delattr__"}
                        for f in node.body)}
    assert defining == {("rational", "_Record")}


def test_one_class_writes_the_fields():
    # only _Record reaches a field's slot, through object.__setattr__ or a
    # slot's __set__; the other classes store through the setters it binds
    def writes(tree):
        return [n for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr in {"__setattr__", "__set__"}]

    src = Path(lc.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    [record] = [node for node in trees["rational"].body
                if isinstance(node, ast.ClassDef) and node.name == "_Record"]
    inside = writes(record)
    outside = [(module, n.lineno) for module, tree in trees.items()
               for n in writes(tree) if n not in inside]
    assert inside and outside == []
