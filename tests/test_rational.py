"""The integer 3x3 cores against their textbook Fraction formulas, the
primitive integer representative against the lead-1 one, the rank-based
span tests against solving for the coefficients with sympy, and the integer
rank, nullspace and solve, which share one elimination, against sympy's.

Each oracle is the plain formula over Fractions: the matrix-vector
product, determinant and adjugate are in `references`, beside the other
routines only tests call.
The integer cores take ints and give ints.  Inputs to the routines that
take ints and Fractions are drawn as all ints, all Fractions, a mix of the
two, or Fractions with denominator 1; they must agree in value whatever the
input kinds.  The cores trust their input, so the public constructors of
the exact kernel, and each path that clears its input, are the guard
against floats: each raises TypeError on one.
"""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdyn import curvature as curv
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn import rational as R
from references import adjugate3_oracle, affine_map, det3_oracle, mat_vec_oracle

ints = st.integers(min_value=-99, max_value=99)
fracs = st.builds(Fraction, ints, st.integers(min_value=1, max_value=60))
ENTRIES = {
    "int": ints,
    "fraction": fracs,
    "mixed": st.one_of(ints, fracs),
    "denominator-1": ints.map(Fraction),
}


@st.composite
def operands(draw, *sizes):
    """Flat operands of the given sizes, their entries of one drawn kind."""
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    return [draw(st.lists(entries, min_size=n, max_size=n)) for n in sizes]


def rows(flat):
    return tuple(tuple(flat[i:i + 3]) for i in (0, 3, 6))


def assert_same(result, oracle, kind):
    assert result == oracle
    flat = [e for row in result for e in row] if isinstance(result[0], tuple) else result
    assert all(type(e) is kind for e in flat), [type(e) for e in flat]


# ---------------------------------------------------------------------------
# textbook oracles
# ---------------------------------------------------------------------------

def mat_mul_oracle(a, b):
    return tuple(tuple(sum((Fraction(a[i][k]) * b[k][j] for k in range(3)), Fraction(0))
                       for j in range(3)) for i in range(3))


def vec_mat_oracle(v, a):
    return tuple(sum((Fraction(v[k]) * a[k][j] for k in range(3)), Fraction(0))
                 for j in range(3))


def sym(rows):
    """The sympy matrix of rows of ints and Fractions."""
    return sp.Matrix([[sp.Rational(e.numerator, e.denominator) for e in row] for row in rows])


def normalize_lead_oracle(vec):
    lead = next(Fraction(e) for e in vec if e != 0)
    return tuple(Fraction(e) / lead for e in vec)


# ---------------------------------------------------------------------------
# one property per routine
# ---------------------------------------------------------------------------

@given(st.lists(ints, min_size=9, max_size=9), st.lists(ints, min_size=9, max_size=9))
def test_mat_mul(a, b):
    oracle = tuple(e for row in mat_mul_oracle(rows(a), rows(b)) for e in row)
    assert_same(tuple(R._mul_ints(a, b)), oracle, int)


@given(st.lists(ints, min_size=9, max_size=9), st.lists(ints, min_size=3, max_size=3))
def test_mat_vec(a, v):
    # a flat matrix times v: the dot products with its rows
    assert_same(tuple(R._mat_vec_ints(a, v)), mat_vec_oracle(rows(a), v), int)


@given(st.lists(ints, min_size=3, max_size=3), st.lists(ints, min_size=9, max_size=9))
def test_vec_mat(v, a):
    # v times a flat matrix: the dot products with its columns
    assert_same(tuple(R._vec_mat_ints(v, a)), vec_mat_oracle(v, rows(a)), int)


@given(st.lists(ints, min_size=9, max_size=9))
def test_det3(a):
    assert_same((R._det_ints(a),), (det3_oracle(rows(a)),), int)


@given(operands(9, 9))
def test_mat_sub(ops):
    # differences run on the integer form of LieVec
    a, b = ops
    oracle = tuple(tuple(Fraction(x) - y for x, y in zip(r, s)) for r, s in zip(rows(a), rows(b)))
    assert_same((lc.LieVec.of(rows(a)) - lc.LieVec.of(rows(b))).entries, oracle, Fraction)


@given(st.lists(ints, min_size=9, max_size=9))
def test_adjugate3(a):
    # GroupElem takes the adjugate of its integer entries with this core
    oracle = tuple(e for row in adjugate3_oracle(rows(a)) for e in row)
    assert_same(tuple(R._adjugate_ints(a)), oracle, int)


@given(st.integers(min_value=1, max_value=9).flatmap(operands),
       st.one_of(ints, fracs).filter(bool))
def test_normalize_lead(ops, c):
    # primitive is the one normalization: every vector of a class, the
    # lead-1 one included, gives the same representative
    (vec,) = ops
    assume(any(vec))
    prim = R.primitive(vec)
    assert R.primitive([c * e for e in vec]) == prim
    assert R.primitive(normalize_lead_oracle(vec)) == prim


@given(st.integers(min_value=1, max_value=9).flatmap(operands))
def test_primitive(ops):
    (vec,) = ops
    if not any(vec):
        with pytest.raises(ValueError):
            R.primitive(vec)
        return
    prim = R.primitive(vec)
    assert all(type(n) is int for n in prim)
    assert math.gcd(*prim) == 1
    assert next(n for n in prim if n != 0) > 0
    # the same projective class
    assert normalize_lead_oracle(prim) == normalize_lead_oracle(vec)


# ---------------------------------------------------------------------------
# span tests against solving for the coefficients
# ---------------------------------------------------------------------------

def in_span_oracle(vectors, v):
    """Membership by solving for the coefficients with sympy: the vectors
    are the columns of the system, and the empty span holds only the zero
    vector."""
    if not vectors:
        return all(e == 0 for e in v)
    try:
        sym(vectors).T.gauss_jordan_solve(sym([v]).T)
    except ValueError:
        return False
    return True


def span_equal_oracle(vs, ws):
    return (all(in_span_oracle(vs, w) for w in ws)
            and all(in_span_oracle(ws, v) for v in vs))


@st.composite
def spans(draw):
    """Two vector sets and a probe vector, all of one length.  Some vectors
    are integer combinations of earlier ones (the empty combination is the
    zero vector), so dependent sets and shared spans come up often; either
    set may be empty."""
    width = draw(st.integers(min_value=1, max_value=4))
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    fresh = []

    def vector():
        if fresh and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(fresh), max_size=3))
            coefs = [draw(st.integers(min_value=-2, max_value=2)) for _ in picks]
            return [sum((c * p[k] for c, p in zip(coefs, picks)), 0) for k in range(width)]
        fresh.append(draw(st.lists(entries, min_size=width, max_size=width)))
        return fresh[-1]

    vs = [vector() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    ws = [vector() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return vs, ws, vector()


@given(spans())
def test_in_span(case):
    vs, ws, v = case
    assert R.in_span(vs, v) == in_span_oracle(vs, v)
    assert R.in_span(ws, v) == in_span_oracle(ws, v)


@given(spans())
def test_span_equal(case):
    vs, ws, v = case
    assert R.span_equal(vs, ws) == span_equal_oracle(vs, ws)
    assert R.span_equal(vs, [*vs, v]) == span_equal_oracle(vs, [*vs, v])


# ---------------------------------------------------------------------------
# rank, nullspace and solve against sympy
# ---------------------------------------------------------------------------

@st.composite
def matrices(draw):
    """Up to 10 rows of up to 9 entries, of one drawn kind; each row is fresh,
    zero, a repeat of an earlier row, or a combination of two earlier rows."""
    width = draw(st.integers(min_value=1, max_value=9))
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([0] * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.one_of(ints, fracs))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=width, max_size=width)))
    return rows


@given(matrices())
def test_rank(rows):
    assert R.rank(rows) == (sym(rows).rank() if rows else 0)


@given(matrices())
def test_nullspace(rows):
    # sympy's basis is the canonical one too: each vector is 1 at its free
    # column and 0 at the other free columns
    basis = R.nullspace(rows)
    assert all(type(e) is Fraction for v in basis for e in v)
    assert [sym([v]) for v in basis] == ([v.T for v in sym(rows).nullspace()] if rows else [])


@given(matrices(), st.booleans(), st.data())
def test_solve(rows, consistent, data):
    """A right-hand side in the column space, or a fresh one, which is
    often inconsistent.  The oracle sets sympy's free parameters to 0."""
    width = len(rows[0]) if rows else 0
    if consistent:
        x = data.draw(st.lists(st.one_of(ints, fracs), min_size=width, max_size=width))
        rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(st.one_of(ints, fracs), min_size=len(rows), max_size=len(rows)))
    sol = R.solve(rows, rhs)
    if not rows:
        assert sol == []
        return
    try:
        oracle, params = sym(rows).gauss_jordan_solve(sym([rhs]).T)
    except ValueError:
        assert sol is None
        return
    assert all(type(e) is Fraction for e in sol)
    assert sym([sol]) == oracle.subs({p: 0 for p in params}).T


@pytest.mark.parametrize("length", [2, 3, 4, 9, 12])
@pytest.mark.parametrize("g", [1, 3, -1, -6])
def test_divided(length, g):
    # the written-out lengths 3 and 9 and the loop for the others: each
    # entry an exact int quotient, negative divisors too
    nums = [g * (7 * k - 20) for k in range(length)]
    out = R._divided(nums, g)
    assert type(out) is tuple and all(type(e) is int for e in out)
    assert out == tuple(Fraction(n, g) for n in nums)


# ---------------------------------------------------------------------------
# the integer polynomial ring against sympy
# ---------------------------------------------------------------------------

SYMS = sp.symbols("x y z")
# up to four terms in x, y and z, each exponent tuple with no trailing zero
exponents = st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(
    lambda e: tuple(e[:max([k + 1 for k, n in enumerate(e) if n], default=0)]))
polys = st.dictionaries(exponents, st.integers(min_value=-9, max_value=9), max_size=4).map(R.Poly)


def sym_poly(p):
    return sp.Add(*[c * sp.Mul(*[s ** k for s, k in zip(SYMS, e)]) for e, c in p.terms])


def canonical(p):
    exps = [e for e, _ in p.terms]
    return exps == sorted(set(exps)) and all(c and (not e or e[-1]) for e, c in p.terms)


@settings(max_examples=25)
@given(polys, polys, st.integers(min_value=-9, max_value=9))
def test_ring_operations(p, q, n):
    # every result canonical, so equal polynomials are equal records
    a, b = sym_poly(p), sym_poly(q)
    for result, expected in ((p + q, a + b), (p - q, a - b), (p * q, a * b), (-p, -a),
                             (p + n, a + n), (n + p, a + n), (n - p, n - a), (p - n, a - n),
                             (p * n, a * n), (n * p, a * n)):
        assert canonical(result)
        assert sp.expand(sym_poly(result) - expected) == 0
    assert (p + q == q + p) and (p * q == q * p) and (p - p == R.Poly(()))


@settings(max_examples=25)
@given(polys)
def test_ring_partial_derivative(p):
    for k, s in enumerate(SYMS):
        assert canonical(p.diff(k))
        assert sp.expand(sym_poly(p.diff(k)) - sp.diff(sym_poly(p), s)) == 0


@settings(max_examples=25)
@given(st.lists(polys, min_size=1, max_size=3), st.lists(ints, min_size=3, max_size=3),
       st.integers(min_value=1, max_value=60))
def test_ring_evaluation(ps, nums, den):
    # each value times den^D, D the largest degree among the Polys
    degree = max([sum(e) for p in ps for e, _ in p.terms], default=0)
    at = {s: sp.Rational(n, den) for s, n in zip(SYMS, nums)}
    values = R._values_ints(ps, nums, den)
    assert all(type(v) is int for v in values)
    assert values == [sym_poly(p).subs(at) * den ** degree for p in ps]


def test_ring_takes_ints_only():
    x = R.Poly({(1,): 1})
    for call in (lambda: x + 1.5, lambda: 1.5 - x, lambda: x * Fraction(1, 2),
                 lambda: R.Poly.of(0.0)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("call", [
    # the tests' AffineMap constructor clears its entries through `_cleared`
    lambda m: affine_map(m, (0, 0, 0)),
    lambda m: affine_map(rows([1, 0, 0, 0, 1, 0, 0, 0, 1]), m[0]),
    # the polynomial ring takes ints only, and a ring field's entries enter
    # it through Poly.of (ids kept from the 3x3 Fraction routines these
    # entries replaced)
    pytest.param(lambda m: curv.field_bracket(((m[0][0], 0, 0), 1), ((0, 1, 0), 1)), id="det3"),
    # the adjugate is taken inside GroupElem, whose constructor guards it
    pytest.param(lc.GroupElem, id="adjugate3"),
    # primitive is the one projective normalization
    pytest.param(lambda m: R.primitive(m[0]), id="primitive"),
    pytest.param(lambda m: md.CHART[0] * m[0][0], id="mat_sub"),
    # Flag.of normalizes a point, alpha_circle_flag a line from its pencil
    # coefficients (ids kept from the point and line classes these entries
    # replaced)
    pytest.param(lambda m: fs.Flag.of(m[0], (0, 0, 1)), id="ProjPoint.of"),
    pytest.param(lambda m: fs.alpha_circle_flag(fs.BASE_FLAG, m[0][0], 1), id="ProjLine.of"),
    pytest.param(lc.LieVec.of, id="LieVec.of"),
    pytest.param(lambda m: lc.LieVec.zero().scale(m[0][0]), id="LieVec.scale"),
    # rank, nullspace and solve clear their rows once
    pytest.param(R.rank, id="rank"),
    pytest.param(R.nullspace, id="nullspace"),
    pytest.param(lambda m: R.solve(m, [0, 0, 0]), id="solve"),
    # the chart inverse clears its point and direction once
    pytest.param(lambda m: fs.affine_chart_inverse(m[0][:2], (1, 0)),
                 id="affine_chart_inverse"),
    # the block element clears its scale once
    pytest.param(lambda m: md.equivariance_t_inverse(md.Block((1, 0, 0, 1)), m[0][0]),
                 id="equivariance_t_inverse")])
def test_floats_are_rejected(call):
    m = rows([1.5, 0, 0, 0, 1, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        call(m)
