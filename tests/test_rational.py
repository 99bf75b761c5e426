"""The fraction-free 3x3 routines against their textbook Fraction formulas,
and the rank-based span tests against solving for the coefficients.

Each oracle below is the plain formula over Fractions.  Inputs are drawn as
all ints, all Fractions, a mix of the two, or Fractions with denominator 1.
The routines must agree in value and keep the result type: ints for all-int
input, Fractions as soon as one entry is a Fraction, and always Fractions
from `inverse3` and `normalize_lead`, which divide.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagdyn import rational as R

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


def expected_type(*flats):
    return int if all(type(e) is int for f in flats for e in f) else Fraction


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


def mat_vec_oracle(a, v):
    return tuple(sum((Fraction(a[i][k]) * v[k] for k in range(3)), Fraction(0))
                 for i in range(3))


def vec_mat_oracle(v, a):
    return tuple(sum((Fraction(v[k]) * a[k][j] for k in range(3)), Fraction(0))
                 for j in range(3))


def minor(a, i, j):
    r = [k for k in range(3) if k != i]
    s = [k for k in range(3) if k != j]
    return Fraction(a[r[0]][s[0]]) * a[r[1]][s[1]] - Fraction(a[r[0]][s[1]]) * a[r[1]][s[0]]


def det3_oracle(a):
    return sum((Fraction(a[0][j]) * (-1) ** j * minor(a, 0, j) for j in range(3)),
               Fraction(0))


def adjugate3_oracle(a):
    return tuple(tuple((-1) ** (i + j) * minor(a, j, i) for j in range(3))
                 for i in range(3))


def normalize_lead_oracle(vec):
    lead = next(Fraction(e) for e in vec if e != 0)
    return tuple(Fraction(e) / lead for e in vec)


# ---------------------------------------------------------------------------
# one property per routine
# ---------------------------------------------------------------------------

@given(operands(9, 9))
def test_mat_mul(ops):
    a, b = ops
    assert_same(R.mat_mul(rows(a), rows(b)), mat_mul_oracle(rows(a), rows(b)),
                expected_type(a, b))


@given(operands(9, 3))
def test_mat_vec(ops):
    a, v = ops
    assert_same(R.mat_vec(rows(a), tuple(v)), mat_vec_oracle(rows(a), v),
                expected_type(a, v))


@given(operands(3, 9))
def test_vec_mat(ops):
    v, a = ops
    assert_same(R.vec_mat(tuple(v), rows(a)), vec_mat_oracle(v, rows(a)),
                expected_type(v, a))


@given(operands(9))
def test_det3(ops):
    (a,) = ops
    assert_same((R.det3(rows(a)),), (det3_oracle(rows(a)),), expected_type(a))


@given(operands(9))
def test_adjugate3(ops):
    (a,) = ops
    assert_same(R.adjugate3(rows(a)), adjugate3_oracle(rows(a)), expected_type(a))


@given(operands(9), st.booleans())
def test_inverse3(ops, singular):
    (a,) = ops
    if singular:
        a = a[:6] + [x + y for x, y in zip(a[0:3], a[3:6])]
    det = det3_oracle(rows(a))
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            R.inverse3(rows(a))
        return
    oracle = tuple(tuple(e / det for e in row) for row in adjugate3_oracle(rows(a)))
    assert_same(R.inverse3(rows(a)), oracle, Fraction)


@given(st.integers(min_value=1, max_value=9).flatmap(operands))
def test_normalize_lead(ops):
    (vec,) = ops
    if not any(vec):
        with pytest.raises(ValueError):
            R.normalize_lead(vec)
        return
    assert_same(R.normalize_lead(vec), normalize_lead_oracle(vec), Fraction)


# ---------------------------------------------------------------------------
# span tests against solving for the coefficients
# ---------------------------------------------------------------------------

def in_span_oracle(vectors, v):
    """Membership by solving for the coefficients: the vectors are the
    columns of the system, and the empty span holds only the zero vector."""
    if not vectors:
        return all(e == 0 for e in v)
    rows = [[Fraction(w[i]) for w in vectors] for i in range(len(v))]
    return R.solve(rows, v) is not None


def span_equal_oracle(vs, ws):
    return (R.rank(vs) == R.rank(ws)
            and all(in_span_oracle(vs, w) for w in ws)
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


@pytest.mark.parametrize("call", [
    lambda m: R.mat_mul(m, m), lambda m: R.mat_vec(m, m[0]),
    lambda m: R.vec_mat(m[0], m), R.det3, R.adjugate3, R.inverse3,
    lambda m: R.normalize_lead(m[0])])
def test_floats_are_rejected(call):
    m = rows([1.5, 0, 0, 0, 1, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        call(m)
