"""Registered verification checks: the one oracle for every identity the
library verifies.

`@check(id, suite, anchor, samples=None, fixed=None, worst=None)` registers
a body `fn(rng)` under a stable id, its suite, and an anchor string quoting
the identity or table it verifies.  One call of the body is one draw, and
returns a bool, None (the draw tested nothing) or (passed, residual).  A
`_REGISTRY` entry is (id, suite, anchor, runner), the runner `partial(_run,
body, samples, fixed, worst)`.  `_run` runs every body alike: K draws for
samples=K, or the count asked for; one call for a fact, samples=None,
whatever the count.  The `fixed` predicate checks anchor values once before
the draws.  The first failing draw stops the check with its residual.  A
passing fact reports its own residual; a passing sampled check folds the
residuals of its draws with `worst` (max or min), or reports None.  A check
that tested nothing fails: every draw returned None, or it was asked for
fewer than one sample.
`flagdyn verify` prints what `run_checks` returns, the report's cases
{"id", "anchor", "pass", "residual"}; the tests run each entry once at seed
0 and default samples, and more only through `run_check` at their own seed
and count, never a copy of a sampled body; example tests state some checks'
fixed values, so that a failure prints the value that changed.  The random
generators the tests share with the checks live here too.

Each check draws from its own stream, `check_rng(seed, id)`, so the checks
are independent, and `run_checks` spreads them over one process per CPU the
process may use, through `workers.split`, the one fork helper.  The split
is static: check `id` runs on worker `crc32(id) % W`, the calling process
being worker 0 and each other worker a forked child.  Every case, the
caller's too, is one JSON line that the caller parses.  A static split
makes the caller's share a function of the ids alone, so a profile of the
caller repeats exactly run to run; the digest, unlike the position, keeps a
check on its worker when checks are added, and unlike `hash()` it is not
salted per process.  The cases do not depend on the CPU count: `split`
redoes a failed worker's share in the caller.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import chain, combinations

from . import classification as cls
from . import curvature as curv
from . import dynamics as dyn
from . import flag_space as fs
from . import lie_core as lc
from . import models as md
from .rational import (Poly, _adjugate_ints, _cleared, _mat_vec_ints, _mul_ints, _primitive_ints,
                       dot, in_span, rank)
from .workers import cpus, split


_REGISTRY = []


def check(check_id: str, suite: str, anchor: str, samples: int | None = None,
          fixed=None, worst=None):
    """Register a body as the module docstring describes."""
    def wrap(body):
        _REGISTRY.append((check_id, suite, anchor, partial(_run, body, samples, fixed, worst)))
        return body
    return wrap


def _run(body, default, fixed, worst, rng, samples):
    """(passed, residual) of `body` drawn from `rng`, samples=None asking
    for the default count."""
    if fixed is not None and not fixed():
        return False, None
    count = 1 if default is None else (default if samples is None else samples)
    residuals = []  # one per draw that tested something
    for _ in range(count):
        out = body(rng)
        if out is None:
            continue
        passed, residual = out if isinstance(out, tuple) else (out, None)
        if not passed:
            return False, residual
        residuals.append(residual)
    if not residuals:
        return False, None
    if default is None:  # a fact reports its own residual
        return True, residuals[0]
    return True, worst(residuals) if worst else None


def suites():
    return sorted({suite for _, suite, _, _ in _REGISTRY})


def check_rng(seed: int, check_id: str) -> random.Random:
    """The random stream of one check: depends on the seed and the id only,
    so a check reproduces alone or inside any suite."""
    return random.Random(f"{seed}:{check_id}")


def run_check(check_id: str, seed: int = 0, samples: int | None = None):
    """(passed, residual) of one registered check at `seed`; an exception
    the check raises propagates.  Fewer than one sample tests nothing, so
    it fails without running the check."""
    for cid, _, _, fn in _REGISTRY:
        if cid == check_id:
            if samples is not None and samples < 1:
                return False, None
            passed, residual = fn(check_rng(seed, check_id), samples)
            return bool(passed), None if residual is None else float(residual)
    raise KeyError(f"unknown check {check_id!r}")


def run_checks(suite=None, seed: int = 0, samples: int | None = None):
    """Run registered checks (optionally one suite), deterministically in
    the seed.  Returns the report's cases {"id", "anchor", "pass",
    "residual"}, sorted by id.  The checks are split over W = min(CPUs this
    process may use, checks) processes by the CRC-32 of their ids, as the
    module docstring describes; on one CPU, or without `os.fork`, the caller
    runs them all.  Each case is one JSON line, whichever process ran it;
    JSON floats round-trip exactly.  A check that raises fails."""
    known = suites()
    if suite is not None and suite not in known:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(known)}")
    entries = sorted(e for e in _REGISTRY if suite is None or e[1] == suite)
    workers = max(1, min(cpus(), len(entries)))
    shares = [[] for _ in range(workers)]
    for entry in entries:
        shares[zlib.crc32(entry[0].encode()) % workers].append(entry)

    def work(share):
        for check_id, _, anchor, _ in share:
            try:
                passed, residual = run_check(check_id, seed, samples)
            except Exception:
                passed, residual = False, None
            yield json.dumps({"id": check_id, "anchor": anchor, "pass": passed,
                              "residual": residual}) + "\n"

    with split(shares, work) as text:
        lines = "".join(text).splitlines()
    return sorted(map(json.loads, lines), key=lambda c: c["id"])


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

# 2520 = lcm(1..9), a multiple of every rand_frac denominator; at [p][q] the
# numerator over it of the draw (p - 9) / (q + 1), for the raw bits p < 19
# and q < 9 of its two randint draws
_DEN = 2520
_DRAWS = tuple(tuple((p - 9) * (_DEN // (q + 1)) for q in range(9)) for p in range(19))


def _rand_ints(rng, count: int, nonzero=()):
    """`count` rand_frac draws p / q as ints over 2520: rng.randint(-9, 9),
    then rng.randint(1, 9), each as CPython's randint over n values draws it
    (getrandbits(n.bit_length()), redrawn while it is n or more).  A draw
    at a position in `nonzero` is redrawn, both parts, until p != 0."""
    bits, draws = rng.getrandbits, _DRAWS
    nums = []
    for k in range(count):
        while True:
            p = bits(5)
            while p >= 19:
                p = bits(5)
            q = bits(4)
            while q >= 9:
                q = bits(4)
            if p != 9 or k not in nonzero:
                break
        nums.append(draws[p][q])
    return nums


def rand_frac(rng) -> Fraction:
    return Fraction(_rand_ints(rng, 1)[0], _DEN)


def nonzero_frac(rng) -> Fraction:
    return Fraction(_rand_ints(rng, 1, (0,))[0], _DEN)


def rand_lievec(rng) -> lc.LieVec:
    return lc.LieVec(_rand_ints(rng, 9), _DEN)


def rand_traceless(rng) -> lc.LieVec:
    """v - (tr v / 3) I for v = rand_lievec(rng): (3 nums - t I) / (3 den),
    with t the trace of nums."""
    nums = _rand_ints(rng, 9)
    t = nums[0] + nums[4] + nums[8]
    return lc.LieVec([3 * n - t * (k in (0, 4, 8)) for k, n in enumerate(nums)], 3 * _DEN)


def rand_curvature(rng) -> curv.NormalCurvature:
    """The components from four rand_frac draws, in order."""
    return curv.NormalCurvature(_rand_ints(rng, 4), _DEN)


def rand_group(rng) -> lc.GroupElem:
    while True:
        try:
            return lc.GroupElem._of_ints(_rand_ints(rng, 9))
        except ValueError:
            continue


def rand_upper(rng) -> lc.GroupElem:
    """Upper triangular with nonzero diagonal: six draws in row order."""
    a, b, c, d, e, f = _rand_ints(rng, 6, (0, 3, 5))
    return lc.GroupElem._of_ints((a, b, c, 0, d, e, 0, 0, f))


def rand_stabilizer(rng, model: md.Model) -> lc.GroupElem:
    """A diagonal stabilizer of the model's base flag: diag(1, d, 1) from one
    nonzero_frac draw in BLOCK, diag(d1, d2, d3) from three in AFFINE."""
    d = ((_DEN, *_rand_ints(rng, 1, (0,)), _DEN) if model is md.BLOCK
         else _rand_ints(rng, 3, (0, 1, 2)))
    return lc.GroupElem._of_ints((d[0], 0, 0, 0, d[1], 0, 0, 0, d[2]))


def rand_flag(rng) -> fs.Flag:
    while True:
        try:
            nums = _rand_ints(rng, 6)
            m = _primitive_ints(nums[:3])
            return fs.Flag(m, fs.meet(m, _primitive_ints(nums[3:])))
        except ValueError:
            continue


def rand_interior_flag(rng, model: md.Model) -> fs.Flag:
    """The flag at chart coordinates (x, y, z) = three rand_frac draws, drawn
    again until it is interior to `model`."""
    while True:
        x, y, z = _rand_ints(rng, 3)
        flag = fs._chart_flag(x, y, _DEN, z, _DEN)
        if fs.region_classify(flag, model.special_point) is fs.Region.INTERIOR:
            return flag


def rand_sl2(rng) -> md.Block:
    """[[a, b], [c, (1 + b c) / a]] from three rand_frac draws with a != 0."""
    while True:
        a, b, c = _rand_ints(rng, 3)
        if a:
            # (a, b, c) / d and (1 + b c / d^2) / (a / d) over a d, d = 2520
            return md.Block((a * a, a * b, a * c, _DEN * _DEN + b * c), a * _DEN)


def rand_heis(rng) -> md.HeisElem:
    return md.HeisElem(_rand_ints(rng, 3), _DEN)


def rand_auto(rng) -> md.HeisAuto:
    return md.HeisAuto(_rand_ints(rng, 2, (0, 1)), _DEN)


# ---------------------------------------------------------------------------
# lie-core suite
# ---------------------------------------------------------------------------

@check("bracket-heis-generators", "lie-core", "[X, Y] = Z")
def _check_heis_bracket(rng):
    return lc.bracket(md.HEIS_X, md.HEIS_Y) == md.HEIS_Z


@check("bracket-sl2-generators", "lie-core", "[E, F] = H")
def _check_sl2_bracket(rng):
    return lc.bracket(md.SL2_E, md.SL2_F) == md.SL2_H


@check("bracket-antisymmetry-jacobi", "lie-core",
       "[u,v] = -[v,u] and Jacobi, exact on random rational triples", samples=200)
def _check_antisym_jacobi(rng):
    u, v, w = (rand_lievec(rng) for _ in range(3))
    uv = lc.bracket(u, v)
    if uv != -lc.bracket(v, u):
        return False
    return (lc.bracket(u, lc.bracket(v, w)) + lc.bracket(v, lc.bracket(w, u))
            + lc.bracket(w, uv)).is_zero()


@check("grading-pure-components", "lie-core",
       "corner generator is pure grade -2; traceless diagonal is pure grade 0")
def _check_grading_pure(rng):
    for v, grade in ((lc.E_0, -2), (lc.LieVec.diag(1, -1, 0), 0)):
        parts = lc.grade_decompose(v)
        if parts[grade] != v or any(not p.is_zero() for k, p in parts.items() if k != grade):
            return False
    return True


@check("grading-bracket-additivity", "lie-core",
       "bracket of grade-i and grade-j parts is pure grade i+j, all basis pairs")
def _check_grading_additivity(rng):
    grades = [next(k for k, p in lc.grade_decompose(u).items() if not p.is_zero())
              for u in lc.BASIS]
    for u, gu in zip(lc.BASIS, grades):
        for v, gv in zip(lc.BASIS, grades):
            br = lc.bracket(u, v)
            if br.is_zero():
                continue
            parts = lc.grade_decompose(br)
            if any(not parts[k].is_zero() for k in parts if k != gu + gv):
                return False
    return True


@check("filtration-property", "lie-core",
       "[filtration^i, filtration^j] inside filtration^{i+j}, all basis pairs")
def _check_filtration(rng):
    def filt_level(v):
        parts = lc.grade_decompose(v)
        return min((k for k in parts if not parts[k].is_zero()), default=3)

    levels = [filt_level(u) for u in lc.BASIS]
    for u, lu in zip(lc.BASIS, levels):
        for v, lv in zip(lc.BASIS, levels):
            br = lc.bracket(u, v)
            if not br.is_zero() and filt_level(br) < lu + lv:
                return False
    return True


@check("quotient-adjoint-display", "lie-core",
       "induced adjoint matrix [[a b^2, 0, -b^2 x], [0, a^-2 b^-1, a^-1 y], [0, 0, a^-1 b]]",
       samples=1000)
def _check_qadj_display(rng):
    p = rand_upper(rng)
    (d1, p12, _), (_, d2, p23), (_, _, d3) = p.entries
    # the displayed entries as (numerator, denominator), row by row
    expected = ((d3, d2), (0, 1), (-(d3 * p12), d1 * d2),
                (0, 1), (d2, d1), (p23, d1),
                (0, 1), (0, 1), (d3, d1))
    nums, den = lc._quotient_adjoint_ints(p)
    return all(n * q == m * den for n, (m, q) in zip(nums, expected))


# upper triangular, with its quotient adjoint nonzero at all five free entries
_UPPER = lc.GroupElem([[2, 3, 5], [0, -7, 11], [0, 0, 13]])


@check("quotient-adjoint-bruteforce", "lie-core",
       "closed form equals generic conjugate-and-project computation", samples=1000,
       fixed=lambda: lc.quotient_adjoint(_UPPER) == lc.quotient_adjoint_bruteforce(_UPPER))
def _check_qadj_brute(rng):
    p = rand_upper(rng)
    nums, den = lc._quotient_adjoint_ints(p)
    for j, gen in enumerate((lc.E_ALPHA, lc.E_BETA, lc.E_0)):
        # column j is the image's class modulo the upper-triangular
        # matrices: its entries (2, 1), (1, 0), (2, 0)
        image = lc.conjugate(p, gen)
        if [n * image.den for n in nums[j::3]] != [image.nums[k] * den for k in (7, 3, 6)]:
            return False
    return True


@check("quotient-adjoint-morphism", "lie-core",
       "induced adjoint of a product is the product of induced adjoints", samples=200)
def _check_qadj_morphism(rng):
    p, q = rand_upper(rng), rand_upper(rng)
    qa_pq, qa_p, qa_q = (lc.LieVec(*lc._quotient_adjoint_ints(g)) for g in (p @ q, p, q))
    return qa_pq == qa_p @ qa_q


@check("centralizer-block-sl2", "lie-core", "Cent(block sl2) = span{diag(1,1,-2)}")
def _check_centralizer_s0(rng):
    cent = lc.centralizer(cls.S_0)
    return cent.dim == 1 and cent.contains(cls.CENTRAL_LINE)


@check("centralizer-so3-so12", "lie-core", "Cent(so3) = Cent(so(1,2)) = 0")
def _check_centralizer_so(rng):
    return lc.centralizer(cls.SO3).dim == 0 and lc.centralizer(cls.SO12).dim == 0


@check("centralizer-full", "lie-core", "center of the simple algebra is 0")
def _check_centralizer_full(rng):
    return lc.centralizer(lc.Subalgebra.of(list(lc.BASIS))).dim == 0


@check("subalgebra-recognizer", "lie-core",
       "closure accepts the classified list, rejects a corrupted basis")
def _check_subalgebra_recognizer(rng):
    good = [cls.H_T, cls.H_A, cls.H_1, cls.H_2, cls.S_0, cls.HEIS_ALGEBRA, cls.SO3, cls.SO12]
    if not all(a.is_subalgebra() for a in good):
        return False
    corrupted = list(cls.H_1.basis)
    nums, den = list(corrupted[2].nums), corrupted[2].den
    nums[6] = den  # perturb one entry: (2, 0) becomes 1
    corrupted[2] = lc.LieVec(nums, den)
    return not lc.Subalgebra.of(corrupted).is_subalgebra()


# row k holds C(k, i) for i = 0..k, for the orders k <= 5 of `exp-ad-consistency`
_BINOMIAL_ROWS = tuple(tuple(math.comb(k, i) for i in range(k + 1)) for k in range(6))


@check("exp-ad-consistency", "lie-core",
       "conjugation by exp(v) equals exp of the bracket action: "
       "sum_i C(k,i) v^i w (-v)^(k-i) = (ad v)^k w for k <= 5, exact", samples=20)
def _check_exp_ad(rng):
    # k! times the t^k coefficients of exp(tv) w exp(-tv) and exp(t ad v) w, in
    # ints, the first by Horner's rule in -v: acc (-v) + C(k, i) v^i w from
    # acc = w, both terms over v.den^i w.den at step i
    v, w = rand_traceless(rng), rand_lievec(rng)
    minus_v = [-n for n in v.nums]
    left, ad, den = [w.nums], w, w.den  # v^i w, (ad v)^k w, v.den^k w.den
    for row in _BINOMIAL_ROWS[1:]:
        left.append(_mul_ints(v.nums, left[-1]))
        ad = lc.bracket(v, ad)
        den *= v.den
        acc = w.nums
        for c, term in zip(row[1:], left[1:]):
            acc = [a + c * t for a, t in zip(_mul_ints(acc, minus_v), term)]
        if any(a * ad.den != n * den for a, n in zip(acc, ad.nums)):
            return False
    return True


def _theta_anchors():
    """Both involutions equal the transpose, then the inverse or the negation,
    at a g and a v with nine distinct nonzero entries."""
    g = lc.GroupElem([[2, 3, -4], [-1, 5, 6], [7, -8, 9]])
    v = lc.LieVec.of([[1, 2, Fraction(1, 3)], [-5, -3, 4], [6, -7, -2]])
    return lc.theta_group(g) == g.transpose().inverse() and lc.theta_involution(v) == -v.transpose()


@check("theta-morphisms", "lie-core",
       "g -> (g^T)^{-1} is a group morphism; v -> -v^T preserves brackets", samples=100,
       fixed=_theta_anchors)
def _check_theta(rng):
    g, h = rand_group(rng), rand_group(rng)
    if lc.theta_group(g @ h) != lc.theta_group(g) @ lc.theta_group(h):
        return False
    u, v = rand_lievec(rng), rand_lievec(rng)
    return lc.theta_involution(lc.bracket(u, v)) == lc.bracket(
        lc.theta_involution(u), lc.theta_involution(v))


@check("theta-fixes-block-model-algebra", "lie-core",
       "the involution maps the block subalgebra onto itself")
def _check_theta_ht(rng):
    return cls.H_T.map(lc.theta_involution).span_equals(cls.H_T)


# ---------------------------------------------------------------------------
# flag-space suite
# ---------------------------------------------------------------------------

@check("act-preserves-incidence", "flag-space",
       "the diagonal action preserves point-line incidence, exact", samples=2000)
def _check_act_incidence(rng):
    fs.act(rand_group(rng), rand_flag(rng))  # constructor re-checks incidence
    return True


@check("act-composition", "flag-space", "act(gh, x) = act(g, act(h, x))", samples=300)
def _check_act_composition(rng):
    g, h, x = rand_group(rng), rand_group(rng), rand_flag(rng)
    return fs.act(g @ h, x) == fs.act(g, fs.act(h, x))


@check("base-flag-stabilizer", "flag-space",
       "upper-triangular elements fix the base flag", samples=200)
def _check_stabilizer(rng):
    return fs.act(rand_upper(rng), fs.BASE_FLAG) == fs.BASE_FLAG


@check("flip-involution-and-value", "flag-space",
       "flip is an involution; flip of the base flag is the opposite flag", samples=100,
       fixed=lambda: fs.flip(fs.BASE_FLAG) == fs.Flag.of((0, 0, 1), (0, 1, 0)))
def _check_flip(rng):
    x = rand_flag(rng)
    return fs.flip(fs.flip(x)) == x


@check("flip-equivariance", "flag-space",
       "flip(g x) = (g^T)^{-1} flip(x)", samples=200)
def _check_flip_equivariance(rng):
    g, x = rand_group(rng), rand_flag(rng)
    return fs.flip(fs.act(g, x)) == fs.act(lc.theta_group(g), fs.flip(x))


def _flip_maps_circle(x):
    """Each flag of the alpha circle of x, at five parameters, flips onto
    the beta circle of flip(x)."""
    line = fs.flip(x).line
    return all(fs.flip(fs.alpha_circle_flag(x, s, t)).line == line
               for (s, t) in ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 5)))


def _flip_circle_anchors():
    """The lines m x e1 at (s, t) = (1, 0) and m x e2 at (0, 1), and the flip, at
    a point m with only its last entry nonzero, which random flags seldom reach."""
    x = fs.Flag.of((0, 0, 1), (1, 0, 0))
    return (fs.alpha_circle_flag(x, 1, 0).line == (0, 1, 0)
            and fs.alpha_circle_flag(x, 0, 1).line == (1, 0, 0) and _flip_maps_circle(x))


@check("flip-exchanges-circles", "flag-space",
       "flip maps the line-pencil circle onto the point-row circle", samples=50,
       fixed=_flip_circle_anchors)
def _check_flip_circles(rng):
    return _flip_maps_circle(rand_flag(rng))


@check("affine-chart-roundtrip", "flag-space",
       "pointed affine line chart round-trips exactly; base values match", samples=200,
       fixed=lambda: (fs.affine_chart(md.AFFINE.base_flag) == ((0, 0), (0, 1))
                      and fs.affine_chart(md.BLOCK.base_flag) == ((1, 0), (0, 1))))
def _check_chart(rng):
    x = rand_interior_flag(rng, md.AFFINE)
    return fs.affine_chart_inverse(*fs.affine_chart(x)) == x


@check("chart-boundary-error", "flag-space",
       "flags pointed at infinity are rejected by the chart")
def _check_chart_error(rng):
    try:
        fs.affine_chart(fs.Flag.of((0, 1, 0), (1, 0, 0)))
    except fs.BoundaryError:
        return True
    return False


@check("region-examples", "flag-space",
       "anchors: the two model base flags are interior; the degeneration "
       "anchor flags land in their strata; the base flag is deep boundary")
def _check_region_examples(rng):
    anchor = {case: data.boundary_flag for case, data in cls.DEGENERATION_CASES.items()}
    t, a = md.BLOCK, md.AFFINE
    return all(fs.region_classify(x, model.special_point) is region for x, model, region in (
        (t.base_flag, t, fs.Region.INTERIOR), (a.base_flag, a, fs.Region.INTERIOR),
        (anchor["t1"], t, fs.Region.G1), (anchor["t2"], t, fs.Region.G2),
        (anchor["a1"], a, fs.Region.G1), (anchor["a2"], a, fs.Region.G2),
        # the a1 flag's point is the block model's special point
        (anchor["a1"], t, fs.Region.DEEP_BOUNDARY),
        (fs.BASE_FLAG, a, fs.Region.DEEP_BOUNDARY)))


@check("region-orbit-rank", "flag-space",
       "the model algebra orbit is 3-dimensional exactly on the interior", samples=150)
def _check_region_rank(rng):
    for model, alg in zip(md.MODELS, (cls.H_T, cls.H_A)):
        x = rand_flag(rng)
        interior = fs.region_classify(x, model.special_point) is fs.Region.INTERIOR
        if (fs.orbit_rank(alg.basis, x) == 3) != interior:
            return False
    return True


@check("circle-boundary-unique", "flag-space",
       "each circle through an interior flag misses exactly one point of the model",
       samples=500)
def _check_circle_boundary(rng):
    for model in md.MODELS:
        x, m_sp = rand_interior_flag(rng, model), model.special_point
        for which in ("alpha", "beta"):
            y = fs.circle_boundary_points(x, which, m_sp)
            if y is None or fs.region_classify(y, m_sp) is fs.Region.INTERIOR:
                return False
    return True


@check("circle-boundary-example", "flag-space",
       "the beta circle of the block-model base flag exits at ([e2], same line)")
def _check_circle_example(rng):
    base, m_sp = md.BLOCK.base_flag, md.BLOCK.special_point
    return (fs.circle_boundary_points(base, "beta", m_sp) == fs.Flag.of((0, 1, 0), (1, 0, 1))
            and fs.circle_boundary_points(fs.Flag.of((1, 0, 0), (0, 1, 0)), "beta", m_sp) is None)


# carries the base flag to the affine anchor, inside the chart
_CARRY = lc.GroupElem([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@check("fundamental-isotropy-vanishing", "flag-space",
       "upper-triangular generators have zero velocity at the base flag", samples=100,
       fixed=lambda: fs.act(_CARRY, fs.BASE_FLAG) == md.AFFINE.base_flag)
def _check_fundamental_isotropy(rng):
    # the six entries on and above the diagonal, rand_frac draws in row order
    a, b, c, d, e, f = _rand_ints(rng, 6)
    v = lc.LieVec((a, b, c, 0, d, e, 0, 0, f), _DEN)
    w = fs.fundamental_vector(lc.conjugate(_CARRY, v), fs.act(_CARRY, fs.BASE_FLAG))
    return all(c == 0 for c in w)


@check("fundamental-central-velocity", "flag-space",
       "the corner generator moves the affine base flag with velocity (1, 0, 0)")
def _check_fundamental_z(rng):
    return fs.fundamental_vector(md.HEIS_Z, md.AFFINE.base_flag) == (1, 0, 0)


@check("fundamental-finite-difference", "flag-space",
       "closed-form velocity agrees with a first-order difference quotient", samples=30)
def _check_fundamental_fd(rng):
    v = rand_traceless(rng)
    x = rand_interior_flag(rng, md.AFFINE)
    w = fs.fundamental_vector(v, x)
    # the quotient is exact, so a tiny step costs nothing: its first-order
    # error is h times a second derivative that reaches about 1e6 near the
    # chart boundary
    big = 10 ** 16  # h = 1 / big
    # rational first-order step: I + h v = (big den I + nums) / (big den)
    # approximates exp(h v)
    d = big * v.den
    step = lc.GroupElem._of_ints([n + d * (k in (0, 4, 8)) for k, n in enumerate(v.nums)])
    # the chart coordinates (m0 / m2, m1 / m2, -n1 / n0) as (numerator, denominator)
    m, n = fs._slope_chart_ints(x)
    m1, n1 = fs._slope_chart_ints(fs.act(step, x))
    c0 = ((m[0], m[2]), (m[1], m[2]), (-n[1], n[0]))
    c1 = ((m1[0], m1[2]), (m1[1], m1[2]), (-n1[1], n1[0]))
    # (a/p - b/q) / h - ww as one int over one int; int / int rounds
    # correctly, as float() of the Fraction does
    err = max(abs((big * (a * q - b * p) * ww.denominator - ww.numerator * p * q)
                  / (p * q * ww.denominator))
              for (a, p), (b, q), ww in zip(c1, c0, w))
    return err <= 1e-4, err


# ---------------------------------------------------------------------------
# curvature suite
# ---------------------------------------------------------------------------

@check("curvature-diagonal-exponents", "curvature",
       "(p.K)_alpha = a^-1 b^-5 K_alpha and (p.K)_beta = a^5 b K_beta, exact",
       samples=1000)
def _check_curvature_exponents(rng):
    p = rand_upper(rng)
    k = rand_curvature(rng)
    out = curv.curvature_action(p, k)
    # component i of out is n / d times that of k, cross-multiplied in ints
    return all(out.nums[i] * d * k.den == n * k.nums[i] * out.den
               for i, (n, d) in ((0, curv.alpha_scale(p)), (1, curv.beta_scale(p))))


@check("curvature-exponent-sampling", "curvature",
       "diagonal scaling with (a, b) = (s, 1) multiplies the two components "
       "by s^-1 and s^5 for s in {2, 3, 5}")
def _check_curvature_sampling(rng):
    k = curv.NormalCurvature((1, 1, 0, 0))
    outs = {s: curv.curvature_action(lc.GroupElem([[s, 0, 0], [0, Fraction(1, s), 0],
                                                   [0, 0, 1]]), k) for s in (2, 3, 5)}
    # the two components n / d of out against 1 / s and s^5, cross-multiplied
    return all(out.nums[0] * s == out.den and out.nums[1] == s ** 5 * out.den
               for s, out in outs.items())


@check("curvature-left-action", "curvature",
       "action(pq, K) = action(p, action(q, K)), exact", samples=200)
def _check_curvature_action(rng):
    p, q = rand_upper(rng), rand_upper(rng)
    k = rand_curvature(rng)
    return curv.curvature_action(p @ q, k) == curv.curvature_action(
        p, curv.curvature_action(q, k))


@check("harmonic-subspace-invariant", "curvature",
       "the two-dimensional harmonic subspace is preserved exactly", samples=100,
       fixed=lambda: (curv.is_harmonic(curv.ZERO_CURVATURE)
                      and not curv.is_harmonic(curv.NormalCurvature((1, 0, 0, 0)))
                      and not curv.is_harmonic(curv.NormalCurvature((0, 1, 0, 0)))))
def _check_harmonic(rng):
    p = rand_upper(rng)
    # K^alpha and K^beta from two rand_frac draws
    k = curv.NormalCurvature((0, 0, *_rand_ints(rng, 2)), _DEN)
    return curv.is_harmonic(curv.curvature_action(p, k))


# ring fields (see curvature.field_bracket): the left-invariant pair of the
# nilpotent group, (1, 0, -y/2) and (0, 1, x/2), and commuting coordinate
# fields; _W is a fourth indeterminate, and _T the t of a polynomial in t
_X, _Y, _Z = md.CHART
_W = Poly({(0, 0, 0, 1): 1})
_T = Poly({(1,): 1})
_HEIS_XFIELD = ((2, 0, -_Y), 2)
_HEIS_YFIELD = ((0, 2, _X), 2)
_CONST_A = ((1, 0, 0), 1)
_CONST_B = ((0, 1, 0), 1)


def _heis_contact_identities():
    """det(X, Y, [X, Y]) = 1 and det(A, B, [A, B]) = 0, identically."""
    num, den = curv.contact_determinant(_HEIS_XFIELD, _HEIS_YFIELD)
    return num == den and not curv.contact_determinant(_CONST_A, _CONST_B)[0].terms


@check("contact-heis-fields", "curvature",
       "left-invariant generating pair of the nilpotent group is contact "
       "everywhere; commuting coordinate fields are not", samples=50,
       fixed=_heis_contact_identities)
def _check_contact_heis(rng):
    # det(X, Y, [X, Y]) = 1, times the cubed field denominators 2 and 2 and
    # the evaluation scale
    p = tuple(rand_frac(rng) for _ in range(3))
    nums, den = _cleared(p)
    scale = den ** (6 * curv._jet_degree(_HEIS_XFIELD, _HEIS_YFIELD))
    return (curv._contact_ints(_HEIS_XFIELD, _HEIS_YFIELD, nums, den)
            == (_HEIS_XFIELD[1] * _HEIS_YFIELD[1]) ** 3 * scale
            and not curv.contact_test(_CONST_A, _CONST_B, p))


@cache
def _frame_fields(model: md.Model) -> tuple:
    """The ring fields of the model's frame, built when first read."""
    return tuple(md.invariant_field(gen, model) for gen in model.frame)


@cache
def _frame_degrees(model: md.Model) -> tuple:
    """The `curvature._jet_degree` D of the model's alpha and beta fields, and
    the degree k of det(H), H = `models._transport_ints` at (x, y, z) / c:
    there a field's denominator, det(H) gen.den at c = 1, is det(H) gen.den / c^k."""
    det_h = md._transport_ints(*md.CHART, _W, model)[2]
    return curv._jet_degree(*_frame_fields(model)[:2]), max(sum(e) for e, _ in det_h.terms)


def _frame_identities():
    """For both models, det(F_alpha, F_beta, [F_alpha, F_beta]) =
    -<n, m_sp>^2, for n = (-1, z, x - yz) the line at (x, y, z) and m_sp the
    special point: -(x - yz)^2 in BLOCK and -1 in AFFINE; and [F_g, F_h] =
    F_[g, h] for each pair of frame generators."""
    x, y, z = md.CHART
    for model in md.MODELS:
        fields = _frame_fields(model)
        num, den = curv.contact_determinant(*fields[:2])
        pairing = dot((-1, z, x - y * z), model.special_point)
        if num != -(pairing * pairing) * den:
            return False
        for (g, field_g), (h, field_h) in combinations(zip(model.frame, fields), 2):
            nums, den = curv.field_bracket(field_g, field_h)
            expected, q = md.invariant_field(lc.bracket(g, h), model)
            if any(a * q != b * den for a, b in zip(nums, expected)):
                return False
    return True


@check("contact-model-frames", "curvature",
       "the invariant frames of both models are contact at interior points", samples=100,
       fixed=_frame_identities)
def _check_contact_frames(rng):
    """The fixed identities decide the claim in the slope chart, where
    -<n, m_sp>^2 vanishes exactly off the interior.  They cover the interior
    flags off the chart too: the model's group keeps the frame fields and is
    transitive on the interior, and a diffeomorphism keeps the brackets of
    the fields it carries.  Each draw evaluates the fields at an interior
    flag's chart point, in ints, and compares the value with its closed
    form, computed without the ring: -<n, m_sp>^2 / n0^2, for the flag's
    line n, times the cubed field denominators, read off the transporter,
    and the evaluation scale."""
    for model in md.MODELS:
        alpha, beta = _frame_fields(model)[:2]
        degree, k = _frame_degrees(model)
        m, n = fs._slope_chart_ints(rand_interior_flag(rng, model))
        # the chart point (m0 / m2, m1 / m2, -n1 / n0) over c = m2 n0, as in frame_at
        point, c = (m[0] * n[0], m[1] * n[0], -n[1] * m[2]), m[2] * n[0]
        det_h = md._transport_ints(*point, c, model)[2]
        dens = det_h * det_h * model.frame[0].den * model.frame[1].den
        pairing = dot(n, model.special_point)
        # value / c^(6 D) = -(pairing / n0)^2 (dens / c^(2 k))^3, cross-multiplied
        lhs = curv._contact_ints(alpha, beta, point, c) * n[0] ** 2
        rhs = -pairing * pairing * dens ** 3
        if lhs * c ** max(0, 6 * (k - degree)) != rhs * c ** max(0, 6 * (degree - k)):
            return False
    return True


# the pair (0, 0, 1) and (z, 1, 0), and the second times f = c + x^2, as ring
# fields, the constant c of the rescaling a fourth indeterminate
_F = _W + _X * _X
_RESCALE_ALPHA = ((0, 0, 1), 1)
_RESCALE_BETA = ((_Z, 1, 0), 1)
_RESCALE_SCALED = ((_F * _Z, _F, 0), 1)


def _rescaling_identity():
    """det(A, f B, [A, f B]) = f^2 det(A, B, [A, B]), identically in x, y, z
    and c, so at every drawn c."""
    num, den = curv.contact_determinant(_RESCALE_ALPHA, _RESCALE_BETA)
    scaled_num, scaled_den = curv.contact_determinant(_RESCALE_ALPHA, _RESCALE_SCALED)
    return scaled_num * den == _F * _F * num * scaled_den


@check("contact-rescaling-invariance", "curvature",
       "the contact verdict is unchanged by nonvanishing rescalings", samples=30,
       fixed=_rescaling_identity)
def _check_contact_rescaling(rng):
    # c = |r| + 1 for a drawn r, so that c + x^2 vanishes nowhere; both
    # values at (x, y, z, c) = nums / den, where f is f_num / den^2
    c = abs(rand_frac(rng)) + 1
    nums, den = _cleared([*(rand_frac(rng) for _ in range(3)), c])
    value = curv._contact_ints(_RESCALE_ALPHA, _RESCALE_BETA, nums, den)
    scaled = curv._contact_ints(_RESCALE_ALPHA, _RESCALE_SCALED, nums, den)
    f_num = nums[3] * den + nums[0] * nums[0]
    degree, scaled_degree = (curv._jet_degree(_RESCALE_ALPHA, b)
                             for b in (_RESCALE_BETA, _RESCALE_SCALED))
    return scaled * den ** (6 * degree + 4) == f_num * f_num * value * den ** (6 * scaled_degree)


@check("flow-commutator-heis", "curvature",
       "commuting-flow rectangle of the nilpotent pair equals the central "
       "exponential exactly")
def _check_flow_comm_heis(rng):
    x, y = md.HEIS_X, md.HEIS_Y
    z = lc.bracket(x, y)
    # each of X, Y and [X, Y] squares to zero, so exp(sA) = I + sA exactly
    if any(not (a @ a).is_zero() for a in (x, y, z)):
        return False
    # the rectangle times (x.den y.den)^2 against I + t^2 [X, Y] times z.den
    lhs = reduce(_mul_ints, [cls._unipotent_ints(a, s, 1)
                             for a, s in ((x, -_T), (y, -_T), (x, _T), (y, _T))])
    rhs = cls._unipotent_ints(z, _T * _T, 1)
    return all(u * z.den == v * (x.den * y.den) ** 2 for u, v in zip(lhs, rhs))


@check("flow-commutator-slope", "curvature",
       "log-log slope of the rectangle defect is >= 2.9 (third order)", samples=20, worst=min)
def _check_flow_comm_slope(rng):
    u, v = rand_traceless(rng), rand_traceless(rng)
    if lc.bracket(u, v).is_zero():
        return None  # a commuting pair has no rectangle defect to measure
    slope = curv.commutator_slope(u, v)
    return slope >= 2.9, slope


# ---------------------------------------------------------------------------
# models suite
# ---------------------------------------------------------------------------

@check("heis-group-law", "models",
       "[x,y,z][x',y',z'] = [x+x', y+y', z+z'+xy'] and exact exp round-trip",
       samples=200)
def _check_heis_law(rng):
    g, h = rand_heis(rng), rand_heis(rng)
    (a, b, c), d = g.nums, g.den
    (e, f, k), m = h.nums, h.den
    prod = g.mul(h)
    (x, y, z), n = prod.nums, prod.den
    # the law over the common denominator d m, cross-multiplied by n
    return ((x * d * m, y * d * m, z * d * m)
            == (n * (a * m + e * d), n * (b * m + f * d), n * (c * m + k * d + a * f))
            and md.HeisElem.from_exponential(*g.to_exponential()) == g
            and g.mul(g.inverse()) == md.HEIS_IDENTITY)


@check("auto-composition-law", "models",
       "diagonal automorphisms compose by multiplying parameters", samples=200)
def _check_auto_law(rng):
    f, g, h = rand_auto(rng), rand_auto(rng), rand_heis(rng)
    fg = f.compose(g)
    # fg's (x, y) / n against the products (l l2, m m2) / (e e2), cross-multiplied
    (l, m), e, (l2, m2), e2, (x, y), n = f.nums, f.den, g.nums, g.den, fg.nums, fg.den
    return (x * e * e2 == l * l2 * n and y * e * e2 == m * m2 * n
            and f.apply(g.apply(h)) == fg.apply(h)
            and f.compose(f.inverse()) == md.AUTO_IDENTITY)


@check("auto-is-automorphism", "models",
       "each diagonal automorphism preserves the group law", samples=200)
def _check_auto_homo(rng):
    f, g, h = rand_auto(rng), rand_heis(rng), rand_heis(rng)
    return f.apply(g.mul(h)) == f.apply(g).mul(f.apply(h))


@check("equivariance-affine-display", "models",
       "diagonal (lam, lam^-1 mu^-1, mu) maps to (identity, phi_{lam^2 mu, lam^-1 mu^-2})",
       samples=100)
def _check_equiv_a_display(rng):
    # (lam, mu) = (l, u) / D from two nonzero_frac draws: D l u times the diagonal
    # is diag(l^2 u, D^3, l u^2), and phi is (l^2 u / D^3, D^3 / (l u^2))
    (l, u), cube = _rand_ints(rng, 2, (0, 1)), _DEN ** 3
    h, phi = md.equivariance_a(lc.GroupElem._of_ints((l * l * u, 0, 0, 0, cube, 0,
                                                      0, 0, l * u * u)))
    (a, b), n = phi.nums, phi.den
    return h == md.HEIS_IDENTITY and a * cube == l * l * u * n and b * l * u * u == cube * n


@check("equivariance-affine-morphism", "models",
       "the upper-triangular identification is a group morphism onto the "
       "affine automorphism group", samples=100)
def _check_equiv_a_morphism(rng):
    p, q = rand_upper(rng), rand_upper(rng)
    lhs = md.equivariance_a(p @ q)
    rhs = md.heis_semidirect_mul(md.equivariance_a(p), md.equivariance_a(q))
    return lhs == rhs and md.equivariance_a_inverse(*lhs) == p @ q


@check("equivariance-affine-conjugates-action", "models",
       "the orbital identification conjugates the two actions", samples=100)
def _check_equiv_a_action(rng):
    p, h = rand_upper(rng), rand_heis(rng)
    hp, phi = md.equivariance_a(p)
    return (fs.act(p, fs.act(h.as_group_elem(), md.AFFINE.base_flag))
            == fs.act(hp.mul(phi.apply(h)).as_group_elem(), md.AFFINE.base_flag))


@check("equivariance-block-morphism", "models",
       "(s, lam) factorization is multiplicative with positive scale", samples=100)
def _check_equiv_t_morphism(rng):
    lam1, lam2 = nonzero_frac(rng), nonzero_frac(rng)
    s1, s2 = rand_sl2(rng), rand_sl2(rng)
    g1, g2 = md.equivariance_t_inverse(s1, lam1), md.equivariance_t_inverse(s2, lam2)
    (f1, l1), (f2, l2) = md.equivariance_t(g1), md.equivariance_t(g2)
    f12, l12 = md.equivariance_t(g1 @ g2)
    return l12 == l1 * l2 and f12 == md.mat_mul2(f1, f2)


@check("equivariance-block-conjugates-action", "models",
       "block elements act on the model orbit as (g, a) . s = g s a", samples=100)
def _check_equiv_t_action(rng):
    lam = nonzero_frac(rng)
    g2, s = rand_sl2(rng), rand_sl2(rng)
    big = md.equivariance_t_inverse(g2, lam)
    emb = md.equivariance_t_inverse(s, 1)
    base = md.BLOCK.base_flag
    lhs = fs.act(big, fs.act(emb, base))
    # diag(lam, 1 / lam) for lam = n / m, over n m
    n, m = lam.numerator, lam.denominator
    a = md.Block((n * n, 0, 0, m * m), n * m)
    return lhs == fs.act(md.equivariance_t_inverse(md.mat_mul2(md.mat_mul2(g2, s), a), 1), base)


@check("frame-well-defined", "models",
       "two transports reaching the same flag produce the same frame lines", samples=60)
def _check_frame_well_defined(rng):
    for model in md.MODELS:
        x = rand_interior_flag(rng, model)
        h = md.transporter(x, model) @ rand_stabilizer(rng, model)
        frame = md.frame_at(x, model)
        lines = tuple(_primitive_ints(fs._fundamental_ints(lc.conjugate(h, g), x)[0])
                      for g in model.frame)
        if fs.act(h, model.base_flag) != x or frame != lines:
            return False
    return True


@check("frame-base-values", "models",
       "base frames: central line direction e1 in the chart at both anchors")
def _check_frame_base(rng):
    return all(md.frame_at(model.base_flag, model) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
               for model in md.MODELS)


@check("frame-contact-pair-standard", "models",
       "the frame's circle directions match the standard pair at random points",
       samples=100)
def _check_frame_contact_pair(rng):
    for model in md.MODELS:
        x = rand_interior_flag(rng, model)
        alpha, beta, _ = md.frame_at(x, model)
        # the standard pair at the chart point: (0, 0, 1) and (z, 1, 0), whose
        # slope z = -n1 / n0 gives the class (-n1, n0, 0)
        _, n = fs._slope_chart_ints(x)
        if alpha != (0, 0, 1) or beta != _primitive_ints((-n[1], n[0], 0)):
            return False
    return True


def _flat_iso_anchors():
    """The identity pair, the displayed example, and a refused non-contact pair."""
    if (md.flat_structure_iso(md.HEIS_X, md.HEIS_Y) != ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            or md.flat_structure_iso(md.HEIS_X + md.HEIS_Z, md.HEIS_Y)
            != ((1, 0, 0), (0, 1, 0), (1, 0, 1))):
        return False
    try:
        md.flat_structure_iso(md.HEIS_X, md.HEIS_X.scale(3) + md.HEIS_Z)
    except md.ContactConditionError:
        return True
    return False


@check("flat-structure-iso", "models",
       "automorphism matrix [[a,a',0],[b,b',0],[c,c',ab'-ba']] on the basis "
       "(X, Y, Z); rejects non-contact pairs", samples=100, fixed=_flat_iso_anchors)
def _check_flat_iso(rng):
    # v = aX + bY + cZ, then w = pX + qY + rZ, from six rand_frac draws
    a, b, c, p, q, r = _rand_ints(rng, 6)
    v, w = lc.LieVec((0, a, c, 0, 0, b, 0, 0, 0), _DEN), lc.LieVec((0, p, r, 0, 0, q, 0, 0, 0), _DEN)
    try:
        mnums, mden = md._flat_structure_ints(v, w)
    except md.ContactConditionError:
        return None  # a non-contact pair has no isomorphism to test

    def apply(u):
        # the (X, Y, Z) coordinates of u are its entries (0,1), (1,2), (0,2)
        e = u.nums
        x, y, z = _mat_vec_ints(mnums, (e[1], e[5], e[2]))
        return lc.LieVec((0, x, z, 0, 0, y, 0, 0, 0), u.den * mden)

    if apply(md.HEIS_X) != v or apply(md.HEIS_Y) != w:
        return False
    return all(apply(lc.bracket(u1, u2)) == lc.bracket(apply(u1), apply(u2))
               for u1, u2 in ((md.HEIS_X, md.HEIS_Y), (md.HEIS_X, md.HEIS_Z),
                              (md.HEIS_Y, md.HEIS_Z)))


def _theta_affine_anchors():
    """The identity pair goes to the identity map, and the displayed linear
    part and translation at (x, y, z) = (1/2, 2, 3), lam = 2 and mu = 3/2."""
    m = md.theta_affine(md.HeisElem((1, 4, 6), 2), md.HeisAuto((4, 3), 2))
    return (md.theta_affine(md.HEIS_IDENTITY, md.AUTO_IDENTITY) == md.AFFINE_IDENTITY
            and m.linear == ((2, 0, 0), (0, Fraction(3, 2), 0), (0, Fraction(3, 4), 3))
            and m.translation == (Fraction(1, 2), 2, 3))


@check("affine-linearization", "models",
       "linear part [[lam,0,0],[0,mu,0],[0,mu x,lam mu]] with translation "
       "(x,y,z); injective morphism", samples=100, fixed=_theta_affine_anchors)
def _check_theta_affine(rng):
    g1, g2 = rand_heis(rng), rand_heis(rng)
    f1, f2 = rand_auto(rng), rand_auto(rng)
    m = md.theta_affine(g1, f1)
    if md.theta_affine(*md.heis_semidirect_mul((g1, f1), (g2, f2))) != m.compose(
            md.theta_affine(g2, f2)):
        return False
    # each entry n / c of m against its displayed value, cross-multiplied:
    # lam = l / e, mu = u / e, mu x = u x / (e d), lam mu = l u / e^2, zeros
    # off the display, and the translation (x, y, z) / d
    (l, u), e = f1.nums, f1.den
    (x, y, z), d = g1.nums, g1.den
    n, c = m.nums, m.den
    return (n[0] * e == l * c and n[4] * e == u * c and n[7] * e * d == u * x * c
            and n[8] * e * e == l * u * c and not (n[1] or n[2] or n[3] or n[5] or n[6])
            and n[9] * d == x * c and n[10] * d == y * c and n[11] * d == z * c)


@check("central-flow-identity", "models",
       "alpha-beta rectangle equals x + t^2 e1 exactly, both sign variants", samples=1000,
       fixed=lambda: md.commutator_identity_check(md.CHART, _W, 1) == (True, True))
def _check_central_flow(rng):
    # the point and the time from four rand_frac draws
    x, y, z, t = _rand_ints(rng, 4)
    return all(md.commutator_identity_check((x, y, z), t, _DEN))


# ---------------------------------------------------------------------------
# classification suite
# ---------------------------------------------------------------------------

@check("subalgebra-table", "classification",
       "dimensions, closure, the 4-or-5 bound, and centralizer values")
def _check_subalgebra_table(rng):
    cases = cls.verify_subalgebra_table()
    return len(cases) >= 7 and all(c["pass"] for c in cases)


def _isotropy_data(case):
    """The case's data against their definitions: each isotropy generator
    has zero velocity at the base flag (b's zero trivially), and the
    generators and lifts lie in the algebra and span it: their rank is the
    algebra's dimension, with the algebra's basis added or not."""
    d = cls._ISOTROPY_CASES[case]
    data = [v.nums for v in (d.iso_a, d.iso_b, *d.lifts)]
    return (all(not any(fs._tangent_ints(v, d.base_flag)[0]) for v in (d.iso_a, d.iso_b))
            and rank(data) == rank([*data, *(b.nums for b in d.algebra.basis)]) == d.algebra.dim)


def _isotropy_is_expected_diagonal(case):
    table = cls.isotropy_eigenvalue_table(case)
    off = all(table[i][j] == (0, 0) for i in range(3) for j in range(3) if i != j)
    return tuple(table[i][i] for i in range(3)) == cls.EXPECTED[f"isotropy-{case}"] and off


@check("isotropy-table-block", "classification",
       "block-model isotropy acts with diagonal [3a, -3a, 0]",
       fixed=partial(_isotropy_data, "t"))
def _check_isotropy_t(rng):
    return _isotropy_is_expected_diagonal("t")


@check("isotropy-table-affine", "classification",
       "affine-model isotropy acts with diagonal [2a+b, -a-2b, a-b]",
       fixed=partial(_isotropy_data, "a"))
def _check_isotropy_a(rng):
    return _isotropy_is_expected_diagonal("a")


@check("isotropy-table-translations-sl2", "classification",
       "nilpotent isotropy element has the single off-diagonal 1 in the "
       "(beta, center) slot",
       fixed=partial(_isotropy_data, "h1"))
def _check_isotropy_h1(rng):
    table = cls.isotropy_eigenvalue_table("h1")
    b_part = tuple(tuple(table[i][j][1] for j in range(3)) for i in range(3))
    return b_part == ((0, 0, 0), (0, 0, 1), (0, 0, 0))


@check("isotropy-table-similarity", "classification",
       "similarity-model isotropy has zero rate on the alpha direction",
       fixed=partial(_isotropy_data, "h2"))
def _check_isotropy_h2(rng):
    return _isotropy_is_expected_diagonal("h2")


def _unique_line_is(alg, model, wrong):
    """At the model's base flag the search finds one line, the class of its
    central generator, in the given basis and in a second one, where each
    element but the last has the last added; and the comparison rejects
    `wrong`, the other model's transverse line, as that class.  In the given
    bases of both models the solved (x, y) is (0, 0), where either sign of
    the transverse lift spans the same line; in the second basis it is not."""
    base, target = model.base_flag, model.frame[2]
    if cls.line_class_equals(wrong, target, alg, base):
        return False
    *rest, last = alg.basis
    for algebra in (alg, lc.Subalgebra.of([v + last for v in rest] + [last])):
        res = cls.invariant_transverse_line_search(algebra, base)
        if res.kind != "unique" or not cls.line_class_equals(res.generator, target,
                                                             algebra, base):
            return False
    return True


@check("invariant-line-block", "classification",
       "the only invariant transverse line of the block model is the "
       "class of H")
def _check_line_t(rng):
    return _unique_line_is(cls.H_T, md.BLOCK, md.AFFINE.frame[2])


@check("invariant-line-affine", "classification",
       "the only invariant transverse line of the affine model is the "
       "class of Z")
def _check_line_a(rng):
    return _unique_line_is(cls.H_A, md.AFFINE, cls.CENTRAL_LINE)


@check("invariant-line-translations-sl2", "classification",
       "the 5-dimensional translation extension admits no invariant "
       "transverse line")
def _check_line_h1(rng):
    res = cls.invariant_transverse_line_search(cls.H_1, cls.X1_FLAG)
    return res.kind == "none"


@check("invariant-line-similarity", "classification",
       "the similarity extension leaves a one-parameter family invariant")
def _check_line_h2(rng):
    res = cls.invariant_transverse_line_search(cls.H_2, md.AFFINE.base_flag)
    return res.kind == "family" and res.family_dim == 1


@check("stabilizer-four-cases", "classification",
       "transverse stabilizers: full / diag(1,1,-2) / diag(-2,1,1) / zero")
def _check_stabilizer_cases(rng):
    table = cls.transverse_stabilizer_cases(cls.H_A, md.AFFINE.base_flag)
    lines = {"x=0,y!=0": lc.LieVec.diag(1, 1, -2), "x!=0,y=0": lc.LieVec.diag(-2, 1, 1)}
    return (len(table["x=0,y=0"]) == 2 and len(table["x!=0,y!=0"]) == 0
            and all(len(table[case]) == 1 and not table[case][0].is_zero()
                    and in_span([line.nums], table[case][0].nums)
                    for case, line in lines.items()))


def _tends_to(table, e) -> bool:
    """Whether the strictly lower class of the table's coefficients, at the
    lowest degree where that class is nonzero, is a nonzero multiple of e:
    as t -> 0 the projected line tends to that class."""
    for k in sorted({k for entry in chain.from_iterable(table) for k in entry}):
        v = lc._strictly_lower_class(lc.LieVec.of([[c.get(k, 0) for c in row] for row in table]))
        if any(v):
            return in_span([e], _cleared(v)[0])
    return False


def _degeneration_data():
    """Each case's data against their definitions: the pivot carries the
    boundary flag to the base flag, `along` is the model's alpha or beta
    generator, the circle through the boundary flag is the model orbit of
    the base flag, circle(t) x = along(1/t) y, and the table `_tends_to`
    its limit vector, so that the exact bound |v x e|^2 <= 9 t^2 |v|^2
    tests the limit of the printed matrices (a zero e meets it for every
    v)."""
    return all(
        fs.act(d.pivot, d.boundary_flag) == fs.BASE_FLAG and d.along in d.model.frame[:2]
        and _tends_to(d.expected, cls._LIMIT_VECTORS[d.limit])
        and all(fs.act(cls.unipotent(d.circle, t), d.boundary_flag)
                == fs.act(cls.unipotent(d.along, 1 / t), d.model.base_flag)
                for t in (Fraction(1), Fraction(1, 2), Fraction(-2)))
        for d in cls.DEGENERATION_CASES.values())


@check("degeneration-matrices", "classification",
       "the four transported-generator matrices match their printed values "
       "at t in {1, 1/2, 1/10, 1/100}, and the projected line converges",
       fixed=_degeneration_data)
def _check_degeneration(rng):
    for case in cls.DEGENERATION_CASES:
        for res in cls.degeneration_samples(case):
            if not res.passed:
                return False, res.sine_distance if res.matches else None
    return True


@check("degeneration-symbolic", "classification",
       "matrices equal their printed Laurent tables as identities in t")
def _check_degeneration_tables(rng):
    """M = pivot (I - tC)(tI + A) is t C.den A.den times G = pivot circle(-t)
    along(1/t), so G X G^{-1} = M X.nums adj(M) / (X.den det M); times t^2,
    a printed entry of degrees >= -2 (a lower one fails) is a polynomial."""
    for d in cls.DEGENERATION_CASES.values():
        m = _mul_ints(d.pivot.nums, _mul_ints(cls._unipotent_ints(d.circle, -_T, 1),
                                              cls._unipotent_ints(d.along, 1, _T)))
        x = d.model.frame[2]
        prod, det = lc._conjugate_ints(m, _adjugate_ints(m), x.nums)
        for p, entry in zip(prod, chain.from_iterable(d.expected)):
            table = Poly({(k + 2,) if k > -2 else (): c for k, c in entry.items()})
            if any(k < -2 for k in entry) or p * _T * _T != det * x.den * table:
                return False
    return True


@check("flatness-predicate", "classification",
       "holonomy diagonal (a, -a-b, b) forces flatness iff b != -5a and a != -5b")
def _check_flatness_predicate(rng):
    # diag(2^a, 2^(-a-b), 2^b) scales K_alpha by 2^(-a-5b) and K_beta by
    # 2^(5a+b): flatness is forced iff neither component of (1, 1, 0, 0)
    # stays 1.  Pairs on both resonance lines and off them:
    k, two = curv.NormalCurvature((1, 1, 0, 0)), Fraction(2)
    outs = {(a, b): curv.curvature_action(
        lc.GroupElem([[two ** a, 0, 0], [0, two ** (-a - b), 0], [0, 0, two ** b]]), k)
        for a, b in ((1, -1), (1, -5), (-5, 1), (0, 0), (2, -10), (-10, 2), (-1, 5), (5, -1),
                     (1, 0), (0, 1), (2, 3), (-3, 1))}
    return all(cls.flatness_holonomy_predicate(a, b) == (out.den not in out.nums[:2])
               for (a, b), out in outs.items())


@check("bracket-table-corner", "classification",
       "bracket relations of the corner generator against the graded basis")
def _check_tresse(rng):
    return all(c["pass"] for c in cls.tresse_bracket_suite())


# ---------------------------------------------------------------------------
# dynamics suite
# ---------------------------------------------------------------------------

_CAT = ((2, 1), (1, 1))


@check("lattice-closure", "dynamics",
       "integer-integer-half-integer points are closed under the group law "
       "and invariant under determinant-one integer linear parts", samples=200,
       fixed=lambda: all(dyn.LATTICE.contains(dyn.NilMap.of(_CAT).apply(gen))
                         for gen in dyn.LATTICE.generators))
def _check_lattice(rng):
    g = dyn.LATTICE.random_element(rng)
    h = dyn.LATTICE.random_element(rng)
    return dyn.LATTICE.contains(dyn.heis_mul(g, h))


def _one_point_of_the_quotient(a, b, tol):
    """Whether a and b lie in the box [0, 1)^2 x [0, 1/2) and b a^-1 within
    `tol` of the lattice in x, y and 2z: one point of the quotient, though a
    float point within rounding of a face can land next to either glued face."""
    if not all(0 <= p[0] < 1 and 0 <= p[1] < 1 and 0 <= p[2] < 0.5 for p in (a, b)):
        return False
    x, y, z = dyn.heis_mul(b, (-a[0], -a[1], -a[2]))
    return all(abs(c - round(c)) <= tol for c in (x, y, 2 * z))


@check("reduce-retraction", "dynamics",
       "fundamental-domain reduction is idempotent and lattice invariant", samples=2000)
def _check_reduce(rng):
    p = tuple(rng.uniform(-8, 8) for _ in range(3))
    r = dyn.reduce_point(p)
    if dyn.reduce_point(r) != r:
        return False
    r2 = dyn.reduce_point(dyn.heis_mul(dyn.LATTICE.random_element(rng), p))
    return _one_point_of_the_quotient(r, r2, 1e-9)


_CAT_MAP = dyn.NilMap.of(_CAT, (0.5, 1.5, 0.25))
_CAT_MAP_INVERSE = _CAT_MAP.inverse()


@check("reduce-commutes-with-map", "dynamics",
       "reduce(f(p)) = reduce(f(reduce(p))) up to lattice translation, "
       "and f^-1(f(p)) = p unreduced", samples=2000)
def _check_reduce_commute(rng):
    p = tuple(rng.uniform(-8, 8) for _ in range(3))
    image = _CAT_MAP.apply(p)
    a = dyn.reduce_point(image)
    b = dyn.reduce_point(_CAT_MAP.apply(dyn.reduce_point(p)))
    back = _CAT_MAP_INVERSE.apply(image)  # unreduced: reduction hides a wrong inverse
    return (_one_point_of_the_quotient(a, b, 1e-8)
            and max(abs(x - y) for x, y in zip(back, p)) <= 1e-9)


@check("lyapunov-cat-map", "dynamics",
       "measured rates match log((3+sqrt(5))/2), its negative, and zero")
def _check_lyapunov(rng):
    f = dyn.NilMap.of(_CAT, (0.5, 1.0, 0.3))
    rate = math.log((3 + math.sqrt(5)) / 2)
    ru, rs, rc = (r.measured for r in dyn.tangent_rates(f).values())
    errors = (abs(ru - rate), abs(rs + rate), abs(rc))
    return errors[0] <= 1e-3 and errors[1] <= 1e-3 and errors[2] <= 1e-6, max(errors)


@check("sl2-frame-rates", "dynamics",
       "frame rates of the diagonal flow are (-2t, 2t, 0), from brackets", samples=10,
       fixed=lambda: (dyn.sl2_frame_rates(1.0) == (-2.0, 2.0, 0.0)
                      and dyn.sl2_frame_rates(0.0) == (0.0, 0.0, 0.0)))
def _check_sl2_rates(rng):
    t = rng.uniform(-3, 3)
    return all(a == -b for a, b in zip(dyn.sl2_frame_rates(t), dyn.sl2_frame_rates(-t)))


@check("hyperbolicity-certificates", "dynamics",
       "cat map and diagonal time-one map certify with N = 1; an expanding "
       "pair fails the contraction clause")
def _check_hyperbolicity(rng):
    powers = [dyn.hyperbolicity_report(rates) for rates in (
        dyn.NilMap.of(_CAT, (0.5, 0.0, 0.125)).exact_rates(), dyn.sl2_frame_rates(1.0),
        (math.log(2), math.log(3), math.log(6)))]
    return powers == [1, 1, None]


@check("volume-obstruction", "dynamics",
       "same-side multiplier pairs are obstructed; reciprocal pairs admissible")
def _check_volume(rng):
    obstructed = ((0.5, 1 / 3), (2.0, 3.0))
    admissible = ((2.618, 1 / 2.618), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.0), (1.0, 0.5))
    return all(dyn.volume_obstruction_check(*pair) == verdict
               for pairs, verdict in ((obstructed, "obstructed"), (admissible, "admissible"))
               for pair in pairs)

