"""Registered verification checks: the one oracle for every identity the
library verifies.

`@check(id, suite, anchor, samples=None, fixed=None, worst=None)` registers
a body `fn(rng)` under a stable id, its suite, and an anchor string quoting
the identity or table it verifies.  One call of the body is one draw, and
returns a bool, None (the draw tested nothing) or (passed, residual).  The
registry runs every body alike: K draws for samples=K, or the count asked
for; one call for a fact, samples=None, whatever the count.  The `fixed`
predicate checks anchor values once before the draws.  The first failing
draw stops the check with its residual.  A passing fact reports its own
residual; a passing sampled check folds the residuals of its draws with
`worst` (max or min), or reports None.  A check that tested nothing fails:
every draw returned None, or it was asked for fewer than one sample.
`flagdyn verify` runs the registry through `run_checks`; the tests run each
entry once at seed 0 and default samples, and more only through `run_check`
at their own seed and count, never a copy of a sampled body; example tests
state some checks' fixed values, so that a failure prints the value that
changed.  The random generators the tests share with the checks live here
too.

Each check draws from its own stream, `check_rng(seed, id)`, so the checks
are independent, and `run_checks` spreads them over one process per CPU the
process may use, through `workers.split`, the one fork helper.  The split
is static: check `id` runs on worker `crc32(id) % W`, the calling process
being worker 0 and each other worker a forked child.  Every outcome, the
caller's too, is one JSON line that the caller parses.  A static split
makes the caller's share a function of the ids alone, so a profile of the
caller repeats exactly run to run; the digest, unlike the position, keeps a
check on its worker when checks are added, and unlike `hash()` it is not
salted per process.  The outcomes do not depend on the CPU count: `split`
redoes a failed worker's share in the caller.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from fractions import Fraction

from . import classification as cls
from . import curvature as curv
from . import dynamics as dyn
from . import flag_space as fs
from . import lie_core as lc
from . import models as md
from .rational import (_Record, _cleared, _mat_vec_ints, _mul_ints, _primitive_ints, _rows, in_span,
                       primitive)
from .workers import cpus, split


class CheckOutcome(_Record):
    __slots__ = ("check_id", "anchor", "passed", "residual")


_REGISTRY = []


def check(check_id: str, suite: str, anchor: str, samples: int | None = None,
          fixed=None, worst=None):
    """Register a body as the module docstring describes."""
    def wrap(body):
        _REGISTRY.append((check_id, suite, anchor, _runner(body, samples, fixed, worst)))
        return body
    return wrap


def _runner(body, default, fixed, worst):
    """The registered form of a check: `run(rng, samples) -> (passed,
    residual)`, samples=None asking for the default count."""
    def run(rng, samples):
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
    return run


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
    the seed.  Returns CheckOutcome records sorted by id.  The checks are
    split over W = min(CPUs this process may use, checks) processes by the
    CRC-32 of their ids, as the module docstring describes; on one CPU, or
    without `os.fork`, the caller runs them all.  A check that raises
    fails."""
    known = suites()
    if suite is not None and suite not in known:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(known)}")
    entries = [e for e in sorted(_REGISTRY) if suite is None or e[1] == suite]
    results = _run_split([check_id for check_id, _, _, _ in entries], seed, samples)
    return [CheckOutcome(check_id, anchor, *results[k])
            for k, (check_id, _, anchor, _) in enumerate(entries)]


def _run_split(ids, seed, samples):
    """{k: (passed, residual)} of every check ids[k], worker w of W running
    the ids whose CRC-32 is w mod W, through `workers.split`.  Each check's
    outcome is one JSON line [k, passed, residual], whichever process ran
    it; JSON floats round-trip exactly."""
    workers = max(1, min(cpus(), len(ids)))
    shares = [[] for _ in range(workers)]
    for k, check_id in enumerate(ids):
        shares[zlib.crc32(check_id.encode()) % workers].append(k)

    def work(share):
        for k in share:
            try:
                outcome = run_check(ids[k], seed, samples)
            except Exception:
                outcome = False, None
            yield json.dumps([k, *outcome]) + "\n"

    with split(shares, work) as text:
        lines = "".join(text).splitlines()
    return {k: (passed, residual) for k, passed, residual in map(json.loads, lines)}


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _pair(rng):
    """One rand_frac draw as its ints: (numerator, denominator), that is
    rng.randint(-9, 9) and rng.randint(1, 9) from the same stream, without
    randint's call layers.  getrandbits(n.bit_length()), redrawn while it is
    n or more, is CPython's randint over n values: 5 bits below 19, 4 below 9."""
    p = q = 19
    while p >= 19:
        p = rng.getrandbits(5)
    while q >= 9:
        q = rng.getrandbits(4)
    return p - 9, q + 1


def _nonzero_pair(rng):
    """One nonzero_frac draw as its ints: `_pair` draws until p != 0."""
    while True:
        p, q = _pair(rng)
        if p:
            return p, q


def _over_lcm(pairs):
    """The rationals p / q of `pairs` as ints over the lcm of the q: (nums,
    lcm), pair k being nums[k] / lcm."""
    lcm = math.lcm(*[q for _, q in pairs])
    return [p * (lcm // q) for p, q in pairs], lcm


def rand_frac(rng) -> Fraction:
    return Fraction(*_pair(rng))


def _rand_ints(rng, count: int):
    """`count` draws of rand_frac(rng) from the same stream, as ints over the
    lcm of the drawn denominators."""
    return _over_lcm([_pair(rng) for _ in range(count)])


def rand_lievec(rng) -> lc.LieVec:
    return lc.LieVec(*_rand_ints(rng, 9))


def rand_traceless(rng) -> lc.LieVec:
    """v - (tr v / 3) I for v = rand_lievec(rng): (3 nums - t I) / (3 den),
    with t the trace of nums."""
    nums, den = _rand_ints(rng, 9)
    t = nums[0] + nums[4] + nums[8]
    return lc.LieVec([3 * n - t * (k in (0, 4, 8)) for k, n in enumerate(nums)], 3 * den)


def rand_curvature(rng) -> curv.NormalCurvature:
    """The components from four rand_frac draws, in order."""
    return curv.NormalCurvature(*_rand_ints(rng, 4))


def rand_group(rng) -> lc.GroupElem:
    while True:
        try:
            return lc.GroupElem._of_ints(_rand_ints(rng, 9)[0])
        except ValueError:
            continue


def nonzero_frac(rng) -> Fraction:
    return Fraction(*_nonzero_pair(rng))


def rand_upper(rng) -> lc.GroupElem:
    """Upper triangular with nonzero diagonal: six draws in row order."""
    a, b, c, d, e, f = _over_lcm([_nonzero_pair(rng), _pair(rng), _pair(rng),
                                  _nonzero_pair(rng), _pair(rng),
                                  _nonzero_pair(rng)])[0]
    return lc.GroupElem._of_ints((a, b, c, 0, d, e, 0, 0, f))


def rand_flag(rng) -> fs.Flag:
    while True:
        try:
            m, q = _rand_ints(rng, 3)[0], _rand_ints(rng, 3)[0]
            m = _primitive_ints(m)
            return fs.Flag(m, fs.meet(m, _primitive_ints(q)))
        except ValueError:
            continue


def rand_interior_flag(rng, model: str) -> fs.Flag:
    """The flag at chart coordinates (x, y, z) = three rand_frac draws, drawn
    again until it is interior to `model`."""
    while True:
        (p1, q1), (p2, q2), (p3, q3) = _pair(rng), _pair(rng), _pair(rng)
        # (x, y) = (p1 q2, p2 q1) / (q1 q2), direction (z : 1) = (p3 : q3)
        flag = fs._chart_flag(p1 * q2, p2 * q1, q1 * q2, p3, q3)
        if fs.region_classify(flag, model) is fs.Region.INTERIOR:
            return flag


def rand_sl2(rng) -> md.Block:
    """[[a, b], [c, (1 + b c) / a]] from three rand_frac draws with a != 0."""
    while True:
        (a, p), (b, q), (c, r) = _pair(rng), _pair(rng), _pair(rng)
        if a:
            # (a / p, b / q, c / r, p (q r + b c) / (a q r)) over a p q r
            return md.Block((a * a * q * r, a * b * p * r, a * c * p * q, p * p * (q * r + b * c)),
                            a * p * q * r)


def rand_heis(rng) -> md.HeisElem:
    return md.HeisElem(*_rand_ints(rng, 3))


def rand_auto(rng) -> md.HeisAuto:
    return md.HeisAuto(*_over_lcm([_nonzero_pair(rng), _nonzero_pair(rng)]))


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
    if lc.bracket(u, v) != -lc.bracket(v, u):
        return False
    return (lc.bracket(u, lc.bracket(v, w)) + lc.bracket(v, lc.bracket(w, u))
            + lc.bracket(w, lc.bracket(u, v))).is_zero()


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
    for u in lc.BASIS:
        for v in lc.BASIS:
            gu = next(k for k, p in lc.grade_decompose(u).items() if not p.is_zero())
            gv = next(k for k, p in lc.grade_decompose(v).items() if not p.is_zero())
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

    for u in lc.BASIS:
        for v in lc.BASIS:
            br = lc.bracket(u, v)
            if not br.is_zero() and filt_level(br) < filt_level(u) + filt_level(v):
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
    cent = lc.centralizer(cls.s_0())
    return cent.dim == 1 and cent.contains(cls.CENTRAL_LINE)


@check("centralizer-so3-so12", "lie-core", "Cent(so3) = Cent(so(1,2)) = 0")
def _check_centralizer_so(rng):
    return lc.centralizer(cls.so3()).dim == 0 and lc.centralizer(cls.so12()).dim == 0


@check("centralizer-full", "lie-core", "center of the simple algebra is 0")
def _check_centralizer_full(rng):
    return lc.centralizer(lc.Subalgebra.of(list(lc.BASIS))).dim == 0


@check("subalgebra-recognizer", "lie-core",
       "closure accepts the classified list, rejects a corrupted basis")
def _check_subalgebra_recognizer(rng):
    good = [cls.h_t(), cls.h_a(), cls.h_1(), cls.h_2(), cls.s_0(),
            cls.heis_algebra(), cls.so3()]
    if not all(a.is_subalgebra() for a in good):
        return False
    corrupted = list(cls.h_1().basis)
    rows = [list(map(list, corrupted[2].entries))]
    rows[0][2][0] = Fraction(1)  # perturb one entry
    corrupted[2] = lc.LieVec.of(rows[0])
    return not lc.Subalgebra.of(corrupted).is_subalgebra()


@check("exp-ad-consistency", "lie-core",
       "conjugation by exp(v) equals exp of the bracket action: "
       "sum_i C(k,i) v^i w (-v)^(k-i) = (ad v)^k w for k <= 5, exact", samples=20)
def _check_exp_ad(rng):
    # k! times the t^k coefficients of exp(tv) w exp(-tv) and exp(t ad v) w, in
    # ints: v^i w is over v.den^i w.den and (-v)^j over v.den^j
    v, w = rand_traceless(rng), rand_lievec(rng)
    minus_v = [-n for n in v.nums]
    left, right, ad = [w.nums], [(1, 0, 0, 0, 1, 0, 0, 0, 1)], w  # v^i w, (-v)^j, (ad v)^k w
    for k in range(1, 6):
        left.append(_mul_ints(v.nums, left[-1]))
        right.append(_mul_ints(right[-1], minus_v))
        ad = lc.bracket(v, ad)
        terms = [_mul_ints(left[i], right[k - i]) for i in range(k + 1)]
        total = [sum(math.comb(k, i) * x for i, x in enumerate(col)) for col in zip(*terms)]
        if lc.LieVec(total, v.den ** k * w.den) != ad:
            return False
    return True


@check("theta-morphisms", "lie-core",
       "g -> (g^T)^{-1} is a group morphism; v -> -v^T preserves brackets", samples=100)
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
    ht = cls.h_t()
    return ht.map(lc.theta_involution).span_equals(ht)


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


@check("flip-exchanges-circles", "flag-space",
       "flip maps the line-pencil circle onto the point-row circle", samples=50)
def _check_flip_circles(rng):
    x = rand_flag(rng)
    # each image must stay on the beta circle of flip(x)
    return all(fs.flip(fs.alpha_circle_flag(x, s, t)).line == fs.flip(x).line
               for (s, t) in ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 5)))


@check("affine-chart-roundtrip", "flag-space",
       "pointed affine line chart round-trips exactly; base values match", samples=200,
       fixed=lambda: (fs.affine_chart(fs.O_A) == ((0, 0), (0, 1))
                      and fs.affine_chart(fs.O_T) == ((1, 0), (0, 1))))
def _check_chart(rng):
    x = rand_interior_flag(rng, "a")
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
    return all(fs.region_classify(x, model) is region for x, model, region in (
        (fs.O_T, "t", fs.Region.INTERIOR), (fs.O_A, "a", fs.Region.INTERIOR),
        (anchor["t1"], "t", fs.Region.G1), (anchor["t2"], "t", fs.Region.G2),
        (anchor["a1"], "a", fs.Region.G1), (anchor["a2"], "a", fs.Region.G2),
        # the a1 flag's point is the block model's special point
        (anchor["a1"], "t", fs.Region.DEEP_BOUNDARY),
        (fs.BASE_FLAG, "a", fs.Region.DEEP_BOUNDARY)))


@check("region-orbit-rank", "flag-space",
       "the model algebra orbit is 3-dimensional exactly on the interior", samples=150)
def _check_region_rank(rng):
    for model, alg in (("t", cls.h_t()), ("a", cls.h_a())):
        x = rand_flag(rng)
        interior = fs.region_classify(x, model) is fs.Region.INTERIOR
        if (fs.orbit_rank(alg.basis, x) == 3) != interior:
            return False
    return True


@check("circle-boundary-unique", "flag-space",
       "each circle through an interior flag misses exactly one point of the model",
       samples=500)
def _check_circle_boundary(rng):
    for model in ("t", "a"):
        x = rand_interior_flag(rng, model)
        for which in ("alpha", "beta"):
            res = fs.circle_boundary_points(x, which, model)
            if res.full_circle or len(res.points) != 1:
                return False
            if fs.region_classify(res.points[0], model) is fs.Region.INTERIOR:
                return False
    return True


@check("circle-boundary-example", "flag-space",
       "the beta circle of the block-model base flag exits at ([e2], same line)")
def _check_circle_example(rng):
    res = fs.circle_boundary_points(fs.O_T, "beta", "t")
    full = fs.circle_boundary_points(fs.Flag.of((1, 0, 0), (0, 1, 0)), "beta", "t")
    return (not res.full_circle and res.points == (fs.Flag.of((0, 1, 0), (1, 0, 1)),)
            and full.full_circle)


# carries the base flag to the affine anchor, inside the chart
_CARRY = lc.GroupElem([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@check("fundamental-isotropy-vanishing", "flag-space",
       "upper-triangular generators have zero velocity at the base flag", samples=100)
def _check_fundamental_isotropy(rng):
    v = lc.LieVec.of([[rand_frac(rng) if j >= i else 0 for j in range(3)]
                      for i in range(3)])
    w = fs.fundamental_vector(lc.conjugate(_CARRY, v), fs.act(_CARRY, fs.BASE_FLAG))
    return all(c == 0 for c in w)


@check("fundamental-central-velocity", "flag-space",
       "the corner generator moves the affine base flag with velocity (1, 0, 0)")
def _check_fundamental_z(rng):
    return fs.fundamental_vector(md.HEIS_Z, fs.O_A) == (1, 0, 0)


@check("fundamental-finite-difference", "flag-space",
       "closed-form velocity agrees with a first-order difference quotient", samples=30)
def _check_fundamental_fd(rng):
    v = rand_traceless(rng)
    x = rand_interior_flag(rng, "a")
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
    # component i of out is s times that of k, s its scale, cross-multiplied in ints
    return all(out.nums[i] * s.denominator * k.den == s.numerator * k.nums[i] * out.den
               for i, s in ((0, curv.alpha_scale(p)), (1, curv.beta_scale(p))))


@check("curvature-exponent-sampling", "curvature",
       "diagonal scaling with (a, b) = (s, 1) multiplies the two components "
       "by s^-1 and s^5 for s in {2, 3, 5}")
def _check_curvature_sampling(rng):
    k = curv.NormalCurvature.of(1, 1, 0, 0)
    outs = {s: curv.curvature_action(lc.GroupElem([[s, 0, 0], [0, Fraction(1, s), 0],
                                                   [0, 0, 1]]), k) for s in (2, 3, 5)}
    return all((out.k_alpha, out.k_beta) == (Fraction(1, s), Fraction(s) ** 5)
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
       fixed=lambda: (curv.is_harmonic(curv.NormalCurvature.zero())
                      and not curv.is_harmonic(curv.NormalCurvature.of(1, 0, 0, 0))
                      and not curv.is_harmonic(curv.NormalCurvature.of(0, 1, 0, 0))))
def _check_harmonic(rng):
    p = rand_upper(rng)
    k = curv.NormalCurvature.of(0, 0, rand_frac(rng), rand_frac(rng))
    return curv.is_harmonic(curv.curvature_action(p, k))


def _zero_jacobian(p):
    return ((0, 0, 0), (0, 0, 0), (0, 0, 0))


_HALF = Fraction(1, 2)
# the left-invariant pair of the nilpotent group, and commuting coordinate fields
_HEIS_XFIELD = curv.PolynomialField(lambda p: (1, 0, -_HALF * p[1]),
                                    lambda p: ((0, 0, 0), (0, 0, 0), (0, -_HALF, 0)))
_HEIS_YFIELD = curv.PolynomialField(lambda p: (0, 1, _HALF * p[0]),
                                    lambda p: ((0, 0, 0), (0, 0, 0), (_HALF, 0, 0)))
_CONST_A = curv.PolynomialField(lambda p: (1, 0, 0), _zero_jacobian)
_CONST_B = curv.PolynomialField(lambda p: (0, 1, 0), _zero_jacobian)


@check("contact-heis-fields", "curvature",
       "left-invariant generating pair of the nilpotent group is contact "
       "everywhere; commuting coordinate fields are not", samples=50)
def _check_contact_heis(rng):
    p = tuple(rand_frac(rng) for _ in range(3))
    return (curv.contact_test(_HEIS_XFIELD, _HEIS_YFIELD, p)
            and not curv.contact_test(_CONST_A, _CONST_B, p))


@check("contact-model-frames", "curvature",
       "the invariant frames of both models are contact at interior points", samples=100)
def _check_contact_frames(rng):
    for model in ("t", "a"):
        alpha_field, beta_field = (md.InvariantField(gen, model)
                                   for gen in md._BASE_GENERATORS[model][:2])
        p = fs.chart_coords(rand_interior_flag(rng, model))
        if not curv.contact_test(alpha_field, beta_field, p):
            return False
    return True


_RESCALE_ALPHA = curv.PolynomialField(lambda p: (0, 0, 1), _zero_jacobian)
_RESCALE_BETA = curv.PolynomialField(lambda p: (p[2], 1, 0),
                                     lambda p: ((0, 0, 1), (0, 0, 0), (0, 0, 0)))


@check("contact-rescaling-invariance", "curvature",
       "the contact verdict is unchanged by nonvanishing rescalings", samples=30)
def _check_contact_rescaling(rng):
    c = abs(rand_frac(rng)) + 1
    # beta times the nonvanishing factor c + x^2
    scaled = curv.PolynomialField(
        lambda p: ((c + p[0] * p[0]) * p[2], c + p[0] * p[0], 0),
        lambda p: ((2 * p[0] * p[2], 0, c + p[0] * p[0]), (2 * p[0], 0, 0), (0, 0, 0)))
    p = tuple(rand_frac(rng) for _ in range(3))
    return (curv.contact_test(_RESCALE_ALPHA, _RESCALE_BETA, p)
            == curv.contact_test(_RESCALE_ALPHA, scaled, p))


@check("flow-commutator-heis", "curvature",
       "commuting-flow rectangle of the nilpotent pair equals the central "
       "exponential exactly")
def _check_flow_comm_heis(rng):
    x, y = md.HEIS_X, md.HEIS_Y
    z = lc.bracket(x, y)
    # each of X, Y and [X, Y] squares to zero, so exp(sA) = I + sA exactly
    if any(not (a @ a).is_zero() for a in (x, y, z)):
        return False
    one = lc.LieVec.diag(1, 1, 1)
    return all((one - x.scale(t)) @ (one - y.scale(t)) @ (one + x.scale(t)) @ (one + y.scale(t))
               == one + z.scale(t * t) for t in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)))


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
            and g.mul(g.inverse()) == md.HeisElem.identity())


@check("auto-composition-law", "models",
       "diagonal automorphisms compose by multiplying parameters", samples=200)
def _check_auto_law(rng):
    f, g, h = rand_auto(rng), rand_auto(rng), rand_heis(rng)
    return (f.compose(g) == md.HeisAuto.of(f.lam * g.lam, f.mu * g.mu)
            and f.apply(g.apply(h)) == f.compose(g).apply(h)
            and f.compose(f.inverse()) == md.HeisAuto.identity())


@check("auto-is-automorphism", "models",
       "each diagonal automorphism preserves the group law", samples=200)
def _check_auto_homo(rng):
    f, g, h = rand_auto(rng), rand_heis(rng), rand_heis(rng)
    return f.apply(g.mul(h)) == f.apply(g).mul(f.apply(h))


@check("equivariance-affine-display", "models",
       "diagonal (lam, lam^-1 mu^-1, mu) maps to (identity, phi_{lam^2 mu, lam^-1 mu^-2})",
       samples=100)
def _check_equiv_a_display(rng):
    lam, mu = nonzero_frac(rng), nonzero_frac(rng)
    h, phi = md.equivariance_a(lc.GroupElem([[lam, 0, 0], [0, 1 / (lam * mu), 0],
                                             [0, 0, mu]]))
    return (h == md.HeisElem.identity()
            and phi == md.HeisAuto.of(lam * lam * mu, 1 / (lam * mu * mu)))


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
    return (fs.act(p, fs.act(h.as_group_elem(), fs.O_A))
            == fs.act(hp.mul(phi.apply(h)).as_group_elem(), fs.O_A))


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
    lhs = fs.act(big, fs.act(emb, fs.O_T))
    # diag(lam, 1 / lam) for lam = n / m, over n m
    n, m = lam.numerator, lam.denominator
    a = md.Block((n * n, 0, 0, m * m), n * m)
    return lhs == fs.act(md.equivariance_t_inverse(md.mat_mul2(md.mat_mul2(g2, s), a), 1), fs.O_T)


@check("frame-well-defined", "models",
       "two transports reaching the same flag produce the same frame lines", samples=60)
def _check_frame_well_defined(rng):
    for model, base, gens in (("t", fs.O_T, (md.SL2_E, md.SL2_F, md.SL2_H)),
                              ("a", fs.O_A, (md.HEIS_X, md.HEIS_Y, md.HEIS_Z))):
        x = rand_interior_flag(rng, model)
        # a stabilizer of the base flag: diag(1, d, 1) in model t, any diagonal in a
        d = _over_lcm([(1, 1), _nonzero_pair(rng), (1, 1)] if model == "t"
                      else [_nonzero_pair(rng) for _ in range(3)])[0]
        h = md.transporter(x, model) @ lc.GroupElem._of_ints((d[0], 0, 0, 0, d[1], 0, 0, 0, d[2]))
        frame = md.frame_at(x, model)
        lines = tuple(primitive(fs.fundamental_vector(lc.conjugate(h, g), x)) for g in gens)
        if fs.act(h, base) != x or (frame.line_alpha, frame.line_beta, frame.line_c) != lines:
            return False
    return True


@check("frame-base-values", "models",
       "base frames: central line direction e1 in the chart at both anchors")
def _check_frame_base(rng):
    return all((fr.line_alpha, fr.line_beta, fr.line_c) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
               for fr in (md.frame_at(fs.O_A, "a"), md.frame_at(fs.O_T, "t")))


@check("frame-contact-pair-standard", "models",
       "the frame's circle directions match the standard pair at random points",
       samples=100)
def _check_frame_contact_pair(rng):
    for model in ("t", "a"):
        x = rand_interior_flag(rng, model)
        fr = md.frame_at(x, model)
        z = fs.chart_coords(x)[2]
        if fr.line_alpha != (0, 0, 1) or fr.line_beta != primitive((z, 1, 0)):
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
    ((a, b, c), m), ((p, q, r), n) = _rand_ints(rng, 3), _rand_ints(rng, 3)
    v, w = lc.LieVec((0, a, c, 0, 0, b, 0, 0, 0), m), lc.LieVec((0, p, r, 0, 0, q, 0, 0, 0), n)
    try:
        m = md.flat_structure_iso(v, w)
    except md.ContactConditionError:
        return None  # a non-contact pair has no isomorphism to test
    mnums, mden = _cleared(*m)
    mat = _rows(mnums)

    def apply(u):
        # the (X, Y, Z) coordinates of u are its entries (0,1), (1,2), (0,2)
        e = u.nums
        x, y, z = _mat_vec_ints(mat, (e[1], e[5], e[2]))
        return lc.LieVec((0, x, z, 0, 0, y, 0, 0, 0), u.den * mden)

    if apply(md.HEIS_X) != v or apply(md.HEIS_Y) != w:
        return False
    return all(apply(lc.bracket(u1, u2)) == lc.bracket(apply(u1), apply(u2))
               for u1, u2 in ((md.HEIS_X, md.HEIS_Y), (md.HEIS_X, md.HEIS_Z),
                              (md.HEIS_Y, md.HEIS_Z)))


@check("affine-linearization", "models",
       "linear part [[lam,0,0],[0,mu,0],[0,mu x,lam mu]] with translation "
       "(x,y,z); injective morphism", samples=100,
       fixed=lambda: (md.theta_affine(md.HeisElem.identity(), md.HeisAuto.identity())
                      == md.AffineMap.identity()))
def _check_theta_affine(rng):
    g1, g2 = rand_heis(rng), rand_heis(rng)
    f1, f2 = rand_auto(rng), rand_auto(rng)
    m = md.theta_affine(g1, f1)
    if md.theta_affine(*md.heis_semidirect_mul((g1, f1), (g2, f2))) != m.compose(
            md.theta_affine(g2, f2)):
        return False
    expected_linear = ((f1.lam, 0, 0), (0, f1.mu, 0), (0, f1.mu * g1.x, f1.lam * f1.mu))
    return (m.linear, m.translation) == (expected_linear, (g1.x, g1.y, g1.z))


@check("central-flow-identity", "models",
       "alpha-beta rectangle equals x + t^2 e1 exactly, both sign variants", samples=1000,
       fixed=lambda: md.commutator_identity_check((0, 0, 0), 1) == (True, True))
def _check_central_flow(rng):
    p = tuple(rand_frac(rng) for _ in range(3))
    return all(md.commutator_identity_check(p, rand_frac(rng)))


# ---------------------------------------------------------------------------
# classification suite
# ---------------------------------------------------------------------------

@check("subalgebra-table", "classification",
       "dimensions, closure, the 4-or-5 bound, and centralizer values")
def _check_subalgebra_table(rng):
    reports = cls.verify_subalgebra_table()
    return len(reports) >= 7 and all(r.passed for r in reports)


def _isotropy_is_expected_diagonal(case):
    table = cls.isotropy_eigenvalue_table(case)
    off = all(table[i][j] == (0, 0) for i in range(3) for j in range(3) if i != j)
    return tuple(table[i][i] for i in range(3)) == cls.EXPECTED[f"isotropy-{case}"] and off


@check("isotropy-table-block", "classification",
       "block-model isotropy acts with diagonal [3a, -3a, 0]")
def _check_isotropy_t(rng):
    return _isotropy_is_expected_diagonal("t")


@check("isotropy-table-affine", "classification",
       "affine-model isotropy acts with diagonal [2a+b, -a-2b, a-b]")
def _check_isotropy_a(rng):
    return _isotropy_is_expected_diagonal("a")


@check("isotropy-table-translations-sl2", "classification",
       "nilpotent isotropy element has the single off-diagonal 1 in the "
       "(beta, center) slot")
def _check_isotropy_h1(rng):
    table = cls.isotropy_eigenvalue_table("h1")
    b_part = tuple(tuple(table[i][j][1] for j in range(3)) for i in range(3))
    return b_part == ((0, 0, 0), (0, 0, 1), (0, 0, 0))


@check("isotropy-table-similarity", "classification",
       "similarity-model isotropy has zero rate on the alpha direction")
def _check_isotropy_h2(rng):
    return _isotropy_is_expected_diagonal("h2")


def _unique_line_is(alg, base, target):
    res = cls.invariant_transverse_line_search(alg, base)
    return res.kind == "unique" and cls.line_class_equals(res.generator, target, alg, base)


@check("invariant-line-block", "classification",
       "the only invariant transverse line of the block model is the "
       "class of H")
def _check_line_t(rng):
    return _unique_line_is(cls.h_t(), fs.O_T, md.SL2_H)


@check("invariant-line-affine", "classification",
       "the only invariant transverse line of the affine model is the "
       "class of Z")
def _check_line_a(rng):
    return _unique_line_is(cls.h_a(), fs.O_A, md.HEIS_Z)


@check("invariant-line-translations-sl2", "classification",
       "the 5-dimensional translation extension admits no invariant "
       "transverse line")
def _check_line_h1(rng):
    res = cls.invariant_transverse_line_search(cls.h_1(), cls.X1_FLAG)
    return res.kind == "none"


@check("invariant-line-similarity", "classification",
       "the similarity extension leaves a one-parameter family invariant")
def _check_line_h2(rng):
    res = cls.invariant_transverse_line_search(cls.h_2(), fs.O_A)
    return res.kind == "family" and res.family_dim == 1


@check("stabilizer-four-cases", "classification",
       "transverse stabilizers: full / diag(1,1,-2) / diag(-2,1,1) / zero")
def _check_stabilizer_cases(rng):
    table = cls.transverse_stabilizer_cases(cls.h_a(), fs.O_A)
    lines = {"x=0,y!=0": lc.LieVec.diag(1, 1, -2), "x!=0,y=0": lc.LieVec.diag(-2, 1, 1)}
    return (len(table["x=0,y=0"]) == 2 and len(table["x!=0,y!=0"]) == 0
            and all(len(table[case]) == 1 and not table[case][0].is_zero()
                    and in_span([line.nums], table[case][0].nums)
                    for case, line in lines.items()))


@check("degeneration-matrices", "classification",
       "the four transported-generator matrices match their printed values "
       "at t in {1, 1/2, 1/10, 1/100}, and the projected line converges")
def _check_degeneration(rng):
    for case in cls.DEGENERATION_CASES:
        for res in cls.degeneration_samples(case):
            if not res.passed:
                return False, res.sine_distance if res.matches else None
    return True


@check("degeneration-symbolic", "classification",
       "matrices equal their printed Laurent tables exactly at the seven SYMBOLIC_TIMES")
def _check_degeneration_tables(rng):
    return all(cls.degeneration_limit(case, t).matches
               for case in cls.DEGENERATION_CASES for t in cls.SYMBOLIC_TIMES)


@check("flatness-predicate", "classification",
       "holonomy diagonal (a, -a-b, b) forces flatness iff b != -5a and a != -5b")
def _check_flatness_predicate(rng):
    # diag(2^a, 2^(-a-b), 2^b) scales K_alpha by 2^(-a-5b) and K_beta by
    # 2^(5a+b): flatness is forced iff neither component of (1, 1, 0, 0)
    # stays 1.  Pairs on both resonance lines and off them:
    k, two = curv.NormalCurvature.of(1, 1, 0, 0), Fraction(2)
    outs = {(a, b): curv.curvature_action(
        lc.GroupElem([[two ** a, 0, 0], [0, two ** (-a - b), 0], [0, 0, two ** b]]), k)
        for a, b in ((1, -1), (1, -5), (-5, 1), (0, 0), (2, -10), (-10, 2), (-1, 5), (5, -1),
                     (1, 0), (0, 1), (2, 3), (-3, 1))}
    return all(cls.flatness_holonomy_predicate(a, b) == (out.k_alpha != 1 and out.k_beta != 1)
               for (a, b), out in outs.items())


@check("bracket-table-corner", "classification",
       "bracket relations of the corner generator against the graded basis")
def _check_tresse(rng):
    return all(r.passed for r in cls.tresse_bracket_suite())


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


@check("reduce-retraction", "dynamics",
       "fundamental-domain reduction is idempotent and lattice invariant", samples=2000)
def _check_reduce(rng):
    p = tuple(rng.uniform(-8, 8) for _ in range(3))
    r = dyn.reduce_point(p)
    if dyn.reduce_point(r) != r:
        return False
    r2 = dyn.reduce_point(dyn.heis_mul(dyn.LATTICE.random_element(rng), p))
    return max(abs(a - b) for a, b in zip(r2, r)) <= 1e-9


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
    return (max(abs(x - y) for x, y in zip(a, b)) <= 1e-8
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
    reports = [dyn.hyperbolicity_report(rates) for rates in (
        dyn.NilMap.of(_CAT, (0.5, 0.0, 0.125)).exact_rates(), dyn.sl2_frame_rates(1.0))]
    rep = dyn.hyperbolicity_report((math.log(2), math.log(3), math.log(6)))
    return (all(r.n_certified == 1 for r in reports)
            and not rep.partially_hyperbolic)


@check("volume-obstruction", "dynamics",
       "same-side multiplier pairs are obstructed; reciprocal pairs admissible")
def _check_volume(rng):
    obstructed = ((0.5, 1 / 3), (2.0, 3.0))
    admissible = ((2.618, 1 / 2.618), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.0), (1.0, 0.5))
    return all(dyn.volume_obstruction_check(*pair) == verdict
               for pairs, verdict in ((obstructed, "obstructed"), (admissible, "admissible"))
               for pair in pairs)


REGISTRY = tuple(_REGISTRY)
