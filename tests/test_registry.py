"""Every registered check passes at seed 0 and its default sample count.

One test per check, with the check id as the test id:
`pytest -k <check-id>` runs one check.  This is the tests' one run of each
check at its defaults; a test elsewhere that needs more calls
`checks.run_check(id, seed, samples)` at its own seed and count, and no
test re-implements a sampled check body.  Example tests elsewhere state
some checks' fixed values (a bracket, an isotropy diagonal, an invariant
line), so that a failure prints the value where the check returns False.
The tests after it cover the
registry's one runner (its draws, fixed part, stop rule and residuals, and
the failure of a check that tested nothing), the per-model sample count of
the two-model checks, the check counts the benchmark pins, the split of
`run_checks` over worker processes, which must change no outcome, the draw
helpers, which must keep the random streams of `random.Random.randint`,
and the rule that `src` holds only what the program runs.
"""

import ast
import collections
import functools
import json
import math
import os
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from flagdyn import checks
from flagdyn import curvature as curv
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn.rational import _cleared
from children import assert_no_child_left

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("check_id, suite", [entry[:2] for entry in checks.REGISTRY],
                         ids=[entry[0] for entry in checks.REGISTRY])
def test_registered_check(check_id, suite):
    passed, residual = checks.run_check(check_id, 0)
    assert passed, (f"check {check_id} (suite {suite}) failed, residual={residual}; "
                    f"reproduce with: flagdyn verify --suite {suite} --seed 0")


class DrawCounter:
    """A body that counts its draws: draw k returns outputs[k] when
    `outputs` is set, else passes until draw number `fail_at`."""

    def __init__(self):
        self.draws, self.fail_at, self.outputs = 0, math.inf, None

    def __call__(self, rng):
        rng.random()
        self.draws += 1
        if self.outputs is not None:
            return self.outputs[self.draws - 1]
        return self.draws < self.fail_at


@pytest.fixture
def register(monkeypatch):
    """register(**options): a DrawCounter as the one check, "counted" (5
    draws by default), of a patched registry."""
    monkeypatch.setattr(checks, "_REGISTRY", [])

    def register(samples=5, **options):
        counter = DrawCounter()
        checks.check("counted", "test", "counts its draws", samples=samples, **options)(counter)
        return counter
    return register


@pytest.fixture
def counter(register):
    return register()


@pytest.mark.parametrize("samples, expected", [(None, 5), (1, 1), (12, 12)])
def test_per_draw_check_makes_the_asked_draws(counter, samples, expected):
    assert checks.run_check("counted", samples=samples) == (True, None)
    assert counter.draws == expected


def test_per_draw_check_stops_at_the_first_failing_draw(counter):
    counter.fail_at = 3
    assert checks.run_check("counted", samples=10) == (False, None)
    assert counter.draws == 3


def test_per_draw_check_fails_without_draws(counter):
    assert checks.run_check("counted", samples=0) == (False, None)
    assert [o.passed for o in checks.run_checks(samples=0)] == [False]
    assert counter.draws == 0


def test_fixed_part_runs_once_before_the_draws(register):
    calls = []
    counter = register(fixed=lambda: calls.append(counter.draws) or True)
    assert checks.run_check("counted", samples=10) == (True, None)
    assert calls == [0] and counter.draws == 10


_FOLDED = [(True, 2.0), None, (True, 3.0), (True, 1.0), None]


@pytest.mark.parametrize("options, outputs, samples, expected, draws", [
    ({"fixed": lambda: False}, None, 10, (False, None), 0),
    ({}, [None, True, None, True, None], None, (True, None), 5),
    ({"worst": max}, [None] * 5, None, (False, None), 5),
    ({"worst": min}, [(True, 0.5), (False, 0.25), (True, 9.0)], None, (False, 0.25), 2),
    ({"worst": max}, _FOLDED, None, (True, 3.0), 5),
    ({"worst": min}, _FOLDED, None, (True, 1.0), 5),
    ({}, _FOLDED, None, (True, None), 5),
    ({"samples": None}, None, 200, (True, None), 1),
    ({"samples": None}, [(True, 0.5)], None, (True, 0.5), 1)],
    ids=["failing-fixed-part-draws-nothing", "skipped-draws-are-not-made-up",
         "nothing-tested-fails", "failing-draw-reports-its-residual", "worst-max-folds",
         "worst-min-folds", "no-worst-no-residual", "fact-runs-once",
         "fact-reports-its-own-residual"])
def test_runner(register, options, outputs, samples, expected, draws):
    counter = register(**options)
    counter.outputs = outputs
    assert checks.run_check("counted", samples=samples) == expected
    assert counter.draws == draws


@pytest.mark.parametrize("check_id", ["region-orbit-rank", "circle-boundary-unique",
                                      "contact-model-frames", "frame-contact-pair-standard",
                                      "frame-well-defined"])
def test_two_model_checks_test_the_samples_in_each_model(check_id, monkeypatch):
    # one input per model in each draw, so 7 samples test 7 of each; a
    # `rand_flag` draw counts for the model the check classifies it in
    drawn, plain = collections.Counter(), []
    rand_flag, rand_interior_flag, classify = (checks.rand_flag, checks.rand_interior_flag,
                                               fs.region_classify)
    monkeypatch.setattr(checks, "rand_flag", lambda rng: plain.append(rand_flag(rng)) or plain[-1])
    monkeypatch.setattr(checks, "rand_interior_flag",
                        lambda rng, model: drawn.update([model]) or rand_interior_flag(rng, model))
    monkeypatch.setattr(fs, "region_classify", lambda x, model: drawn.update(
        [model] if any(x is y for y in plain) else []) or classify(x, model))
    assert checks.run_check(check_id, samples=7) == (True, None)
    assert drawn == {"t": 7, "a": 7}


@pytest.mark.parametrize("check_id", [entry[0] for entry in checks.REGISTRY])
def test_zero_samples_fail_without_running(check_id, monkeypatch):
    def no_stream(seed, check_id):
        raise AssertionError("the check ran")

    monkeypatch.setattr(checks, "check_rng", no_stream)
    assert checks.run_check(check_id, samples=0) == (False, None)


def test_registry_matches_the_benchmark_case_counts():
    # perfbench pins how many checks each verify workload runs; a check added
    # or dropped here must be matched there
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    [pinned] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CASE_COUNTS" for t in node.targets)]
    counts = collections.Counter(suite for _, suite, _, _ in checks.REGISTRY)
    assert pinned == {"all": len(checks.REGISTRY),
                      **{suite: counts[suite] for suite in pinned if suite != "all"}}


# ---------------------------------------------------------------------------
# run_checks splits the checks over worker processes
# ---------------------------------------------------------------------------

def _one_at_a_time(suite, seed, samples):
    """The outcomes of run_checks, each check run alone in this process."""
    outcomes = []
    for check_id, suite_name, anchor, _ in sorted(checks.REGISTRY):
        if suite is not None and suite_name != suite:
            continue
        try:
            passed, residual = checks.run_check(check_id, seed, samples)
        except Exception:
            passed, residual = False, None
        outcomes.append(checks.CheckOutcome(check_id, anchor, passed, residual))
    return outcomes


@pytest.mark.parametrize("seed", [0, 39])
@pytest.mark.parametrize("suite", [None] + checks.suites())
def test_split_changes_no_outcome(suite, seed):
    assert checks.run_checks(suite, seed, samples=2) == _one_at_a_time(suite, seed, 2)
    assert_no_child_left()


def _worker_of():
    """check id -> the worker that runs it in run_checks(), 0 the caller."""
    ids = sorted(check_id for check_id, _, _, _ in checks.REGISTRY)
    workers = min(len(os.sched_getaffinity(0)), len(ids))
    return {i: zlib.crc32(i.encode()) % workers for i in ids}


def test_caller_runs_its_share_only(monkeypatch):
    # the split is static: the caller's share is a function of the ids alone
    ran = []

    def noted(check_id, run):
        return lambda rng, samples: ran.append(check_id) or run(rng, samples)

    monkeypatch.setattr(checks, "_REGISTRY", [
        (cid, suite, anchor, noted(cid, run)) for cid, suite, anchor, run in checks._REGISTRY])
    checks.run_checks(seed=0, samples=1)
    assert ran == [i for i, worker in _worker_of().items() if worker == 0]
    assert_no_child_left()


def test_checks_of_a_dying_worker_run_in_the_caller(monkeypatch):
    # one check leaves its process with code 3 unless it runs in the caller;
    # pick one that a forked worker runs, when there is more than one worker
    worker_of = _worker_of()
    dying = max(worker_of, key=worker_of.get)
    caller = os.getpid()

    def leave_unless_in_caller(run):
        def body(rng, samples):
            if os.getpid() != caller:
                os._exit(3)
            return run(rng, samples)
        return body

    monkeypatch.setattr(checks, "_REGISTRY", [
        (cid, suite, anchor, leave_unless_in_caller(run) if cid == dying else run)
        for cid, suite, anchor, run in checks._REGISTRY])
    assert checks.run_checks(seed=0, samples=2) == _one_at_a_time(None, 0, 2)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# the draw helpers keep the streams of random.Random.randint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(-9, 9), (1, 9), (0, 0), (0, 1), (-1, 1),
                                    (5, 1000), (-(2 ** 40), 2 ** 40)])
def test_below_draws_what_randint_draws(lo, hi):
    # `checks._pair` writes randint out as getrandbits(n.bit_length()) over
    # n values, redrawn while it is n or more; if a future CPython changes
    # randint, this fails, and the streams of the checks become the ones
    # `_pair` defines
    n = hi - lo + 1
    ours, theirs = random.Random(lo ^ hi), random.Random(lo ^ hi)

    def below():
        r = ours.getrandbits(n.bit_length())
        while r >= n:
            r = ours.getrandbits(n.bit_length())
        return r

    assert [lo + below() for _ in range(3000)] == [theirs.randint(lo, hi) for _ in range(3000)]
    assert ours.getstate() == theirs.getstate()


def randint_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def randint_lievec(rng):
    return lc.LieVec.of([[randint_frac(rng) for _ in range(3)] for _ in range(3)])


def randint_traceless(rng):
    rows = [[randint_frac(rng) for _ in range(3)] for _ in range(3)]
    t = rows[0][0] + rows[1][1] + rows[2][2]
    # v - diag(t/3, t/3, t/3)
    return lc.LieVec.of([[e - t / 3 if i == j else e for j, e in enumerate(row)]
                         for i, row in enumerate(rows)])


def randint_curvature(rng):
    return curv.NormalCurvature.of(*(randint_frac(rng) for _ in range(4)))


def randint_group(rng):
    while True:
        try:
            return lc.GroupElem([[randint_frac(rng) for _ in range(3)] for _ in range(3)])
        except ValueError:
            continue


def randint_flag(rng):
    while True:
        try:
            m = [randint_frac(rng) for _ in range(3)]
            q = [randint_frac(rng) for _ in range(3)]
            return fs.Flag.of(m, q)
        except ValueError:
            continue


def randint_nonzero(rng):
    while True:
        f = randint_frac(rng)
        if f != 0:
            return f


def randint_upper(rng):
    return lc.GroupElem([[randint_nonzero(rng), randint_frac(rng), randint_frac(rng)],
                         [0, randint_nonzero(rng), randint_frac(rng)],
                         [0, 0, randint_nonzero(rng)]])


def randint_interior_flag(rng, model):
    while True:
        x, y, z = (randint_frac(rng) for _ in range(3))
        if model == "t" and (x - y * z == 0 or x == y == 0):
            continue
        # the chart flag at (x, y, z) as the Fraction two-point form builds it
        flag = fs.Flag.of((x, y, 1), (x + z, y + 1, 1))
        if fs.region_classify(flag, model) is fs.Region.INTERIOR:
            return flag


def randint_sl2(rng):
    while True:
        a, b, c = (randint_frac(rng) for _ in range(3))
        if a != 0:
            return md.Block(*_cleared((a, b, c, (1 + b * c) / a)))


def randint_heis(rng):
    return md.HeisElem.of(*(randint_frac(rng) for _ in range(3)))


def randint_auto(rng):
    return md.HeisAuto.of(randint_nonzero(rng), randint_nonzero(rng))


@pytest.mark.parametrize("ours, theirs", [
    (checks.rand_frac, randint_frac),
    (checks.rand_lievec, randint_lievec),
    (checks.rand_traceless, randint_traceless),
    (checks.rand_curvature, randint_curvature),
    (checks.rand_group, randint_group),
    (checks.rand_flag, randint_flag),
    (checks.rand_upper, randint_upper),
    (functools.partial(checks.rand_interior_flag, model="t"),
     functools.partial(randint_interior_flag, model="t")),
    (functools.partial(checks.rand_interior_flag, model="a"),
     functools.partial(randint_interior_flag, model="a")),
    (checks.rand_sl2, randint_sl2),
    (checks.rand_heis, randint_heis),
    (checks.rand_auto, randint_auto)],
    ids=["frac", "lievec", "traceless", "curvature", "group", "flag", "upper", "interior-flag-t",
         "interior-flag-a", "sl2", "heis", "auto"])
def test_generators_keep_the_randint_streams(ours, theirs):
    # the integer-built generators against their Fraction-built forms on
    # randint: the same objects, and the stream left in the same state
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert [ours(a) for _ in range(50)] == [theirs(b) for _ in range(50)]
        assert a.getstate() == b.getstate()


# ---------------------------------------------------------------------------
# src holds what the program runs
# ---------------------------------------------------------------------------

# The functions and methods of src/flagdyn that neither the registry nor a CLI
# command calls, each kept on purpose.
KEPT = {
    "curvature.curvature_action_dense":
        "the dense reference that the sparse curvature_action is tested against",
    "curvature._evaluate": "the dense reference's bilinear evaluation",
    "curvature._extract": "the dense reference's reading of the components",
    "curvature._value_on_wedge": "the dense reference's values on the wedge basis",
    "rational.inverse3": "the dense reference's inverse of the quotient adjoint",
    "lie_core.normalizer": "the normalizers of the model algebras; to be registered",
    "flag_space.killing_with_value":
        "push_tangent's generator with a given velocity; to be registered",
    "flag_space.push_tangent": "the differential of the action, by equivariance; to be registered",
    "lie_core.GroupElem.identity": "test handle: the identity of the group",
    "models.AffineMap.of": "test handle: an affine map from its linear part and translation",
    "models.AffineMap.apply": "test handle: an affine map at a point",
}

# Every CLI command once, in a fresh interpreter that records the first line
# of each function it enters.  `verify --seed 0 --samples 1` is
# run_checks(seed=0, samples=1), and `simulate -n 2048` writes 2049 rows, two
# blocks, split over two processes; their forked workers leave through
# `os._exit`, so every process writes what it entered to its own file in the
# working directory, a worker just before it exits.  On one CPU nothing is
# split, so the probe reports two: forking works on one CPU as on two.
_PROBE = """
import contextlib, io, json, os, sys
if len(os.sched_getaffinity(0)) < 2:
    os.sched_getaffinity = lambda pid: {0, 1}
entered = set()
def note(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def dump():
    sys.setprofile(None)
    with open(f"entered-{os.getpid()}.json", "w") as fh:
        json.dump(sorted(entered), fh)
def dump_and_exit(code, exit_process=os._exit):
    dump()
    exit_process(code)
os._exit = dump_and_exit
sys.setprofile(note)
import flagdyn.cli as cli
runs = [["verify", "--seed", "0", "--samples", "1", "--out", "verify.txt"],
        ["simulate", "-n", "2"], ["simulate", "-n", "2", "--out", "orbit.csv"],
        ["simulate", "-n", "2048"],
        ["lyapunov", "-n", "20"]] + [["oracle", case] for case in sorted(cli._ORACLE_CASES)]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
dump()
print(json.dumps(codes))
"""


def _defined(src):
    """(module.qualname, (path, first line)) for each function and method
    of src/flagdyn; the first line is a decorator's when there is one, as
    in the code object.  Dunders other than __init__ and __call__ are left
    out."""
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text()).body
        nodes = [("", n) for n in body]
        nodes += [(f"{c.name}.", n) for c in body if isinstance(c, ast.ClassDef) for n in c.body]
        for prefix, node in nodes:
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if name[:2] == name[-2:] == "__" and name not in ("__init__", "__call__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield f"{path.stem}.{prefix}{name}", (str(path), first)


def test_src_holds_what_the_program_runs(tmp_path):
    src = Path(checks.__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout)
    assert codes == [0] * len(codes)
    entered = {tuple(e) for dump in tmp_path.glob("entered-*.json")
               for e in json.loads(dump.read_text())}
    never = {name for name, where in _defined(src) if where not in entered}
    assert never == set(KEPT)


# The names bound by module-level assignments in src/flagdyn that no code in
# src reads, each kept on purpose.
UNREAD = {
    "checks.REGISTRY": "the public copy of the registry, which the tests and README "
                       "read; the runner reads _REGISTRY, which perfbench/tracer.py "
                       "rewrites in place",
}


def _assigned(tree):
    """The names that the module-level assignments of `tree` bind."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_src_reads_every_module_level_name():
    # a name is read when src loads it bare or as an attribute, in any module
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(checks.__file__).resolve().parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {f"{module}.{name}" for module, tree in trees.items()
              for name in _assigned(tree) if name not in read}
    assert unread == set(UNREAD)
