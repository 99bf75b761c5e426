"""Every registered check passes at seed 0 and its default sample count.

One test per check, with the check id as the test id:
`pytest -k <check-id>` runs one check.  This is the tests' one run of each
check at its defaults; a test elsewhere that needs more calls
`checks.run_check(id, seed, samples)` at its own seed and count, and no
test re-implements a sampled check body.  Example tests elsewhere state
some checks' fixed values (a bracket, an isotropy diagonal, an invariant
line), so that a failure prints the value where the check returns False.
The tests after it cover the registry's one runner (its draws, fixed part,
stop rule and residuals, and the failure of a check that tested nothing),
that every entry binds it to its body with `functools.partial`, the
per-model sample count of the two-model checks, the check counts the
benchmark pins, the split of `run_checks` over worker processes, which must
change no outcome, a check that raises, unknown names, the draw helpers,
which must keep the random streams of `random.Random.randint` and draw
through one law, the rule that no comparison names a model by a string,
the rule that no classification table and no module-level value of
`checks` or `curvature` holds a lambda, the rule that
matrices reach the integer kernels flat and become rows only in the public
row views, the rule that `src` holds only what the program runs, the
methods that perfbench's tracer wraps, the rule that a check enters more
than the one predicate it names, and the table of the checks whose verdict
rests on float code.
"""

import ast
import collections
import functools
import json
import math
import numbers
import os
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import cli
from flagdyn import curvature as curv
from flagdyn import flag_space as fs
from flagdyn import lie_core as lc
from flagdyn import models as md
from flagdyn import rational as R
from flagdyn.rational import _cleared
from children import assert_no_child_left, child_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("check_id, suite", [entry[:2] for entry in checks._REGISTRY],
                         ids=[entry[0] for entry in checks._REGISTRY])
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
    assert [c["pass"] for c in checks.run_checks(samples=0)] == [False]
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


@pytest.mark.parametrize("runner", [entry[3] for entry in checks._REGISTRY],
                         ids=[entry[0] for entry in checks._REGISTRY])
def test_runner_is_run_bound_to_its_body(runner):
    # the body is the function the decorator returned; one call of it
    # returns None, a bool or a (bool, residual) pair
    assert isinstance(runner, functools.partial) and runner.func is checks._run
    body, default, fixed, worst = runner.args
    assert not runner.keywords and getattr(checks, body.__name__) is body
    assert (default is None or default >= 1) and (fixed is None or callable(fixed))
    assert worst in (None, max, min)
    out = body(random.Random(0))
    passed, residual = out if isinstance(out, tuple) else (out, None)
    assert out is None or isinstance(passed, bool)
    assert residual is None or isinstance(residual, numbers.Real)


@pytest.mark.parametrize("check_id", ["region-orbit-rank", "circle-boundary-unique",
                                      "contact-model-frames", "frame-contact-pair-standard",
                                      "frame-well-defined"])
def test_two_model_checks_test_the_samples_in_each_model(check_id, monkeypatch):
    # one input per model in each draw, so 7 samples test 7 of each; a
    # `rand_flag` draw counts for the model the check classifies it in
    drawn, plain = collections.Counter(), []
    names = {model.special_point: model.name for model in md.MODELS}
    rand_flag, rand_interior_flag, classify = (checks.rand_flag, checks.rand_interior_flag,
                                               fs.region_classify)
    monkeypatch.setattr(checks, "rand_flag", lambda rng: plain.append(rand_flag(rng)) or plain[-1])
    monkeypatch.setattr(checks, "rand_interior_flag", lambda rng, model: drawn.update(
        [model.name]) or rand_interior_flag(rng, model))
    monkeypatch.setattr(fs, "region_classify", lambda x, m_sp: drawn.update(
        [names[m_sp]] if any(x is y for y in plain) else []) or classify(x, m_sp))
    assert checks.run_check(check_id, samples=7) == (True, None)
    assert drawn == {"t": 7, "a": 7}


@pytest.mark.parametrize("check_id", [entry[0] for entry in checks._REGISTRY])
def test_zero_samples_fail_without_running(check_id, monkeypatch):
    def no_stream(seed, check_id):
        raise AssertionError("the check ran")

    monkeypatch.setattr(checks, "check_rng", no_stream)
    assert checks.run_check(check_id, samples=0) == (False, None)


def _pinned(script, name):
    """The literal value that perfbench/`script` assigns to `name`."""
    tree = ast.parse((ROOT / "perfbench" / script).read_text())
    [value] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == name for t in node.targets)]
    return value


def test_registry_matches_the_benchmark_case_counts():
    # perfbench pins how many checks each verify workload runs; a check added
    # or dropped here must be matched there
    pinned = _pinned("run.py", "CASE_COUNTS")
    counts = collections.Counter(suite for _, suite, _, _ in checks._REGISTRY)
    assert pinned == {"all": len(checks._REGISTRY),
                      **{suite: counts[suite] for suite in pinned if suite != "all"}}


# ---------------------------------------------------------------------------
# run_checks splits the checks over worker processes
# ---------------------------------------------------------------------------

def _one_at_a_time(suite, seed, samples):
    """The cases of run_checks, each check run alone in this process."""
    cases = []
    for check_id, suite_name, anchor, _ in sorted(checks._REGISTRY):
        if suite is not None and suite_name != suite:
            continue
        try:
            passed, residual = checks.run_check(check_id, seed, samples)
        except Exception:
            passed, residual = False, None
        cases.append({"id": check_id, "anchor": anchor, "pass": passed, "residual": residual})
    return cases


@pytest.mark.parametrize("seed", [0, 39])
@pytest.mark.parametrize("suite", [None] + checks.suites())
def test_split_changes_no_outcome(suite, seed):
    assert checks.run_checks(suite, seed, samples=2) == _one_at_a_time(suite, seed, 2)
    assert_no_child_left()


def _worker_of():
    """check id -> the worker that runs it in run_checks(), 0 the caller."""
    ids = sorted(check_id for check_id, _, _, _ in checks._REGISTRY)
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


def test_a_raising_check_fails_alone_and_fails_the_run(monkeypatch, capsys):
    # its body raises, in a forked worker when there is more than one: the
    # case fails with no residual, no other case changes, and verify exits 1
    worker_of = _worker_of()
    raising = max(worker_of, key=worker_of.get)
    before = checks.run_checks(seed=0, samples=1)
    monkeypatch.setattr(checks, "_REGISTRY", [
        (cid, suite, anchor, (lambda rng, samples: 1 // 0) if cid == raising else run)
        for cid, suite, anchor, run in checks._REGISTRY])
    assert checks.run_checks(seed=0, samples=1) == [
        {**case, "pass": False, "residual": None} if case["id"] == raising else case
        for case in before]
    assert all(case["pass"] for case in before)
    assert cli.main(["verify", "--samples", "1"]) == 1
    assert f"[FAIL] {raising} " in capsys.readouterr().out
    assert_no_child_left()


def test_unknown_check_and_suite_raise_key_error():
    with pytest.raises(KeyError, match="no-such-check"):
        checks.run_check("no-such-check")
    with pytest.raises(KeyError, match="no-such-suite"):
        checks.run_checks("no-such-suite")


# ---------------------------------------------------------------------------
# the draw helpers keep the streams of random.Random.randint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(-9, 9), (1, 9), (0, 0), (0, 1), (-1, 1),
                                    (5, 1000), (-(2 ** 40), 2 ** 40)])
def test_below_draws_what_randint_draws(lo, hi):
    # `checks._rand_ints` writes randint out as getrandbits(n.bit_length())
    # over n values, redrawn while it is n or more; if a future CPython
    # changes randint, this fails, and the streams of the checks become the
    # ones `_rand_ints` defines
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
    return curv.NormalCurvature(*_cleared([randint_frac(rng) for _ in range(4)]))


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
        if model is md.BLOCK and (x - y * z == 0 or x == y == 0):
            continue
        # the chart flag at (x, y, z) as the Fraction two-point form builds it
        flag = fs.Flag.of((x, y, 1), (x + z, y + 1, 1))
        if fs.region_classify(flag, model.special_point) is fs.Region.INTERIOR:
            return flag


def randint_sl2(rng):
    while True:
        a, b, c = (randint_frac(rng) for _ in range(3))
        if a != 0:
            return md.Block(*_cleared((a, b, c, (1 + b * c) / a)))


def randint_heis(rng):
    return md.HeisElem(*_cleared([randint_frac(rng) for _ in range(3)]))


def randint_auto(rng):
    return md.HeisAuto(*_cleared([randint_nonzero(rng), randint_nonzero(rng)]))


def randint_stabilizer(rng, model):
    # diag(1, d, 1) in BLOCK, diag(d1, d2, d3) in AFFINE
    if model is md.BLOCK:
        return lc.GroupElem([[1, 0, 0], [0, randint_nonzero(rng), 0], [0, 0, 1]])
    return lc.GroupElem([[randint_nonzero(rng), 0, 0], [0, randint_nonzero(rng), 0],
                         [0, 0, randint_nonzero(rng)]])


@pytest.mark.parametrize("ours, theirs", [
    (checks.rand_frac, randint_frac),
    (checks.rand_lievec, randint_lievec),
    (checks.rand_traceless, randint_traceless),
    (checks.rand_curvature, randint_curvature),
    (checks.rand_group, randint_group),
    (checks.rand_flag, randint_flag),
    (checks.rand_upper, randint_upper),
    (functools.partial(checks.rand_interior_flag, model=md.BLOCK),
     functools.partial(randint_interior_flag, model=md.BLOCK)),
    (functools.partial(checks.rand_interior_flag, model=md.AFFINE),
     functools.partial(randint_interior_flag, model=md.AFFINE)),
    (checks.rand_sl2, randint_sl2),
    (checks.rand_heis, randint_heis),
    (checks.rand_auto, randint_auto),
    (checks.nonzero_frac, randint_nonzero),
    (functools.partial(checks.rand_stabilizer, model=md.BLOCK),
     functools.partial(randint_stabilizer, model=md.BLOCK)),
    (functools.partial(checks.rand_stabilizer, model=md.AFFINE),
     functools.partial(randint_stabilizer, model=md.AFFINE))],
    ids=["frac", "lievec", "traceless", "curvature", "group", "flag", "upper", "interior-flag-t",
         "interior-flag-a", "sl2", "heis", "auto", "nonzero-frac", "stabilizer-t", "stabilizer-a"])
def test_generators_keep_the_randint_streams(ours, theirs):
    # the integer-built generators against their Fraction-built forms on
    # randint: the same objects, and the stream left in the same state
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert [ours(a) for _ in range(50)] == [theirs(b) for _ in range(50)]
        assert a.getstate() == b.getstate()


def test_one_function_draws_the_bits():
    # every exact draw goes through the one law that the stream tests pin:
    # getrandbits is read only inside checks._rand_ints
    def reads(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "getrandbits"]

    src = Path(checks.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    [law] = [node for node in trees["checks"].body
             if isinstance(node, ast.FunctionDef) and node.name == "_rand_ints"]
    inside = reads(law)
    outside = [(module, n.lineno) for module, tree in trees.items()
               for n in reads(tree) if n not in inside]
    assert inside and outside == []


def test_no_comparison_names_a_model_by_string():
    # a model is one of the `models.Model` records, told apart by identity;
    # no comparison in src has a model's name, "t" or "a", as an operand
    src = Path(checks.__file__).resolve().parent
    found = [(path.stem, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Compare)
             and any(isinstance(e, ast.Constant) and e.value in ("t", "a")
                     for e in (node.left, *node.comparators))]
    assert found == []


def test_no_classification_table_holds_a_lambda():
    # each table entry is a value: a subgroup is `unipotent` of a generator,
    # an isotropy parametrization its generators, and a vector field of the
    # checks a ring field, so the data can be checked
    found = [(module.__name__, node.lineno) for module in (cls, checks, curv)
             for stmt in ast.parse(Path(module.__file__).read_text()).body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt) if isinstance(node, ast.Lambda)]
    assert found == []


def test_no_property_is_built_from_a_lambda():
    # a record's values are read through its ints, `nums` and `den`; a
    # property(lambda ...) component view builds a Fraction on every read
    src = Path(checks.__file__).resolve().parent
    found = [(path.stem, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _callee(node) == "property"
             and any(isinstance(n, ast.Lambda) for arg in node.args for n in ast.walk(arg))]
    assert found == []


def _calls(src):
    """(where, call) for each call in src/flagdyn: where is module.qualname
    of the function, method or class that holds it, or the module's name."""
    for path in sorted(src.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text()))]
        while stack:
            where, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    yield where, child
                named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
                stack.append((f"{where}.{child.name}" if named else where, child))


def _callee(call):
    """The bare name that `call` calls, or None."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


# The public views that show a flat matrix as its rows.
ROW_VIEWS = {"lie_core.LieVec.entries", "lie_core.GroupElem.entries", "models.AffineMap.linear",
             "lie_core.quotient_adjoint", "models.flat_structure_iso"}


def test_rows_are_built_only_in_the_public_row_views():
    # every exact matrix is nine ints, row by row; `rational._rows` splits
    # one into rows only for the readers of a displayed matrix
    src = Path(checks.__file__).resolve().parent
    assert {where for where, call in _calls(src) if _callee(call) == "_rows"} == ROW_VIEWS


def _joins_rows(node):
    """Whether `node` is a sum of indexed items, such as a[0] + a[1] + a[2]."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and all(
        _joins_rows(side) or isinstance(side, ast.Subscript) and isinstance(side.slice, ast.Constant)
        for side in (node.left, node.right))


def test_no_kernel_argument_is_built_from_rows():
    # the integer kernels of `rational` take flat matrices: no argument of a
    # call to one transposes with zip(*...), joins rows with +, or names
    # _rows or a row view
    kernels = {name for name, value in vars(R).items()
               if name.endswith("_ints") and getattr(value, "__module__", None) == R.__name__}
    views = {where.rpartition(".")[2] for where in ROW_VIEWS} | {"_rows"}

    def from_rows(arg):
        return any(isinstance(n, ast.Call) and _callee(n) == "zip"
                   and any(isinstance(a, ast.Starred) for a in n.args)
                   or _joins_rows(n)
                   or isinstance(n, ast.Name) and n.id in views
                   or isinstance(n, ast.Attribute) and n.attr in views
                   for n in ast.walk(arg))

    src = Path(checks.__file__).resolve().parent
    found = [(where, call.lineno) for where, call in _calls(src) if _callee(call) in kernels
             and any(from_rows(arg) for arg in (*call.args, *(k.value for k in call.keywords)))]
    assert {"_mul_ints", "_mat_vec_ints", "_vec_mat_ints", "_adjugate_ints"} <= kernels
    assert found == []


# ---------------------------------------------------------------------------
# src holds what the program runs
# ---------------------------------------------------------------------------

# The registry or a CLI command enters every function and method of
# src/flagdyn; a routine that only tests call is in tests/references.py.
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
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout)
    assert codes == [0] * len(codes)
    entered = {tuple(e) for dump in tmp_path.glob("entered-*.json")
               for e in json.loads(dump.read_text())}
    never = {name for name, where in _defined(src) if where not in entered}
    assert never == set()


def test_the_tracer_finds_its_methods_on_their_classes():
    # perfbench/tracer.py wraps these methods, looked up in each class's own
    # __dict__; one that is deleted or inherited fails every traced run
    missing = {f"{name}.{method}" for name, methods in _pinned("tracer.py", "METHODS").items()
               for method in methods if method not in vars(getattr(lc, name))}
    assert missing == set()


# The registered checks that enter only one function or method of src outside
# `checks`, so that they restate their claim as one predicate, each with the
# reason it stays.
RESTATES = {
    "volume-obstruction": "evaluates only dynamics.volume_obstruction_check on fixed "
                          "multiplier pairs; its verdict is to come from the exact "
                          "determinant of the affine linearization, models.theta_affine",
}


def test_every_check_enters_more_than_one_predicate():
    # each check runs once at samples=1 under a profiler, in this process
    src = Path(checks.__file__).resolve().parent
    names = {where: name for name, where in _defined(src) if not name.startswith("checks.")}
    restating = set()
    for check_id, _, _, _ in checks._REGISTRY:
        entered = set()

        def note(frame, event, arg):
            if event == "call":
                entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        previous = sys.getprofile()
        sys.setprofile(note)
        try:
            checks.run_check(check_id, 0, 1)
        finally:
            sys.setprofile(previous)
        if len({names[e] for e in entered if e in names}) < 2:
            restating.add(check_id)
    assert restating == set(RESTATES)


# The registered checks whose verdict rests on float code, each with the
# reason it stays: the check's body or its `fixed` predicate holds a float
# constant or calls into `dynamics`, `commutator_slope` or
# `degeneration_samples`.  A change that makes a verdict exact deletes its row.
FLOAT_VERDICTS = {
    "flow-commutator-slope": "an exact claim behind a float gate: the log-log slope of the "
                             "float flow-commutator defect against 2.9",
    "fundamental-finite-difference": "an exact claim behind a float gate: the exact difference "
                                     "quotient's error, rounded to a float, against a tolerance",
    "volume-obstruction": "an exact claim behind a float gate: dynamics.volume_obstruction_check "
                          "on float multiplier pairs",
    "hyperbolicity-certificates": "an exact claim behind a float gate: the certificate reads "
                                  "float logs of the rates",
    "reduce-retraction": "tests float code, the fundamental-domain reduction of float points",
    "reduce-commutes-with-map": "tests float code, the float nilmanifold map and its reduction",
    "lyapunov-cat-map": "tests float code, the measured Lyapunov rates",
    "sl2-frame-rates": "tests float code, the float rates of the diagonal flow",
    "lattice-closure": "exact already: its floats are small integers and half-integers, and "
                       "they and their products are exact in binary",
    "degeneration-matrices": "decides in ints; the float is the sine distance, the residual "
                             "of a failure",
}


@functools.cache
def _parsed(path):
    return ast.parse(Path(path).read_text())


def _function_node(fn):
    """The ast node of the function or lambda `fn`, a partial read as its
    function: the node whose first line, a decorator's when there is one, is
    the first line of its code."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    line = fn.__code__.co_firstlineno
    return next(node for node in ast.walk(_parsed(fn.__code__.co_filename)) if isinstance(node, (ast.FunctionDef, ast.Lambda))
                and min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                == line)


def test_float_verdicts_are_the_table():
    # a scan of each registered body and its fixed predicate
    float_code = {"commutator_slope", "degeneration_samples"}

    def floating(node):
        return any(isinstance(n, ast.Constant) and type(n.value) is float
                   or isinstance(n, ast.Name) and n.id in float_code
                   or isinstance(n, ast.Attribute) and (n.attr in float_code
                                                        or isinstance(n.value, ast.Name)
                                                        and n.value.id == "dyn")
                   for n in ast.walk(node))

    flagged = set()
    for check_id, _, _, runner in checks._REGISTRY:
        body, _, fixed, _ = runner.args
        if any(floating(_function_node(fn)) for fn in (body, fixed) if fn is not None):
            flagged.add(check_id)
    assert flagged == set(FLOAT_VERDICTS)


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
    assert unread == set()


def test_src_reads_every_import():
    # a name that a module-level import binds is read in that module
    unread = set()
    for path in sorted(Path(checks.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread.update(f"{path.stem}.{name}" for name in bound if name not in read)
    assert unread == set()
