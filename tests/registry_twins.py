"""Run registered checks from the tests.

Each check runs at most once per pytest run, at the CLI's default seed and at
its own default sample count, through `checks.run_check` (the runner the CLI
uses), so a failure reproduces with `flagdyn verify --suite <suite> --seed 0`.
"""

import functools
from fractions import Fraction

from flagdyn import checks
from flagdyn.checks import run_check  # noqa: F401  (re-exported for the tests)

SEED = 0


@functools.cache
def _run(check_id):
    return run_check(check_id, SEED)


def assert_check_passes(check_id):
    passed, residual = _run(check_id)
    suite = next(s for cid, s, _, _ in checks.REGISTRY if cid == check_id)
    assert passed, (f"check {check_id} (suite {suite}) failed, residual={residual}; "
                    f"reproduce with: flagdyn verify --suite {suite} --seed {SEED}")


def fractions_built(monkeypatch, run):
    """run() and the number of Fractions built while it runs, counted by
    wrapping `Fraction.__new__` (the wrapper is undone before returning)."""
    built, original = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(1) or original(cls, *args, **kwargs)))
    result = run()
    monkeypatch.undo()
    return result, len(built)


def twin(check_id):
    """A test asserting that the registered check `check_id` passes.  It
    stands in for a test whose property, assertions and sample count the
    check covers."""
    def test(*_):
        assert_check_passes(check_id)
    return test
