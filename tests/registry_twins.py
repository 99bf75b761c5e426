"""Run registered checks from the tests.

Each check runs at most once per pytest run, at the CLI's default seed and at
its own default sample count, so a failure reproduces with
`flagdyn verify --suite <suite> --seed 0`.
"""

import functools

from flagdyn import checks

SEED = 0

_BY_ID = {check_id: (suite, fn) for check_id, suite, _, fn in checks.REGISTRY}


def run_check(check_id, seed=SEED, samples=None):
    """(passed, residual) of a registered check, as `run_checks` runs it."""
    _, fn = _BY_ID[check_id]
    return fn(checks.check_rng(seed, check_id), samples)


@functools.cache
def _run(check_id):
    return (_BY_ID[check_id][0], *run_check(check_id))


def assert_check_passes(check_id):
    suite, passed, residual = _run(check_id)
    assert passed, (f"check {check_id} (suite {suite}) failed, residual={residual}; "
                    f"reproduce with: flagdyn verify --suite {suite} --seed {SEED}")


def twin(check_id):
    """A test asserting that the registered check `check_id` passes.  It
    stands in for a test whose property, assertions and sample count the
    check covers."""
    def test(*_):
        assert_check_passes(check_id)
    return test
