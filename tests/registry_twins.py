"""Run registered checks from the tests.

Each check runs at most once per pytest run, at the CLI's default seed and at
its own default sample count, so a failure reproduces with
`flagdyn verify --suite <suite> --seed 0`.
"""

import functools

from flagdyn import checks

SEED = 0

_BY_ID = {check_id: (suite, fn) for check_id, suite, _, fn in checks.REGISTRY}


@functools.cache
def _run(check_id):
    suite, fn = _BY_ID[check_id]
    passed, residual = fn(checks.check_rng(SEED, check_id), None)
    return suite, passed, residual


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
