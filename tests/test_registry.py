"""Every registered check passes at seed 0 and its default sample count.

One test per check, with the check id as the test id:
`pytest -k <check-id>` runs one check.
"""

import pytest

from flagdyn import checks
from registry_twins import assert_check_passes


@pytest.mark.parametrize("check_id", [entry[0] for entry in checks.REGISTRY])
def test_registered_check(check_id):
    assert_check_passes(check_id)
