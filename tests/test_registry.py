"""Every registered check passes at seed 0 and its default sample count.

One test per check, with the check id as the test id:
`pytest -k <check-id>` runs one check.  The tests after it cover the
registry itself: the sampling loop of per-draw checks, and the check counts
the benchmark pins.
"""

import ast
import collections
import math
from pathlib import Path

import pytest

from flagdyn import checks
from registry_twins import assert_check_passes

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("check_id", [entry[0] for entry in checks.REGISTRY])
def test_registered_check(check_id):
    assert_check_passes(check_id)



class DrawCounter:
    """A per-draw predicate that counts its draws and fails from draw
    number `fail_at` on."""

    def __init__(self):
        self.draws = 0
        self.fail_at = math.inf

    def __call__(self, rng):
        rng.random()
        self.draws += 1
        return self.draws < self.fail_at


@pytest.fixture
def counter(monkeypatch):
    """The one check, "counted" (5 draws by default), of a patched registry."""
    monkeypatch.setattr(checks, "_REGISTRY", [])
    counter = DrawCounter()
    checks.check("counted", "test", "counts its draws", samples=5)(counter)
    return counter


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
