"""The fork helper, `workers.split`, on a trivial work, and its guard: no
other module of src forks, reaps, kills or leaves a process."""

import ast
from pathlib import Path

import pytest

from flagdyn import workers
from children import assert_no_child_left


def _lines(k):
    """k lines of text, each the number k: no text for share 0."""
    return [f"{k}\n"] * k


@pytest.mark.parametrize("shares", [[0], [3], [2, 0], [0, 4, 1], [1, 3, 0, 2], [4, 2, 3, 0]])
def test_split_yields_the_text_of_every_share_in_order(shares):
    with workers.split(shares, _lines) as text:
        assert "".join(text) == "".join("".join(_lines(k)) for k in shares)
    assert_no_child_left()


_PROCESS_CALLS = {"fork", "waitpid", "kill", "_exit"}


def test_only_workers_forks_reaps_kills_or_leaves_a_process():
    # the split's policy stays in one module: no other module of src calls
    # os.fork, os.waitpid, os.kill or os._exit, or imports them from os
    src = Path(workers.__file__).resolve().parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                callers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & _PROCESS_CALLS, path.name
    assert callers == {"workers.py"}
