"""Count the Fractions a suite of registered checks builds."""

from fractions import Fraction

from flagdyn import checks


def fractions_built(monkeypatch, suite):
    """The (passed, residual) of each check of `suite`, run at seed 0 one at
    a time in this process, and the number of Fractions built while they
    run, counted by wrapping `Fraction.__new__` (the wrapper is undone before
    returning).  `run_checks` would run some checks in forked workers,
    whose Fractions this count does not see."""
    built, original = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(1) or original(cls, *args, **kwargs)))
    outcomes = [checks.run_check(check_id, 0) for check_id, check_suite, _, _ in checks._REGISTRY
                if check_suite == suite]
    monkeypatch.undo()
    return outcomes, len(built)
