"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

# Every p/q with 1 <= q <= 9 and |p/q| <= 9: the 505 values of
# st.fractions(min_value=-9, max_value=9, max_denominator=9), drawn from a
# list, which is about ten times cheaper.  Smallest first, so that shrinking
# still heads to 0.
small_fractions = st.sampled_from(sorted(
    {Fraction(p, q) for q in range(1, 10) for p in range(-9 * q, 9 * q + 1)},
    key=lambda f: (abs(f), f.denominator, f < 0)))
