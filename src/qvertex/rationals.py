"""Exact rational number backend.

gmpy2's mpq is noticeably faster on the large exact convolutions in the
engine; fractions.Fraction is a drop-in fallback when gmpy2 is absent.
Both types normalize, hash and compare identically for our purposes and
str() renders "p/q" either way.
"""

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)
