"""Exact rational number type.

``Rat`` is ``fractions.Fraction``.  The hot t-series arithmetic in
``scalars.TScalar`` and the Hall-Littlewood oracle in ``symfunc`` run on
Python ints over a common denominator, so the remaining rational work
(exact t-polynomials, closed-form expansion) stays on the standard
library.
"""

from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)
