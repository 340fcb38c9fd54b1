"""Exact rational number type.

``Rat`` is ``fractions.Fraction``.  The hot arithmetic runs on Python
ints: integer t-rows over one common denominator (``SymFuncP``, scalars
included as its weight-0 part, the Laurent product ``laurent.mul_raw``,
the Jacobi rows of the verifier) and the Z[t] Hall-Littlewood oracle in
``symfunc``.  The remaining rational work (exact t-polynomials, the
closed-form expansion up to its rows, reading and printing coefficients)
stays on the standard library.
"""

from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)
