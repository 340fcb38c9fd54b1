"""Exact rational numbers, with ``fractions`` loaded only when one is.

The engine's coefficients are Python ints: integer t-rows over one common
denominator (``SymFuncP``, scalars included as its weight-0 part, the
Laurent product ``laurent.mul_raw``, the Jacobi rows of the verifier),
the Z[t] strip recursion of the Hall-Littlewood oracle in ``symfunc``,
and the closed-form data (factor prefactors and the coefficients of
their linear forms), which are integers for every identity the verifier
checks.  ``rational`` is the one exact division: it returns an int when
the quotient is integral and a ``fractions.Fraction`` otherwise, so a
true fraction (a user's ``tp("1/2")``, a dominant term with coefficient
2) stays exact.

``Rat`` is ``fractions.Fraction``, imported on first use through this
module's ``__getattr__``: importing the package, and every check that
passes, loads neither ``fractions`` nor the ``decimal`` and ``numbers``
modules it brings.  The reference code and the printed tables read it
as ``rationals.Rat`` when they run, never bind it at import.
"""

import sys


def __getattr__(name):
    if name == "Rat":
        from fractions import Fraction
        globals()["Rat"] = Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def rational(a, b=1):
    """a / b exactly: an int when b divides a, else a Fraction.

    a is anything Fraction accepts (an int, a Fraction, a string such as
    "1/2"), b an int or a Fraction; two ints never load ``fractions``
    unless their quotient is a true fraction.  A zero b raises
    ZeroDivisionError.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    rat = __getattr__("Rat")
    f = rat(a) if b == 1 else rat(a, b)
    return f.numerator if f.denominator == 1 else f


def is_rational(x) -> bool:
    """Whether x is an int or a Fraction.  It never loads ``fractions``:
    no Fraction exists before that module is loaded."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)
