"""Exact symbolic engine and verifier for a t-deformed rank-one lattice
vertex algebra realized on Hall-Littlewood symmetric functions.

All arithmetic is exact: rational coefficients, polynomial truncation in
the deformation parameter t, and explicit exponent windows for Laurent
expansions.  No floating point anywhere.  The layers live in their own
modules (see the README); the package root exports the library entry
points and the exception hierarchy.
"""

__version__ = "0.1.0"

from .engine import jing_Q
from .errors import (EmptyComparison, NonExpandableFactor, OutsideWindow,
                     QVertexError, TooFewVariables, TruncationMismatch,
                     UnsupportedCharge, WindowUnderflow, ZeroConstantTerm)
from .verifier import CHECK_IDS, CheckReport, run_check

__all__ = [
    "CHECK_IDS", "CheckReport", "EmptyComparison", "NonExpandableFactor",
    "OutsideWindow", "QVertexError", "TooFewVariables", "TruncationMismatch",
    "UnsupportedCharge", "WindowUnderflow", "ZeroConstantTerm", "jing_Q",
    "run_check",
]
