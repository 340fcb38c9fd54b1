"""Exception hierarchy.

Everything raised on purpose by this package derives from QVertexError, so
callers can distinguish a modelling error (bad window, non-expandable
factor, mismatched truncation orders) from a genuine bug.
"""


class QVertexError(Exception):
    pass


class ZeroConstantTerm(QVertexError):
    """Inversion of a t-series whose constant term vanishes."""


class TruncationMismatch(QVertexError):
    """Binary operation on series with different truncation orders."""


class NonExpandableFactor(QVertexError):
    """A factor product has no valid geometric expansion in the region."""


class WindowUnderflow(QVertexError):
    """A requested exponent window cannot be computed soundly."""


class OutsideWindow(QVertexError):
    """Coefficient access outside the window where a chunk is known."""


class EmptyComparison(QVertexError):
    """A check compared zero monomials; the parameters are vacuous."""


class TooFewVariables(QVertexError):
    """An x-realization with fewer variables than the partition length."""


class UnsupportedCharge(QVertexError):
    """Lattice charge outside the supported range 0..3."""
