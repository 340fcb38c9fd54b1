"""The tests' independent reference product of two Laurent chunks.

``laurent_mul`` multiplies two chunks on a window through ``mul_raw`` with
no degree cap, guarded by the chunks' stored windows and supports
(``check_splits``), apart from the chains that ``laurent._fold`` builds.
"""

from qvertex.errors import WindowUnderflow
from qvertex.laurent import (NVARS, VARS, LaurentChunk, Window, iv_add,
                             iv_intersect, mul_raw)


def _deficits(w, s):
    """Parts of support s strictly outside the finite window w."""
    out = []
    if s[0] is None or s[0] < w[0]:
        out.append((s[0], w[0] - 1))
    if s[1] is None or s[1] > w[1]:
        out.append((w[1] + 1, s[1]))
    return out


def check_splits(wa: Window, sa, wb: Window, sb, window: Window):
    """Raise WindowUnderflow when some exponent of the window has a split
    x + y, with x in support sa and y in support sb, that leaves the
    stored window wa of x or wb of y: the soundness guard of a product of
    two chunks stored on wa and wb."""
    for i in range(NVARS):
        unsound = ([iv_add(d, sb[i]) for d in _deficits(wa.bounds[i], sa[i])]
                   + [iv_add(d, sa[i])
                      for d in _deficits(wb.bounds[i], sb[i])])
        for u in unsound:
            if iv_intersect(window.bounds[i], u) is not None:
                raise WindowUnderflow(
                    f"{VARS[i]}: requested {window.bounds[i]} needs {u}")


def laurent_mul(a: LaurentChunk, b: LaurentChunk,
                window: Window) -> LaurentChunk:
    """Sound product of two chunks on the given window, keeping every
    weight (``mul_raw`` with no cap): the tests' reference product, built
    apart from the chains of ``_fold``.

    Raises WindowUnderflow when some requested exponent has a split x + y,
    with x and y in the operand supports, that leaves a stored window
    (``check_splits``).
    """
    check_splits(a.window, a.support, b.window, b.support, window)
    return mul_raw(a, b, window)
