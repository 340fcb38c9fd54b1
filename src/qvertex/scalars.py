"""Coefficient arithmetic in the deformation parameter t.

Two representations live here:

* ``TPoly`` -- an exact polynomial in t with no truncation, stored as a
  plain tuple of coefficients with trailing zeros trimmed.  Closed-form
  data (factor prefactors) is kept as rationals so the same object can be
  re-truncated at any order.  The ``tp_*`` helpers keep ints as ints (a
  division only when its divisor is monic), so the Hall-Littlewood oracle
  in ``symfunc`` uses them on integer t-polynomials.

* ``TScalar`` -- a t-adic series in Q[t]/(t^{T+1}), stored as T+1
  integer numerators over one common denominator; degrees above T are
  discarded and mixing two orders raises TruncationMismatch.  The engine
  does not use it: a scalar there is the weight-0 ``SymFuncP``
  (``symfunc.scalar``).  The class and ``ts_invert`` stay as a reference
  implementation for the unit-inversion property of the acceptance suite
  and for the benchmark tracer, which wraps the class by name.

Many-term coefficients (``SymFuncP``, ``XPoly``, the Jacobi rows of the
verifier and the accumulators of the Laurent product ``laurent.mul_raw``)
share one layout: a dict of integer rows -- Z[t] numerators, lowest degree
first -- over one common denominator.  ``canonical_rows`` brings such a
dict to canonical form and ``add_row`` adds one row into it in place.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub

from .errors import TruncationMismatch, ZeroConstantTerm
from .rationals import RAT_ONE, RAT_ZERO, Rat

# ---------------------------------------------------------------------------
# exact t-polynomials


TP_ZERO: tuple = ()
TP_ONE = (RAT_ONE,)


def tp(*coeffs) -> tuple:
    """Build an exact t-polynomial from low-degree-first coefficients."""
    return tp_trim(tuple(Rat(c) for c in coeffs))


def tp_trim(p: tuple) -> tuple:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def tp_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tp_trim(tuple(out))


def tp_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return TP_ZERO
    return tp_trim(tp_mullow(a, b, len(a) + len(b)))


def tp_pow(a: tuple, n: int) -> tuple:
    if n < 0:
        raise ValueError("tp_pow wants n >= 0")
    out = TP_ONE
    for _ in range(n):
        out = tp_mul(out, a)
    return out


def tp_mullow(a: tuple, b: tuple, n: int) -> tuple:
    """a * b truncated to its first n coefficients, untrimmed."""
    out = [0] * min(n, len(a) + len(b) - 1)
    m = len(out)
    for i, ca in enumerate(a[:m]):
        if ca:
            for j, cb in enumerate(b[:m - i], i):
                if cb:
                    out[j] += ca * cb
    return tuple(out)


def tp_eval(a: tuple, x) -> "Rat":
    x = Rat(x)
    acc = RAT_ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def tp_divexact(num: tuple, den: tuple) -> tuple:
    """Exact division in Q[t]; raises if the remainder is nonzero.  A monic
    divisor keeps integer coefficients integers."""
    den = tp_trim(tuple(den))
    if not den:
        raise ZeroDivisionError("tp_divexact by zero")
    rem = list(num)
    d = len(den) - 1
    lead = den[d]
    q = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c if lead == 1 else Rat(c) / lead
        q[i - d] = f
        for j, cd in enumerate(den):
            rem[i - d + j] -= f * cd
    if any(rem):
        raise ValueError("tp_divexact: inexact division")
    return tp_trim(tuple(q))


def tp_str(a: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            tk = "t" if k == 1 else f"t^{k}"
            if c == 1:
                parts.append(tk)
            elif c == -1:
                parts.append(f"-{tk}")
            else:
                parts.append(f"{c!s}*{tk}")
    out = parts[0]
    for s in parts[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def tp_phi(r: int) -> tuple:
    """phi_r(t) = prod_{j=1}^{r} (1 - t^j), with int coefficients."""
    out = (1,)
    for j in range(1, r + 1):
        out = tp_mul(out, (1,) + (0,) * (j - 1) + (-1,))
    return out


def tp_bracket_factorial(m: int) -> tuple:
    """[m]_t! = prod_{j=1}^{m} (1 + t + ... + t^{j-1}), with int
    coefficients; monic."""
    out = (1,)
    for j in range(1, m + 1):
        out = tp_mul(out, (1,) * j)
    return out


# ---------------------------------------------------------------------------
# truncated t-adic scalars


class TScalar:
    """Element of Q[t]/(t^{T+1}), stored as T+1 integer numerators over one
    common denominator (the layout of FLINT's fmpq_poly).

    The form is canonical: den > 0 and gcd(den, *num) == 1, so equal series
    have equal (num, den) and zero is (0, ..., 0) over 1.  ``coeffs``
    rebuilds the tuple of T+1 exact rationals.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: tuple):
        den = lcm(*(c.denominator for c in coeffs))
        self.num = tuple(c.numerator * (den // c.denominator)
                         for c in coeffs)
        self.den = den

    # -- constructors

    @classmethod
    def zero(cls, t_order: int) -> "TScalar":
        return _ts((0,) * (t_order + 1), 1)

    @classmethod
    def one(cls, t_order: int) -> "TScalar":
        return _ts((1,) + (0,) * t_order, 1)

    @classmethod
    def from_rat(cls, c, t_order: int) -> "TScalar":
        c = Rat(c)
        return _ts((c.numerator,) + (0,) * t_order, c.denominator)

    @classmethod
    def from_tpoly(cls, p: tuple, t_order: int) -> "TScalar":
        n = t_order + 1
        q = tuple(Rat(c) for c in p[:n])
        return cls(q + (RAT_ZERO,) * (n - len(q)))

    @classmethod
    def t_power(cls, k: int, t_order: int) -> "TScalar":
        c = [0] * (t_order + 1)
        if 0 <= k <= t_order:
            c[k] = 1
        return _ts(tuple(c), 1)

    # -- structure

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Rat(x, den) for x in self.num)

    @property
    def t_order(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not any(self.num)

    def constant_term(self):
        return Rat(self.num[0], self.den)

    def truncate(self, t_order: int) -> "TScalar":
        """Prefix at a lower order; raising the order is not recoverable."""
        if t_order > self.t_order:
            raise TruncationMismatch(
                f"cannot extend truncation {self.t_order} to {t_order}")
        return _reduced(self.num[: t_order + 1], self.den)

    # -- arithmetic

    def _check(self, other: "TScalar"):
        if len(self.num) != len(other.num):
            raise TruncationMismatch(
                f"t-orders differ: {self.t_order} vs {other.t_order}")

    def __add__(self, other):
        other = _coerce(other, len(self.num))
        if other is None:
            return NotImplemented
        self._check(other)
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, len(self.num))
        if other is None:
            return NotImplemented
        self._check(other)
        return _combine(self, other, sub)

    def __rsub__(self, other):
        other = _coerce(other, len(self.num))
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _ts(tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, TScalar):
            self._check(other)
            return _reduced(tp_mullow(self.num, other.num, len(self.num)),
                            self.den * other.den)
        if isinstance(other, (int, Rat)):
            return _scaled(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "TScalar":
        return _scaled(self, c if isinstance(c, (int, Rat)) else Rat(c))

    def __eq__(self, other):
        other = _coerce(other, len(self.num))
        if other is None:
            return NotImplemented
        self._check(other)
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"TScalar({tp_str(tp_trim(self.coeffs))}; T={self.t_order})"

    def __str__(self):
        return tp_str(tp_trim(self.coeffs))


def _ts(num: tuple, den: int) -> TScalar:
    """A TScalar from parts already in canonical form."""
    s = object.__new__(TScalar)
    s.num = num
    s.den = den
    return s


def _reduced(num: tuple, den: int) -> TScalar:
    """A TScalar from num/den with den > 0, brought to canonical form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(map(floordiv, num, repeat(g)))
            den //= g
    return _ts(num, den)


def _combine(a: TScalar, b: TScalar, op) -> TScalar:
    """a op b for op in (add, sub), over the lcm of the denominators."""
    da, db = a.den, b.den
    if da == db:
        return _reduced(tuple(map(op, a.num, b.num)), da)
    g = gcd(da, db)
    fa, fb = db // g, da // g
    an = a.num if fa == 1 else map(mul, a.num, repeat(fa))
    bn = b.num if fb == 1 else map(mul, b.num, repeat(fb))
    return _reduced(tuple(map(op, an, bn)), da * fa)


def _scaled(s: TScalar, c) -> TScalar:
    """s times an int or Rat."""
    p = c.numerator
    num = s.num if p == 1 else tuple(map(mul, s.num, repeat(p)))
    return _reduced(num, s.den * c.denominator)


def _coerce(x, n: int):
    if isinstance(x, TScalar):
        return x
    if isinstance(x, (int, Rat)):
        return _ts((x.numerator,) + (0,) * (n - 1), x.denominator)
    return None


def ts_invert(s: TScalar) -> TScalar:
    """Multiplicative inverse in Q[t]/(t^{T+1}).

    The constant term must be nonzero; the inverse b is built term by term
    from a0*b0 = 1 and sum_{i+j=k} a_i b_j = 0 for k >= 1.
    """
    a = s.coeffs
    if not a[0]:
        raise ZeroConstantTerm("ts_invert: constant term is zero")
    n = len(a)
    b = [RAT_ZERO] * n
    b[0] = RAT_ONE / a[0]
    for k in range(1, n):
        acc = RAT_ZERO
        for i in range(1, k + 1):
            if a[i]:
                acc += a[i] * b[k - i]
        b[k] = -acc / a[0]
    return TScalar(tuple(b))


# ---------------------------------------------------------------------------
# integer rows over one common denominator


def canonical_rows(num: dict, den: int):
    """(num, den) in canonical form, for integer rows num over den > 0:
    every row a trimmed nonzero tuple, and no common factor of den and all
    numerators, so equal values have equal (num, den)."""
    clean = {}
    g = den
    for key, row in num.items():
        row = tp_trim(tuple(row))
        if row:
            clean[key] = row
            if g != 1:
                g = gcd(g, *row)
    if g != 1:
        clean = {key: tuple(x // g for x in row)
                 for key, row in clean.items()}
        den //= g
    return clean, den


def add_row(acc: dict, key, row, k: int = 1):
    """acc[key] += k * row, in place.

    acc holds lists; a missing key starts at zero and a row longer than
    its list extends it, so rows of any lengths add up.
    """
    a = acc.get(key)
    if a is None:
        acc[key] = list(row) if k == 1 else [k * x for x in row]
        return
    if len(a) < len(row):
        a.extend([0] * (len(row) - len(a)))
    for i, x in enumerate(row):
        a[i] += k * x
