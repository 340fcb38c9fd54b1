"""Symmetric functions in two guises.

``SymFuncP`` is the one coefficient type of the engine: a finite linear
combination of power-sum monomials p_lambda with truncated t-adic
coefficients.  A scalar -- a prefactor, a braiding or translation scalar
-- is its weight-0 part, one row at the empty partition (``scalar``).  It
carries no degree cap: a term's p-weight is the weight of its partition,
its own arithmetic is exact, and ``weight_truncate`` projects onto the
quotient by the span of high-weight terms.  The cap is an argument of the
operations that raise the weight (the Laurent product, D and the E+
rows), which drop what lies above it.

``XPoly`` is an exact polynomial in finitely many variables x_1..x_n with
exact t-polynomial coefficients.  Both store Z[t] numerator rows over one
common denominator, canonicalized and accumulated by the row helpers of
``scalars``, and both do their arithmetic on the rows; rationals are
built only on read.

The Hall-Littlewood oracle runs entirely in Z[t], from the tableau
formulas (Macdonald, Symmetric Functions and Hall Polynomials, III (5.11),
(5.11'))

    Q_lambda = sum_T phi_T(t) x^T,    P_lambda = sum_T psi_T(t) x^T

over the semistandard tableaux T of shape lambda, phi_T and psi_T the
products of the weights of the horizontal strips that T's entries fill.
One cached recursion over horizontal strips (``_hl_terms``) builds either
sum, with no division, and its t^0 row is the Schur polynomial
(Q_lambda(x; 0) = s_lambda).  Everything here is independent of the
vertex-operator engine so it can serve as its oracle.

A symmetric polynomial is fixed by its dominant part, the terms x^e with
e weakly decreasing: their coefficients are its monomial-basis
coefficients.  Both realizations are built on their dominant parts only
(``p_to_x_dominant`` and ``hl_q_dominant``: 11 exponent vectors of the
462 in 6 variables at weight 6), and that is what the verifier compares.
Where the full XPoly is needed (``p_to_x``, ``hl_p_oracle``,
``hl_q_oracle``, ``schur_x``) it is the orbit sum of the dominant part,
each row placed at every distinct permutation of its exponent vector.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from math import lcm

from . import rationals
from .errors import TooFewVariables, TruncationMismatch
from .rationals import is_rational, rational
from .scalars import (add_row, canonical_rows, tp_add, tp_eval, tp_mul,
                      tp_mullow, tp_phi, tp_str)

# ---------------------------------------------------------------------------
# partitions


class Partition(tuple):
    """Weakly decreasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts=()):
        p = tuple(int(x) for x in parts)
        for a, b in zip(p, p[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {p}")
        if p and p[-1] <= 0:
            raise ValueError(f"parts must be positive: {p}")
        return tuple.__new__(cls, p)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def mult(self, k: int) -> int:
        return sum(1 for x in self if x == k)

    def multiplicities(self) -> dict:
        out: dict = {}
        for x in self:
            out[x] = out.get(x, 0) + 1
        return out

    def replace_part(self, old: int, new: int) -> "Partition":
        parts = list(self)
        parts.remove(old)
        parts.append(new)
        return Partition(sorted(parts, reverse=True))

    def add_part(self, k: int) -> "Partition":
        return Partition(sorted(self + (k,), reverse=True))

    @staticmethod
    def merge(lam: "Partition", mu: "Partition") -> "Partition":
        """The Partition with the parts of both; a merge of two partitions
        is one, so it is not revalidated."""
        if not mu:
            return lam
        if not lam:
            return mu
        return tuple.__new__(Partition, sorted(lam + mu, reverse=True))

    def __str__(self):
        return "[" + ",".join(str(x) for x in self) + "]"


_EMPTY = Partition()


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part=None) -> tuple:
    """Partitions of n, parts bounded by max_part, lex-descending order,
    each (n, max_part) enumerated once; a part put in front of a partition
    with no larger part is one, so it is not revalidated."""
    if max_part is None:
        max_part = n
    if n == 0:
        return (_EMPTY,)
    return tuple(tuple.__new__(Partition, (first,) + rest)
                 for first in range(min(n, max_part), 0, -1)
                 for rest in partitions_of(n - first, first))


def partitions_up_to(n: int):
    for k in range(n + 1):
        yield from partitions_of(k)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """mu <= lam in dominance order; requires equal weights."""
    if mu.weight != lam.weight:
        raise ValueError("dominance needs equal weights")
    s_mu = s_lam = 0
    for i in range(max(len(mu), len(lam))):
        s_mu += mu[i] if i < len(mu) else 0
        s_lam += lam[i] if i < len(lam) else 0
        if s_mu > s_lam:
            return False
    return True


# ---------------------------------------------------------------------------
# power-sum representation
#
# A Z[t] polynomial is a tuple of ints, lowest degree first, with trailing
# zeros trimmed; () is zero.


class _Rows:
    """Z[t] rows ``num`` over one denominator ``den``, in the canonical form
    of ``scalars.canonical_rows``: no zero rows and no factor common to den
    and every numerator, so equal values have equal (num, den).  The
    layout of FLINT's fmpq_mpoly, shared by SymFuncP and XPoly."""

    __slots__ = ("num", "den")

    def is_zero(self) -> bool:
        return not self.num

    def eval_t(self, t_value) -> dict:
        """Every coefficient at a rational t; for a SymFuncP exact only
        when the true coefficients have degree <= t_order."""
        out = {}
        for key, row in self.num.items():
            v = tp_eval(row, t_value)
            if v:
                out[key] = v / self.den
        return out

    def __str__(self):
        bits = []
        for key, name in self._names():
            row = tuple(rational(x, self.den) for x in self.num[key])
            bits.append(f"({tp_str(row)})*{name}")
        return " + ".join(bits) if bits else "0"

    __repr__ = __str__


class _Terms(Mapping):
    """Read-only {Partition: weight-0 SymFuncP} view of a SymFuncP: a
    coefficient is built when its item is read, so len() and iteration
    build none."""

    __slots__ = ("_f",)

    def __init__(self, f: "SymFuncP"):
        self._f = f

    def __getitem__(self, lam) -> "SymFuncP":
        f = self._f
        return SymFuncP({_EMPTY: f.num[lam]}, f.den, f.t_order)

    def __iter__(self):
        return iter(self._f.num)

    def __len__(self) -> int:
        return len(self._f.num)


class SymFuncP(_Rows):
    """Linear combination of p_lambda with coefficients in Q[t]/(t^{T+1}).

    ``num`` maps each partition to a row of at most T+1 numerators over
    ``den``.  The arithmetic runs on the rows and canonicalizes once per
    result.  A scalar is the weight-0 SymFuncP, one row at the empty
    partition (``scalar``); ``terms`` reads each coefficient as one.
    """

    __slots__ = ("t_order",)

    def __init__(self, num: dict, den: int, t_order: int):
        """From integer rows {Partition: Z[t] row} over den > 0; the caller
        keeps every row within T+1 numerators."""
        self.num, self.den = canonical_rows(num, den)
        self.t_order = t_order

    # -- constructors

    @classmethod
    def zero(cls, t_order: int) -> "SymFuncP":
        return cls({}, 1, t_order)

    @classmethod
    def one(cls, t_order: int) -> "SymFuncP":
        return cls({_EMPTY: (1,)}, 1, t_order)

    @classmethod
    def p(cls, n: int, t_order: int) -> "SymFuncP":
        return cls({Partition((n,)): (1,)}, 1, t_order)

    def _rows(self, num: dict, den: int) -> "SymFuncP":
        return SymFuncP(num, den, self.t_order)

    # -- structure

    def _check(self, other: "SymFuncP"):
        if self.t_order != other.t_order:
            raise TruncationMismatch(
                f"t-order mismatch: {self.t_order} vs {other.t_order}")

    @property
    def terms(self) -> "_Terms":
        return _Terms(self)

    def max_weight(self) -> int:
        return max((lam.weight for lam in self.num), default=0)

    def t_truncate(self, t_order: int) -> "SymFuncP":
        """Prefix at a lower t-order; raising the order is not
        recoverable."""
        if t_order > self.t_order:
            raise TruncationMismatch(
                f"cannot extend truncation {self.t_order} to {t_order}")
        return SymFuncP(
            {lam: row[: t_order + 1] for lam, row in self.num.items()},
            self.den, t_order)

    def weight_truncate(self, degree_cap: int) -> "SymFuncP":
        """The projection that drops the partitions above degree_cap; self
        when none is."""
        if self.max_weight() <= degree_cap:
            return self
        return self._rows({lam: row for lam, row in self.num.items()
                           if lam.weight <= degree_cap}, self.den)

    # -- ring operations

    def _plus(self, other, sign: int):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        acc: dict = {}
        for f, k in ((self, den // self.den),
                     (other, sign * den // other.den)):
            for lam, row in f.num.items():
                if k != 1:
                    row = tuple(k * x for x in row)
                a = acc.get(lam)
                # a partition of one operand only keeps its row tuple
                acc[lam] = row if a is None else tp_add(a, row)
        return self._rows(acc, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, SymFuncP):
            self._check(other)
            n = self.t_order + 1
            acc: dict = {}
            for lam, c in self.num.items():
                for mu, d in other.num.items():
                    add_row(acc, Partition.merge(lam, mu),
                            tp_mullow(c, d, n))
            return self._rows(acc, self.den * other.den)
        if is_rational(other):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "SymFuncP":
        """Times an int or a rational."""
        if not isinstance(c, int):
            c = rationals.Rat(c)
        k = c.numerator
        return self._rows({lam: row if k == 1 else tuple(k * x for x in row)
                           for lam, row in self.num.items()},
                          self.den * c.denominator)

    # -- rows keyed by charge and partition, for the Laurent product

    def charge_rows(self) -> tuple:
        """((0, num, den),): one block, at charge 0."""
        return ((0, self.num, self.den),)

    def from_charge_rows(self, num: dict, den: int) -> "SymFuncP":
        """num[0] / den at this t-order."""
        return self._rows(num.get(0, {}), den)

    def __eq__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        self._check(other)
        return self.num == other.num and self.den == other.den

    def _names(self):
        for lam in sorted(self.num):
            yield lam, "p" + str(lam) if lam else "1"


def scalar(coeffs, t_order: int) -> SymFuncP:
    """The weight-0 SymFuncP with the exact rational t-coefficients coeffs,
    lowest degree first, cut at t^T: one row over their lcm, built with
    integer operations only."""
    coeffs = coeffs[: t_order + 1]
    den = lcm(*(c.denominator for c in coeffs))
    return SymFuncP({_EMPTY: tuple(c.numerator * (den // c.denominator)
                                   for c in coeffs)}, den, t_order)


# ---------------------------------------------------------------------------
# exact x-realizations


class XPoly(_Rows):
    """Polynomial in x_1..x_nvars with exact t-polynomial coefficients:
    ``num`` maps each exponent tuple to a Z[t] row over ``den``.  ``terms``
    rebuilds the exact rational t-polynomials for readers.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=None):
        """From {exponents: tuple of rationals, lowest degree first}."""
        rats = {tuple(e): tuple(map(rational, c))
                for e, c in (terms or {}).items()}
        den = lcm(*(x.denominator for c in rats.values() for x in c))
        self.nvars = nvars
        self.num, self.den = canonical_rows(
            {e: tuple(x.numerator * (den // x.denominator) for x in c)
             for e, c in rats.items()}, den)

    @property
    def terms(self) -> dict:
        Rat, den = rationals.Rat, self.den
        return {e: tuple(Rat(x, den) for x in c)
                for e, c in self.num.items()}

    def t_truncate(self, t_order: int) -> "XPoly":
        return _xpoly(self.nvars,
                      {e: c[: t_order + 1] for e, c in self.num.items()},
                      self.den)

    def __eq__(self, other):
        return (isinstance(other, XPoly) and self.nvars == other.nvars
                and self.den == other.den and self.num == other.num)

    def _names(self):
        for e in sorted(self.num, reverse=True):
            mono = " ".join(f"x{i+1}^{d}" for i, d in enumerate(e) if d)
            yield e, mono or "1"


def _xpoly(nvars: int, num: dict, den: int) -> XPoly:
    """An XPoly from integer t-polynomials over den > 0."""
    p = object.__new__(XPoly)
    p.nvars = nvars
    p.num, p.den = canonical_rows(num, den)
    return p


def xpoly_monomial_coeffs(p: XPoly) -> dict:
    """Monomial-basis coefficients of a symmetric XPoly or of its dominant
    part, keyed by partition (read off the dominant representative of each
    orbit)."""
    out, Rat = {}, rationals.Rat
    for exps, c in p.num.items():
        s = tuple(sorted(exps, reverse=True))
        if s == exps:
            out[Partition(tuple(x for x in s if x))] = tuple(
                Rat(x, p.den) for x in c)
    return out


@lru_cache(maxsize=None)
def _orbit(e: tuple) -> tuple:
    """The distinct permutations of a weakly decreasing e."""
    if len(e) <= 1:
        return (e,)
    out = []
    for i, x in enumerate(e):
        if i and e[i - 1] == x:
            continue
        # what is left of a weakly decreasing tuple stays so
        out.extend((x,) + r for r in _orbit(e[:i] + e[i + 1:]))
    return tuple(out)


def orbit_sum(p: XPoly) -> XPoly:
    """The symmetric polynomial whose dominant part is p: the row of each
    weakly decreasing e of p at every distinct permutation of e."""
    return _xpoly(p.nvars, {f: row for e, row in p.num.items()
                            for f in _orbit(e)}, p.den)


@lru_cache(maxsize=1024)
def _p_realization(lam: tuple, nvars: int) -> tuple:
    """The dominant part of p_lambda(x_1..x_nvars) as ((exponents, positive
    int), ...), the exponents weakly decreasing."""
    if not lam:
        return (((0,) * nvars, 1),)
    k = lam[-1]
    # p_lambda = p_lambda' (x_1^k + ... + x_n^k) and p_lambda' is symmetric,
    # so its coefficient at any e is the one at e sorted
    prev = dict(_p_realization(lam[:-1], nvars))
    out = []
    for nu in partitions_of(sum(lam)):
        if len(nu) > nvars:
            continue
        e = nu + (0,) * (nvars - len(nu))
        c = sum(prev.get(tuple(sorted(e[:i] + (x - k,) + e[i + 1:],
                                      reverse=True)), 0)
                for i, x in enumerate(e) if x >= k)
        if c:
            out.append((e, c))
    return tuple(out)


def p_to_x_dominant(f: SymFuncP, nvars: int) -> XPoly:
    """The dominant part of the realization of a power-sum expression in
    nvars variables: its monomial-basis coefficients, each at its weakly
    decreasing exponent vector.  Coefficients are read as exact
    polynomials in t (the truncation must dominate them)."""
    if nvars < 1:
        raise TooFewVariables("need at least one variable")
    acc: dict = {}
    for lam, row in f.num.items():
        for e, k in _p_realization(tuple(lam), nvars):
            add_row(acc, e, row, k)
    return _xpoly(nvars, acc, f.den)


def p_to_x(f: SymFuncP, nvars: int) -> XPoly:
    """Realize a power-sum expression in nvars variables: the orbit sum of
    its dominant part."""
    return orbit_sum(p_to_x_dominant(f, nvars))


# ---------------------------------------------------------------------------
# Schur polynomials by the bialternant formula


def xp_div_linear(p: XPoly, i: int, j: int) -> XPoly:
    """Exact division by (x_i - x_j), 0-based i < j, lex leading term x_i."""
    rem = dict(p.num)
    quot: dict = {}
    while rem:
        e = max(rem)
        c = rem.pop(e)
        if e[i] < 1:
            raise ValueError(f"not divisible by x{i+1} - x{j+1}")
        q = tuple(d - 1 if k == i else d for k, d in enumerate(e))
        quot[q] = tp_add(quot[q], c) if q in quot else c
        # subtract q * (x_i - x_j); the x_i part cancels e exactly
        e2 = tuple(d + 1 if k == j else d for k, d in enumerate(q))
        c2 = tp_add(rem.get(e2, ()), c)
        if c2:
            rem[e2] = c2
        elif e2 in rem:
            del rem[e2]
    return _xpoly(p.nvars, quot, p.den)


def schur_bialternant(lam, n: int) -> XPoly:
    """Schur polynomial as a_{lam+delta}/a_delta by exact division.

    Independent of both the strip recursion and the engine; intended
    for small n (the alternant has n! terms).
    """
    lam = Partition(lam)
    if n < len(lam):
        raise TooFewVariables(f"{n} variables for {lam}")
    if n > 7:
        raise ValueError("bialternant oracle limited to n <= 7")
    staircase = tuple(lam[i] if i < len(lam) else 0 for i in range(n))
    staircase = tuple(staircase[i] + n - 1 - i for i in range(n))
    terms: dict = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        exps = tuple(staircase[perm[k]] for k in range(n))
        add_row(terms, exps, (1,), -1 if inv % 2 else 1)
    num = _xpoly(n, terms, 1)
    for i in range(n):
        for j in range(i + 1, n):
            num = xp_div_linear(num, i, j)
    return num


# ---------------------------------------------------------------------------
# Hall-Littlewood polynomials by horizontal strips, in Z[t]


def b_lambda(lam) -> tuple:
    """b_lambda(t) = prod_{i>=1} phi_{m_i(lambda)}(t) in Z[t]."""
    out = (1,)
    for m in Partition(lam).multiplicities().values():
        out = tp_mul(out, tp_phi(m))
    return out


def _strip_weight(lam: tuple, mu: tuple, q: bool) -> tuple:
    """The Z[t] weight of the horizontal strip lam/mu (mu padded to the
    length of lam): phi_{lam/mu}(t) = prod (1 - t^{m_j(lam)}) over the
    columns j that hold a strip box and have none in column j+1 when q,
    else psi_{lam/mu}(t) = prod (1 - t^{m_j(mu)}) over the columns j >= 1
    that hold none and have one in column j+1 (Macdonald III (5.8),
    (5.8'))."""
    boxes = {j for a, b in zip(lam, mu) for j in range(b + 1, a + 1)}
    if q:
        parts, cols = lam, (j for j in boxes if j + 1 not in boxes)
    else:
        parts, cols = mu, (j - 1 for j in boxes
                           if j > 1 and j - 1 not in boxes)
    w = (1,)
    for j in cols:
        w = tp_mul(w, (1,) + (0,) * (parts.count(j) - 1) + (-1,))
    return w


@lru_cache(maxsize=None)
def _hl_terms(lam: tuple, n: int, q: bool) -> tuple:
    """The dominant part of Q_lam(x_1..x_n; t) when q, else of
    P_lam(x_1..x_n; t), as ((exponents, Z[t] row), ...).

    Macdonald III (5.11'), (5.11): Q_lam is the sum over semistandard
    tableaux of shape lam of the product of the phi weights of their
    horizontal strips times x^T, P_lam the same with psi.  The entries n
    fill a horizontal strip lam/mu, so Q_lam(x_1..x_n) is the sum over the
    mu interlacing lam of phi_{lam/mu} Q_mu(x_1..x_{n-1}) x_n^{|lam/mu|};
    an exponent vector (e, k) is weakly decreasing when e is and its last
    entry is at least k."""
    if n == 0:
        return (((), (1,)),) if not lam else ()
    if len(lam) > n:
        return ()
    out: dict = {}
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, lam[i] + 1)
              for i in range(len(lam))]
    for mu in itertools.product(*ranges):
        w = _strip_weight(lam, mu, q)
        k = sum(lam) - sum(mu)
        for e, row in _hl_terms(tuple(x for x in mu if x), n - 1, q):
            if not e or e[-1] >= k:
                add_row(out, e + (k,), tp_mul(row, w))
    return tuple(canonical_rows(out, 1)[0].items())


def _hl_dominant(lam, n: int, q: bool) -> XPoly:
    lam = Partition(lam)
    if n < len(lam):
        raise TooFewVariables(f"{n} variables for {lam}")
    return _xpoly(n, dict(_hl_terms(tuple(lam), n, q)), 1)


def hl_p_dominant(lam, n: int) -> XPoly:
    """The dominant part of the Hall-Littlewood P_lambda(x_1..x_n; t), the
    psi sum of the strip recursion; exact in t."""
    return _hl_dominant(lam, n, False)


def hl_q_dominant(lam, n: int) -> XPoly:
    """The dominant part of Q_lambda(x_1..x_n; t), the phi sum of the strip
    recursion; exact in t."""
    return _hl_dominant(lam, n, True)


def hl_p_oracle(lam, n: int) -> XPoly:
    """Hall-Littlewood P_lambda(x_1..x_n; t), the orbit sum of its dominant
    part."""
    return orbit_sum(hl_p_dominant(lam, n))


def hl_q_oracle(lam, n: int) -> XPoly:
    """Q_lambda(x_1..x_n; t), the orbit sum of its dominant part."""
    return orbit_sum(hl_q_dominant(lam, n))


def schur_x(nu, n: int) -> XPoly:
    """Schur polynomial s_nu(x_1..x_n) = Q_nu(x_1..x_n; 0), the t^0 row of
    the strip recursion (engine-independent)."""
    return orbit_sum(_xpoly(n, {e: row[:1] for e, row
                                in _hl_terms(tuple(nu), n, True)}, 1))
