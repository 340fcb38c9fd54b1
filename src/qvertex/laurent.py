"""Multivariate Laurent windows and region expansions.

Fixed variable tuple: z1, z2, z3 and the translation parameter g.  A
``LaurentChunk`` stores finitely many coefficients of a Laurent series
inside an explicit per-variable exponent ``Window``, together with
``support`` metadata: per-variable intervals (None = unbounded) outside of
which the full series is known to vanish.  ``laurent_mul`` multiplies on a
requested window and raises WindowUnderflow when, in some variable, a
support split landing in that window leaves a stored window, instead of
returning silently wrong boundary coefficients.

A ``FactorProduct`` is a symbolic product  c(t) * monomial * prod_i f_i^{e_i}
with each f_i a linear form in z1, z2, z3, g with t-power coefficients.
``expand`` converts it to a chunk in a given expansion region.  Each power
f^e is expanded by one multinomial enumerator against the region-dominant
term of lowest t-degree, with t kept adically smaller than every z variable
and g kept a nonnegative power series: finite for e > 0, geometric for
e < 0, where that term must have t-degree 0 and be free of g.  Exponent
boxes for each factor are made finite by a fixpoint that combines the
requested window, t/g truncation budgets and homogeneity of the linear
forms; the per-factor boxes are then provably sufficient for the requested
window, so the internal folding can multiply without the generic soundness
guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm

from .errors import (NonExpandableFactor, OutsideWindow, WindowUnderflow)
from .rationals import RAT_ONE, RAT_ZERO, Rat
from .scalars import TP_ONE, tp_mul, tp_pow, tp_str, tp_trim
from .symfunc import Partition, SymFuncP, scalar

VARS = ("z1", "z2", "z3", "g")
NVARS = 4
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
G_INDEX = VAR_INDEX["g"]


# ---------------------------------------------------------------------------
# monomials


class Monomial(tuple):
    """Exponent vector over (z1, z2, z3, g); multiplication adds exponents."""

    __slots__ = ()

    def __new__(cls, z1=0, z2=0, z3=0, g=0):
        return tuple.__new__(cls, (z1, z2, z3, g))

    @classmethod
    def of(cls, **exps) -> "Monomial":
        e = [0] * NVARS
        for v, d in exps.items():
            e[VAR_INDEX[v]] = d
        return tuple.__new__(cls, e)

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Monomial":
        e = [0] * NVARS
        e[VAR_INDEX[name]] = power
        return tuple.__new__(cls, e)

    def __mul__(self, other):
        return tuple.__new__(Monomial, (a + b for a, b in zip(self, other)))

    def __pow__(self, n: int):
        return tuple.__new__(Monomial, (a * n for a in self))

    def exp(self, var: str) -> int:
        return self[VAR_INDEX[var]]

    @property
    def total_degree(self) -> int:
        return sum(self)

    def __str__(self):
        parts = [f"{v}^{d}" for v, d in zip(VARS, self) if d]
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial{tuple(self)}"


MONO_ONE = Monomial()


# ---------------------------------------------------------------------------
# intervals with None as +-infinity


def iv_add(a, b):
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def iv_intersect(a, b):
    """Intersection, or None when empty."""
    if a[0] is None:
        lo = b[0]
    elif b[0] is None:
        lo = a[0]
    else:
        lo = max(a[0], b[0])
    if a[1] is None:
        hi = b[1]
    elif b[1] is None:
        hi = a[1]
    else:
        hi = min(a[1], b[1])
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def iv_hull(a, b):
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


def iv_finite(a) -> bool:
    return a[0] is not None and a[1] is not None


def bounds_add(s1, s2):
    return tuple(iv_add(a, b) for a, b in zip(s1, s2))


def bounds_hull(s1, s2):
    return tuple(iv_hull(a, b) for a, b in zip(s1, s2))


def bounds_point(m) -> tuple:
    return tuple((e, e) for e in m)


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """Finite inclusive exponent box, one (lo, hi) pair per variable."""

    bounds: tuple

    def __post_init__(self):
        if len(self.bounds) != NVARS:
            raise ValueError("window needs one range per variable")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty window range ({lo}, {hi})")

    @classmethod
    def of(cls, z1=(0, 0), z2=(0, 0), z3=(0, 0), g=(0, 0)) -> "Window":
        return cls((tuple(z1), tuple(z2), tuple(z3), tuple(g)))

    def range(self, var: str):
        return self.bounds[VAR_INDEX[var]]

    def contains(self, m) -> bool:
        for (lo, hi), e in zip(self.bounds, m):
            if e < lo or e > hi:
                return False
        return True

    def intersect(self, other: "Window"):
        out = []
        for a, b in zip(self.bounds, other.bounds):
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo > hi:
                return None
            out.append((lo, hi))
        return Window(tuple(out))

    def shift(self, m) -> "Window":
        return Window(tuple((lo + e, hi + e)
                            for (lo, hi), e in zip(self.bounds, m)))

    def __str__(self):
        parts = [f"{v}:[{lo},{hi}]" for v, (lo, hi) in zip(VARS, self.bounds)
                 if (lo, hi) != (0, 0)]
        return "{" + ", ".join(parts) + "}" if parts else "{point}"


# ---------------------------------------------------------------------------
# expansion regions


@dataclass(frozen=True)
class RegionOrder:
    """Variable ordering, largest first; t is always adically smallest and g,
    when present, must come last (it is expanded as a nonnegative series)."""

    order: tuple

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError("region variables must be distinct")
        for v in self.order:
            if v not in VAR_INDEX:
                raise ValueError(f"unknown variable {v!r}")
        if "g" in self.order and self.order[-1] != "g":
            raise ValueError("g must be the innermost region variable")

    def covers(self, names) -> bool:
        return all(v in self.order for v in names)

    def key(self, m) -> tuple:
        return tuple(m[VAR_INDEX[v]] for v in self.order)

    def __str__(self):
        return "|" + "| >> |".join(self.order) + "|"


def region(*names) -> RegionOrder:
    return RegionOrder(tuple(names))


# ---------------------------------------------------------------------------
# Laurent chunks


class LaurentChunk:
    """Finitely many exact coefficients of a Laurent series on a window.

    ``zero`` is the zero coefficient object, a SymFuncP (a scalar series
    has weight-0 ones) or a FockVector; ``support`` bounds where the full
    series can be nonzero, with None meaning unbounded on that side.
    """

    __slots__ = ("terms", "window", "support", "zero")

    def __init__(self, terms: dict, window: Window, zero, support=None):
        clean = {}
        for m, c in terms.items():
            if not window.contains(m):
                raise OutsideWindow(f"term {m} outside window {window}")
            if not c.is_zero():
                clean[m] = c
        self.terms = clean
        self.window = window
        self.zero = zero
        if support is None:
            if clean:
                los = [min(m[i] for m in clean) for i in range(NVARS)]
                his = [max(m[i] for m in clean) for i in range(NVARS)]
                support = tuple((lo, hi) for lo, hi in zip(los, his))
            else:
                support = ((0, 0),) * NVARS
        self.support = tuple(tuple(iv) for iv in support)

    def get(self, m):
        if not self.window.contains(m):
            raise OutsideWindow(f"{m} outside window {self.window}")
        return self.terms.get(m, self.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "LaurentChunk") -> "LaurentChunk":
        w = self.window.intersect(other.window)
        if w is None:
            raise WindowUnderflow("sum of chunks with disjoint windows")
        terms = {}
        for src in (self.terms, other.terms):
            for m, c in src.items():
                if w.contains(m):
                    terms[m] = terms[m] + c if m in terms else c
        return LaurentChunk(terms, w, self.zero,
                            bounds_hull(self.support, other.support))

    def scale(self, c) -> "LaurentChunk":
        return LaurentChunk({m: c * x for m, x in self.terms.items()},
                            self.window, self.zero, self.support)

    def map_coefficients(self, fn) -> "LaurentChunk":
        return LaurentChunk({m: fn(c) for m, c in self.terms.items()},
                            self.window, self.zero, self.support)

    def shift(self, m: Monomial) -> "LaurentChunk":
        return LaurentChunk({mm * m: c for mm, c in self.terms.items()},
                            self.window.shift(m), self.zero,
                            bounds_add(self.support, bounds_point(m)))

    def __str__(self):
        if not self.terms:
            return f"0 on {self.window}"
        bits = [f"({c}) {m}" for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


def mul_raw(a: LaurentChunk, b: LaurentChunk, window: Window,
            degree_cap=None) -> LaurentChunk:
    """Product restricted to a window, with no soundness guard, projected
    to degree_cap (None keeps every weight).

    Only for callers that have proved separately that every support split
    landing in the window is covered by the operand windows.

    One fused kernel on integer rows serves both coefficient kinds,
    SymFuncP (a scalar is its weight-0 part) and FockVector, in any
    pairing.  Each coefficient is read once as Z[t] rows keyed by charge
    and partition, a block per charge over its own denominator
    (``charge_rows``), and the in-window term pairs are bucketed by output
    monomial.  Each output is then accumulated over D = lcm(d1*d2) of its
    own block pairs: charges add, partitions merge (a merge above
    degree_cap is dropped before any arithmetic) and each product row is
    multiplied, truncated at T+1, straight into a list of T+1 ints.  The
    output is canonicalized once and rebuilt (``from_charge_rows``) before
    the next one starts.  The kind and t-order of the product come from
    the product of the operand zeros, which raises TruncationMismatch on a
    t-order mismatch.
    """
    zero = a.zero * b.zero
    n = zero.t_order + 1
    # the partitions of each operand as small ints, in each block a tuple
    # parallel to its rows
    parts = ({}, {})
    reads = []
    for ch, ids in zip((a, b), parts):
        reads.append({m: tuple((q, tuple([ids.setdefault(lam, len(ids))
                                          for lam in num]), num, d)
                               for q, num, d in c.charge_rows())
                      for m, c in ch.terms.items()})
    lams1, lams2 = list(parts[0]), list(parts[1])
    w1, w2 = [sum(lam) for lam in lams1], [sum(mu) for mu in lams2]
    cap = (max(w1, default=0) + max(w2, default=0) if degree_cap is None
           else degree_cap)
    # merged[i1][i2]: the int of the merged partition, -1 above the cap
    merged = [None] * len(lams1)
    nus: dict = {}
    nu_list = []
    (l0, h0), (l1, h1), (l2, h2), (l3, h3) = window.bounds
    buckets: dict = {}
    for m1, c1 in reads[0].items():
        for m2, c2 in reads[1].items():
            e0 = m1[0] + m2[0]
            if e0 < l0 or e0 > h0:
                continue
            e1 = m1[1] + m2[1]
            if e1 < l1 or e1 > h1:
                continue
            e2 = m1[2] + m2[2]
            if e2 < l2 or e2 > h2:
                continue
            e3 = m1[3] + m2[3]
            if e3 < l3 or e3 > h3:
                continue
            m = tuple.__new__(Monomial, (e0, e1, e2, e3))
            pairs = buckets.get(m)
            if pairs is None:
                buckets[m] = [(c1, c2)]
            else:
                pairs.append((c1, c2))
    terms = {}
    for m, pairs in buckets.items():
        den = lcm(*(d1 * d2 for c1, c2 in pairs
                    for _, _, _, d1 in c1 for _, _, _, d2 in c2))
        acc: dict = {}
        for c1, c2 in pairs:
            for q1, ids1, num1, d1 in c1:
                for q2, ids2, num2, d2 in c2:
                    k = den // (d1 * d2)
                    out = acc.get(q1 + q2)
                    if out is None:
                        out = acc[q1 + q2] = {}
                    for i1, x1 in zip(ids1, num1.values()):
                        row = merged[i1]
                        if row is None:
                            row = merged[i1] = [None] * len(lams2)
                        for i2, x2 in zip(ids2, num2.values()):
                            o = row[i2]
                            if o is None:
                                o = -1
                                if w1[i1] + w2[i2] <= cap:
                                    nu = Partition.merge(lams1[i1], lams2[i2])
                                    o = nus.get(nu)
                                    if o is None:
                                        o = nus[nu] = len(nu_list)
                                        nu_list.append(nu)
                                row[i2] = o
                            if o < 0:
                                continue
                            s = out.get(o)
                            if s is None:
                                s = out[o] = [0] * n
                            for i, x in enumerate(x1):
                                if x:
                                    x *= k
                                    for j, y in enumerate(x2[:n - i], i):
                                        s[j] += x * y
        c = zero.from_charge_rows(
            {q: {nu_list[o]: s for o, s in out.items()}
             for q, out in acc.items()}, den)
        if not c.is_zero():
            terms[m] = c
    return LaurentChunk(terms, window, zero,
                        bounds_add(a.support, b.support))


def _fold(chunks, boxes, target: Window, degree_cap=None):
    """chunks[0] * chunks[1] * ... on the target window, projected to
    degree_cap (``mul_raw``), or None when the product vanishes there.

    boxes[j] holds every exponent of chunks[j] that can land in the target.
    Each prefix product is kept on its own box minus what the remaining
    factors can still add, which is exact on the target; an empty prefix
    window means no split reaches it.
    """
    acc = chunks[0]
    for k in range(1, len(chunks)):
        req = []
        for v, (lo, hi) in enumerate(target.bounds):
            for box in boxes[k + 1:]:
                lo -= box[v][1]
                hi -= box[v][0]
            lo = max(lo, sum(box[v][0] for box in boxes[:k + 1]))
            hi = min(hi, sum(box[v][1] for box in boxes[:k + 1]))
            if lo > hi:
                return None
            req.append((lo, hi))
        acc = mul_raw(acc, chunks[k], Window(tuple(req)), degree_cap)
    return acc


def _deficits(w, s):
    """Parts of support s strictly outside the finite window w."""
    out = []
    if s[0] is None or s[0] < w[0]:
        out.append((s[0], w[0] - 1))
    if s[1] is None or s[1] > w[1]:
        out.append((w[1] + 1, s[1]))
    return out


def laurent_mul(a: LaurentChunk, b: LaurentChunk,
                window: Window) -> LaurentChunk:
    """Sound product of two chunks on the given window, keeping every
    weight (``mul_raw`` with no cap): its callers multiply by scalar
    chunks, which have weight 0.

    Raises WindowUnderflow when some requested exponent has a split x + y,
    with x and y in the operand supports, that leaves a stored window.
    """
    for i in range(NVARS):
        wa, sa = a.window.bounds[i], a.support[i]
        wb, sb = b.window.bounds[i], b.support[i]
        unsound = ([iv_add(d, sb) for d in _deficits(wa, sa)]
                   + [iv_add(d, sa) for d in _deficits(wb, sb)])
        for u in unsound:
            if iv_intersect(window.bounds[i], u) is not None:
                raise WindowUnderflow(
                    f"{VARS[i]}: requested {window.bounds[i]} needs {u}")
    return mul_raw(a, b, window)


@lru_cache(maxsize=None, typed=True)
def binom_expansion_terms(e: int, s, kmax: int) -> tuple:
    """Coefficients of (x + s*y)^e with x dominant.

    Returns ((k, C(e, k) * s^k), ...) for x^{e-k} y^k, k = 0..kmax; e may be
    negative (generalized binomial coefficients).  C(e, k) is an integer,
    so each step c*(e-k)//(k+1) divides exactly and an int s gives int
    values.  Rows are cached per (e, s, kmax), an int and a Rat s apart.
    """
    if e >= 0:
        kmax = min(kmax, e)
    out = []
    c = 1
    sk = s ** 0
    for k in range(kmax + 1):
        out.append((k, c * sk))
        c = c * (e - k) // (k + 1)
        sk = sk * s
    return tuple(out)


# ---------------------------------------------------------------------------
# factor products


def lform(*terms) -> tuple:
    """Linear form from (coeff, var[, t-degree]) entries, canonically sorted.

    Example: lform((1, "z1"), (-1, "z2", 1)) is z1 - t*z2.
    """
    acc: dict = {}
    for entry in terms:
        c, v = entry[0], entry[1]
        k = entry[2] if len(entry) > 2 else 0
        key = (Monomial.var(v), k)
        acc[key] = acc.get(key, RAT_ZERO) + Rat(c)
    return tuple(sorted((m, k, c) for (m, k), c in acc.items() if c))


def _form_str(form) -> str:
    bits = []
    for m, k, c in form:
        s = str(m)
        if k:
            s = (f"t^{k} " if k > 1 else "t ") + s
        bits.append(f"{c}*{s}" if c not in (1, -1) else ("-" if c == -1 else "") + s)
    return " + ".join(bits).replace("+ -", "- ")


@dataclass(frozen=True)
class FactorProduct:
    """coeff(t) * monomial * prod_i form_i^{exp_i}, all exact."""

    coeff: tuple = TP_ONE
    monomial: Monomial = MONO_ONE
    factors: tuple = ()

    @classmethod
    def of(cls, coeff=TP_ONE, monomial: Monomial = MONO_ONE,
           factors=()) -> "FactorProduct":
        fs = tuple((tuple(form), int(e)) for form, e in factors if e)
        return cls(tp_trim(tuple(Rat(c) for c in coeff)), monomial, fs)

    @classmethod
    def one(cls) -> "FactorProduct":
        return cls()

    def is_zero(self) -> bool:
        return not self.coeff

    def mul(self, other: "FactorProduct") -> "FactorProduct":
        merged: dict = {}
        for form, e in self.factors + other.factors:
            merged[form] = merged.get(form, 0) + e
        fs = tuple(sorted((f, e) for f, e in merged.items() if e))
        return FactorProduct(tp_mul(self.coeff, other.coeff),
                             self.monomial * other.monomial, fs)

    def pow(self, n: int) -> "FactorProduct":
        if n == 0:
            return FactorProduct.one()
        if n > 0:
            coeff = tp_pow(self.coeff, n)
        else:
            nz = [(k, c) for k, c in enumerate(self.coeff) if c]
            if len(nz) != 1:
                raise NonExpandableFactor(
                    "negative power of a non-monomial prefactor")
            k, c = nz[0]
            if k * n < 0:
                raise NonExpandableFactor("negative t-power in prefactor")
            coeff = (RAT_ZERO,) * (k * n) + (c ** n,)
        fs = tuple((f, e * n) for f, e in self.factors)
        return FactorProduct(coeff, self.monomial ** n, fs)

    def substitute(self, mapping: dict) -> "FactorProduct":
        """Replace variables by sums of variables, e.g. {"z1": ("z2", "z3"),
        "z3": ()}; an empty tuple substitutes zero."""
        new_factors = []
        for form, e in self.factors:
            acc: dict = {}
            for m, k, c in form:
                live = [(v, d) for v, d in zip(VARS, m) if d]
                if len(live) != 1 or live[0][1] != 1:
                    raise NonExpandableFactor(
                        "substitution supports linear forms only")
                v = live[0][0]
                repl = mapping.get(v, (v,))
                for w in repl:
                    key = (Monomial.var(w), k)
                    acc[key] = acc.get(key, RAT_ZERO) + c
            nf = tuple(sorted((m, k, c) for (m, k), c in acc.items() if c))
            if not nf:
                if e > 0:
                    return FactorProduct(())
                raise NonExpandableFactor("inverted factor vanished")
            new_factors.append((nf, e))
        mono = [0] * NVARS
        for v, d in zip(VARS, self.monomial):
            if not d:
                continue
            repl = mapping.get(v, (v,))
            if len(repl) == 1:
                mono[VAR_INDEX[repl[0]]] += d
            elif len(repl) == 0:
                if d > 0:
                    return FactorProduct(())
                raise NonExpandableFactor("negative power of zero")
            else:
                form = tuple(sorted((Monomial.var(w), 0, RAT_ONE)
                                    for w in repl))
                new_factors.append((form, d))
        out = FactorProduct(self.coeff, Monomial(*mono), ())
        for form, e in new_factors:
            out = out.mul(FactorProduct(TP_ONE, MONO_ONE, ((form, e),)))
        return out

    def expand(self, reg: RegionOrder, window: Window,
               t_order: int) -> LaurentChunk:
        return _expand(self, reg, window, t_order)

    def __str__(self):
        bits = [f"({tp_str(self.coeff)})"]
        if self.monomial != MONO_ONE:
            bits.append(str(self.monomial))
        for form, e in self.factors:
            bits.append(f"({_form_str(form)})^{e}")
        return " * ".join(bits)


# ---------------------------------------------------------------------------
# expansion


class _FactorInfo:
    """One factor form^e, expanded as base^e (1 + sum_i u_i)^e.

    The base is the region-dominant term among the terms of lowest t-degree
    and the u_i are the other terms divided by it.  For e > 0 the sum is
    the finite multinomial expansion (picks beyond e carry a zero falling
    factorial); for e < 0 it is the generalized one, which needs a
    t-degree-0 base free of g.
    """

    __slots__ = ("form", "exp", "base_c", "base_m", "base_k", "uterms",
                 "homog", "support", "box")

    def __init__(self, form, e, reg, t_order, g_cap):
        self.form = form
        self.exp = e
        degs = {m.total_degree for m, _, _ in form}
        self.homog = e * degs.pop() if len(degs) == 1 else None
        for m, _, _ in form:
            live = [v for v, d in zip(VARS, m) if d]
            if not reg.covers(live):
                raise NonExpandableFactor(
                    f"variable outside region {reg}: {_form_str(form)}")
        kmin = min(k for _, k, _ in form)
        if e < 0 and kmin:
            raise NonExpandableFactor(
                f"no t-degree-0 term in ({_form_str(form)})^{e}")
        m_d, _, c_d = max((t for t in form if t[1] == kmin),
                          key=lambda t: reg.key(t[0]))
        if e < 0 and m_d[G_INDEX]:
            raise NonExpandableFactor(
                f"dominant term of ({_form_str(form)}) contains g")
        self.base_c = c_d
        self.base_m = m_d
        self.base_k = e * kmin
        uterms = []
        for m, k, c in form:
            if k == kmin and m == m_d:
                continue
            ratio = tuple.__new__(Monomial, (a - b for a, b in zip(m, m_d)))
            jmaxs = [e] if e > 0 else []
            if k > kmin:
                jmaxs.append(t_order // (k - kmin))
            if ratio[G_INDEX] > 0:
                jmaxs.append(g_cap // ratio[G_INDEX])
            jmax = min(jmaxs) if jmaxs else None
            uterms.append([ratio, k - kmin, c / c_d, jmax])
        self.uterms = uterms
        self.support = (self._poly_support() if e > 0
                        else self._neg_support())

    def _poly_support(self):
        # each of the e copies picks one term, so per variable the exponent
        # is a sum of e picks from that variable's term exponents
        e = self.exp
        out = []
        for i in range(NVARS):
            exps = [m[i] for m, _, _ in self.form]
            out.append((e * min(exps), e * max(exps)))
        return tuple(out)

    def _neg_support(self):
        e = self.exp
        sup = []
        for v in range(NVARS):
            lo = hi = e * self.base_m[v]
            for ratio, _, _, jmax in self.uterms:
                d = ratio[v]
                if d > 0:
                    hi = None if (jmax is None or hi is None) else hi + jmax * d
                elif d < 0:
                    lo = None if (jmax is None or lo is None) else lo + jmax * d
            sup.append((lo, hi))
        return tuple(sup)

    def tighten_jmax(self, max_rounds=32):
        """Bound geometric tails using the finite box: a u-term that lowers
        some variable can repeat only until it exits the box."""
        for _ in range(max_rounds):
            changed = False
            for i, (ratio, _, _, jmax) in enumerate(self.uterms):
                best = jmax
                for v in range(NVARS):
                    if ratio[v] >= 0:
                        continue
                    slack = self.exp * self.base_m[v] - self.box[v][0]
                    ok = True
                    for j2, (r2, _, _, jm2) in enumerate(self.uterms):
                        if j2 == i or r2[v] <= 0:
                            continue
                        if jm2 is None:
                            ok = False
                            break
                        slack += jm2 * r2[v]
                    if not ok:
                        continue
                    cap = max(slack // (-ratio[v]), 0) if slack >= 0 else 0
                    if best is None or cap < best:
                        best = cap
                if best is not None and best != jmax:
                    self.uterms[i][3] = best
                    changed = True
            if not changed:
                break
        for ratio, _, _, jmax in self.uterms:
            if jmax is None:
                raise WindowUnderflow(
                    f"unbounded expansion tail for ({_form_str(self.form)})"
                    f"^{self.exp}")

    def chunk(self, t_order) -> LaurentChunk:
        lo = tuple(b[0] for b in self.box)
        hi = tuple(b[1] for b in self.box)
        acc: dict = {}
        self._enum(acc, lo, hi, t_order)
        terms = {m: scalar(cs, t_order) for m, cs in acc.items()}
        return LaurentChunk(terms, Window(tuple(self.box)),
                            SymFuncP.zero(t_order), self.support)

    def _enum(self, acc, lo, hi, t_order):
        e = self.exp
        uterms = self.uterms
        r = len(uterms)
        base_m = tuple(a * e for a in self.base_m)
        base_c = Rat(self.base_c) ** e
        # suffix reach per variable for pruning
        suffix = [[(0, 0)] * NVARS for _ in range(r + 1)]
        for i in range(r - 1, -1, -1):
            ratio, _, _, jmax = uterms[i]
            for v in range(NVARS):
                d = ratio[v] * jmax
                nlo, nhi = suffix[i + 1][v]
                suffix[i][v] = (nlo + min(d, 0), nhi + max(d, 0))

        def rec(idx, cur_m, cur_k, cur_c, picks, denom):
            for v in range(NVARS):
                slo, shi = suffix[idx][v]
                if cur_m[v] + shi < lo[v] or cur_m[v] + slo > hi[v]:
                    return
            if idx == r:
                ff = RAT_ONE
                for i in range(picks):
                    ff *= e - i
                mono = tuple.__new__(Monomial, cur_m)
                slot = acc.setdefault(mono, [RAT_ZERO] * (t_order + 1))
                slot[cur_k] += base_c * cur_c * ff / denom
                return
            ratio, k, c, jmax = uterms[idx]
            cm, ck, cc = cur_m, cur_k, cur_c
            for j in range(jmax + 1):
                if ck > t_order or 0 < e < picks + j:
                    break
                rec(idx + 1, cm, ck, cc, picks + j, denom * factorial(j))
                cm = tuple(a + b for a, b in zip(cm, ratio))
                ck += k
                cc = cc * c

        if self.base_k <= t_order:
            rec(0, base_m, self.base_k, RAT_ONE, 0, 1)


def _expand(fp: FactorProduct, reg: RegionOrder, window: Window,
            t_order: int) -> LaurentChunk:
    zero = SymFuncP.zero(t_order)
    glo = window.range("g")[0]
    if glo < 0:
        raise NonExpandableFactor("g admits no negative exponents")
    g_cap = window.range("g")[1]
    if fp.is_zero():
        return LaurentChunk({}, window, zero)

    infos = [_FactorInfo(form, e, reg, t_order, g_cap)
             for form, e in fp.factors if e]
    m_pref = fp.monomial
    pref_scalar = scalar(fp.coeff, t_order)
    if pref_scalar.is_zero():
        return LaurentChunk({}, window, zero)

    full_support = bounds_point(m_pref)
    for info in infos:
        full_support = bounds_add(full_support, info.support)
    if not infos:
        terms = ({m_pref: pref_scalar} if window.contains(m_pref) else {})
        return LaurentChunk(terms, window, zero, full_support)

    boxes = _fixpoint_boxes(infos, m_pref, window)
    if boxes is None:
        return LaurentChunk({}, window, zero, full_support)
    for info, box in zip(infos, boxes):
        info.box = box
        info.tighten_jmax()
    acc = _fold([info.chunk(t_order) for info in infos], boxes,
                window.shift(m_pref ** -1))
    if acc is None:
        return LaurentChunk({}, window, zero, full_support)

    acc = acc.shift(m_pref)
    if pref_scalar != SymFuncP.one(t_order):
        acc = acc.scale(pref_scalar)
    terms = {m: c for m, c in acc.terms.items() if window.contains(m)}
    return LaurentChunk(terms, window, zero, full_support)


def _fixpoint_boxes(infos, m_pref, window, max_rounds=64):
    """Shrink per-factor supports to finite boxes sufficient for the window.

    Every split of a window monomial over the factor supports stays inside
    the boxes (induction over the rounds), so folding over these boxes is
    exact on the window.  Returns None when some factor has no admissible
    exponents, i.e. the product vanishes on the window.
    """
    boxes = [list(info.support) for info in infos]
    target = window.bounds
    for _ in range(max_rounds):
        changed = False
        for i, info in enumerate(infos):
            for v in range(NVARS):
                olo, ohi = m_pref[v], m_pref[v]
                for j, bx in enumerate(boxes):
                    if j == i:
                        continue
                    olo = None if (olo is None or bx[v][0] is None) \
                        else olo + bx[v][0]
                    ohi = None if (ohi is None or bx[v][1] is None) \
                        else ohi + bx[v][1]
                need = (None if ohi is None else target[v][0] - ohi,
                        None if olo is None else target[v][1] - olo)
                cut = iv_intersect(boxes[i][v], need)
                if cut is None:
                    return None
                if cut != tuple(boxes[i][v]):
                    boxes[i][v] = cut
                    changed = True
            if info.homog is not None:
                box = boxes[i]
                if all(b[0] is not None for b in box):
                    slo = sum(b[0] for b in box)
                    for v in range(NVARS):
                        cap = info.homog - (slo - box[v][0])
                        if box[v][1] is None or cap < box[v][1]:
                            box[v] = (box[v][0], cap)
                            if box[v][0] > cap:
                                return None
                            changed = True
                if all(b[1] is not None for b in box):
                    shi = sum(b[1] for b in box)
                    for v in range(NVARS):
                        flo = info.homog - (shi - box[v][1])
                        if box[v][0] is None or flo > box[v][0]:
                            box[v] = (flo, box[v][1])
                            if flo > box[v][1]:
                                return None
                            changed = True
        if not changed:
            break
    for i, box in enumerate(boxes):
        for v in range(NVARS):
            if not iv_finite(box[v]):
                raise WindowUnderflow(
                    f"cannot bound factor {i} on {VARS[v]} for {window}")
    return [tuple(tuple(b) for b in box) for box in boxes]
