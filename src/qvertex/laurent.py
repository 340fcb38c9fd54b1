"""Multivariate Laurent windows and region expansions.

Fixed variable tuple: z1, z2, z3 and the translation parameter g.  A
``LaurentChunk`` stores finitely many coefficients of a Laurent series
inside an explicit per-variable exponent ``Window``, together with
``support`` metadata: per-variable intervals (None = unbounded) outside of
which the full series is known to vanish.

A ``FactorProduct`` is a symbolic product  c(t) * monomial * prod_i f_i^{e_i}
with each f_i a linear form in z1, z2, z3, g with t-power coefficients.
``expand`` converts it to a chunk in a given expansion region.  Each power
f^e is expanded by one multinomial enumerator against the region-dominant
term of lowest t-degree, with t kept adically smaller than every z variable
and g kept a nonnegative power series: finite for e > 0, geometric for
e < 0, where that term must have t-degree 0 and be free of g.  A product
is expanded as one chain (``_chain``) of members, each a support and a
build of its chunk on a box: a point chunk with c(t) at the monomial,
one chunk per factor, and any further members it is multiplied by (E+
chunks, a translated series); a braiding or translation scalar enters as
factors of the product itself, each its own member.  The fold of the
chain (``_fold``) runs one fixpoint (``_fixpoint_boxes``) over the
members' supports and the window, which cuts every member to a finite
box that holds each of its exponents in a split of a window monomial,
builds each member on its box (a linear form's geometric tail ends there
in closed form) and folds, the point first and the rest fewest
partitions first.  It is exact on the window as long as each chunk
stores its box, and raises WindowUnderflow when one does not, instead of
returning silently wrong boundary coefficients.  ``mul_raw`` and every
such fold run on one kernel (``_product``) that keeps integer rows packed
across its steps, forms no intermediate output that the next step does
not read, and decodes once per output of the last step.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from math import factorial, lcm

from .errors import (NonExpandableFactor, OutsideWindow, WindowUnderflow)
from .rationals import rational
from .scalars import (TP_ONE, low_row, pack_row, tp, tp_mul, tp_pow,
                      tp_str, unpack_row)
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

    def __getnewargs__(self):
        # pickle and copy call __new__ with these: the four exponents, not
        # tuple's one tuple of them
        return tuple(self)

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


def bounds_add(s1, s2):
    return tuple(iv_add(a, b) for a, b in zip(s1, s2))


# ---------------------------------------------------------------------------
# windows


class Window(namedtuple("Window", "bounds")):
    """Finite inclusive exponent box, one (lo, hi) pair per variable."""

    __slots__ = ()

    def __new__(cls, bounds):
        if len(bounds) != NVARS:
            raise ValueError("window needs one range per variable")
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"empty window range ({lo}, {hi})")
        return super().__new__(cls, bounds)

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

    def __str__(self):
        parts = [f"{v}:[{lo},{hi}]" for v, (lo, hi) in zip(VARS, self.bounds)
                 if (lo, hi) != (0, 0)]
        return "{" + ", ".join(parts) + "}" if parts else "{point}"


# ---------------------------------------------------------------------------
# expansion regions


class RegionOrder(namedtuple("RegionOrder", "order")):
    """Variable ordering, largest first; t is always adically smallest and g,
    when present, must come last (it is expanded as a nonnegative series)."""

    __slots__ = ()

    def __new__(cls, order):
        if len(set(order)) != len(order):
            raise ValueError("region variables must be distinct")
        for v in order:
            if v not in VAR_INDEX:
                raise ValueError(f"unknown variable {v!r}")
        if "g" in order and order[-1] != "g":
            raise ValueError("g must be the innermost region variable")
        return super().__new__(cls, order)

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

    def __str__(self):
        if not self.terms:
            return f"0 on {self.window}"
        bits = [f"({c}) {m}" for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


def mul_raw(a: LaurentChunk, b: LaurentChunk, window: Window,
            degree_cap=None) -> LaurentChunk:
    """Product restricted to a window, with no soundness guard, projected
    to degree_cap (None keeps every weight): one step of ``_product``.
    Only for callers that have proved separately that every support split
    landing in the window is covered by the operand windows.
    """
    return _product((a, b), (window,), degree_cap)


def _product(chunks, windows, degree_cap=None) -> LaurentChunk:
    """chunks[0] * chunks[1] * ... * chunks[-1], the product by chunks[s]
    kept on windows[s-1] and projected to degree_cap.

    One kernel on packed integer rows serves both coefficient kinds,
    SymFuncP (a scalar is its weight-0 part) and FockVector, in any
    pairing.  Each coefficient is read once as Z[t] rows keyed by charge
    and partition, a block per charge over its own denominator
    (``charge_rows``).  A step buckets its in-window term pairs by output
    monomial and accumulates each output over D = lcm(d1*d2) of its block
    pairs, k = D/(d1*d2) per pair: charges add, partitions merge (a merge
    above degree_cap is dropped before any arithmetic) and each row pair
    adds k*P(x1)*P(x2), one integer multiply, where P writes x_0..x_T as
    the int sum_i x_i 2^(iB) of signed B-bit digits (``scalars.pack_row``).

    Every step is planned before any product runs.  The buckets of every
    step come first; a backward pass then drops each intermediate output
    that no pair of the next step reads, so a chain forms only what can
    reach the last window.  Then each output's D (left unreduced: an
    intermediate block is an int per partition over its output's D) and
    the L1 mass of each output block, the sum over its block pairs of
    k*|block1|_1*|block2|_1 (sums of absolute numerators), which bounds
    each digit of the block and its mass in the next step.
    B = (the largest mass of any step).bit_length() + 2, so the lowest
    T+1 balanced digits of an accumulated int are its row mod t^{T+1}:
    carries only move upward.  An intermediate row stays packed, reduced
    by an offset and a mask (``scalars.low_row``); each output of the last
    step is decoded once (``scalars.unpack_row``) and rebuilt
    (``from_charge_rows``).  The product of the operand zeros gives the
    kind and t-order (TruncationMismatch on a mismatch), and a planned
    charge the kind refuses raises UnsupportedCharge up front.
    """
    zero, support = chunks[0].zero, chunks[0].support
    for c in chunks[1:]:
        zero, support = zero * c.zero, bounds_add(support, c.support)
    # per chunk, the blocks of each term: charge, the partitions as small
    # ints (chunk 0 and every step's output share one numbering), rows,
    # den and L1 mass
    pids = [{} for _ in chunks]
    reads = [{m: tuple((q, tuple([ids.setdefault(lam, len(ids))
                                  for lam in num]), num, d,
                        sum(map(abs, chain.from_iterable(num.values()))))
                       for q, num, d in c.charge_rows())
              for m, c in ch.terms.items()} for ch, ids in zip(chunks, pids)]
    weights = [[sum(lam) for lam in ids] for ids in pids]
    cap = (sum(max(w, default=0) for w in weights) if degree_cap is None
           else degree_cap)
    nus, nu_list, nu_w = pids[0], list(pids[0]), weights[0]
    # the plan, step by step: the output monomial -> its term pairs
    plan, left = [], reads[0]
    for s, window in enumerate(windows, 1):
        (l0, h0), (l1, h1), (l2, h2), (l3, h3) = window.bounds
        buckets: dict = {}
        for m1 in left:
            for m2 in reads[s]:
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
                    buckets[m] = [(m1, m2)]
                else:
                    pairs.append((m1, m2))
        plan.append(buckets)
        left = buckets
    for s in range(len(plan) - 1, 0, -1):
        read = {m1 for pairs in plan[s].values() for m1, _ in pairs}
        buckets = plan[s - 1]
        for m in [m for m in buckets if m not in read]:
            del buckets[m]
    # per step each output's den, and per output block (charge, -, -, den,
    # mass) for the next step
    charges, bound, left = set(), 0, reads[0]
    for s, buckets in enumerate(plan, 1):
        right, dens, out = reads[s], {}, {}
        for m, pairs in buckets.items():
            blocks = [(b1, b2) for m1, m2 in pairs
                      for b1 in left[m1] for b2 in right[m2]]
            den = dens[m] = lcm(*(b1[3] * b2[3] for b1, b2 in blocks))
            mass: dict = {}
            for (q1, _, _, d1, x1), (q2, _, _, d2, x2) in blocks:
                mass[q1 + q2] = (mass.get(q1 + q2, 0)
                                 + den // (d1 * d2) * x1 * x2)
            out[m] = [(q, None, None, den, x) for q, x in mass.items()]
            charges.update(mass)
            bound = max(bound, *mass.values())
        plan[s - 1] = (buckets, dens)
        left = out
    zero.from_charge_rows(dict.fromkeys(charges, {}), 1)  # bad charges raise
    B = bound.bit_length() + 2
    n = zero.t_order + 1

    def packed(s):  # the terms of chunk s in some pair, rows packed
        buckets = plan[max(s, 1) - 1][0]
        return {m: tuple((q, ids, tuple([pack_row(x, B)
                                         for x in num.values()]), d)
                         for q, ids, num, d, _ in reads[s][m])
                for m in {pr[min(s, 1)] for pairs in buckets.values()
                          for pr in pairs}}

    left = packed(0)
    for s, (buckets, dens) in enumerate(plan, 1):
        right, lams2, w2 = packed(s), list(pids[s]), weights[s]
        plan[s - 1] = None  # one step's buckets alive at a time
        # merged[i1][i2]: the int of the merged partition, -1 above the cap
        merged = [None] * len(nu_list)
        accs = {}
        for m, den in dens.items():
            acc = accs[m] = {}
            for m1, m2 in buckets[m]:
                for q1, ids1, xs1, d1 in left[m1]:
                    for q2, ids2, xs2, d2 in right[m2]:
                        k = den // (d1 * d2)
                        out = acc.get(q1 + q2)
                        if out is None:
                            out = acc[q1 + q2] = {}
                        for i1, x1 in zip(ids1, xs1):
                            row = merged[i1]
                            if row is None:
                                row = merged[i1] = [None] * len(lams2)
                            if k != 1:
                                x1 *= k
                            for i2, x2 in zip(ids2, xs2):
                                o = row[i2]
                                if o is None:
                                    o = -1
                                    if nu_w[i1] + w2[i2] <= cap:
                                        nu = Partition.merge(nu_list[i1],
                                                             lams2[i2])
                                        o = nus.get(nu)
                                        if o is None:
                                            o = nus[nu] = len(nu_list)
                                            nu_list.append(nu)
                                            nu_w.append(sum(nu))
                                    row[i2] = o
                                if o >= 0:
                                    out[o] = out.get(o, 0) + x1 * x2
        if s < len(plan):
            left = {m: tuple((q, tuple(out), [low_row(x, n, B)
                                              for x in out.values()],
                              dens[m]) for q, out in acc.items())
                    for m, acc in accs.items()}
    terms = {}
    for m, acc in accs.items():
        c = zero.from_charge_rows(
            {q: {nu_list[o]: unpack_row(x, n, B) for o, x in out.items()}
             for q, out in acc.items()}, dens[m])
        if not c.is_zero():
            terms[m] = c
    return LaurentChunk(terms, windows[-1], zero, support)


def _fold(members, target: Window, degree_cap=None):
    """The product of a chain's members on the target window, projected to
    degree_cap, in one ``_product``, or None when it vanishes there.

    A member is a pair (support, build): the support bounds where it can be
    nonzero, and build(box) returns its chunk for a box inside that
    support.  One fixpoint (``_fixpoint_boxes``) cuts every support to the
    box of the exponents that can land in the target, each member is built
    on its box, and each chunk must store its box: one that leaves it out
    raises WindowUnderflow, the one soundness rule of a chain.  Member 0
    comes first and the others follow fewest distinct partitions first (a
    stable sort), so a one-partition scalar or factor spreads the prefix
    before a many-partition E+ chunk multiplies every monomial it reaches.
    The product commutes, weights only add, so a merge dropped above the
    cap in one order is above it in any, and the windows below come from
    the boxes in the order folded.  Each prefix product is kept on its own
    box minus what the remaining members can still add, which is exact on
    the target and never empty at the fixpoint; an empty box means no
    split reaches it, found before any member is built.  A single member
    is returned whole.
    """
    boxes = _fixpoint_boxes([support for support, _ in members], target)
    if boxes is None:
        return None
    chunks = [build(box) for (_, build), box in zip(members, boxes)]
    for j, (ch, box) in enumerate(zip(chunks, boxes)):
        if any(lo < wlo or hi > whi for (lo, hi), (wlo, whi)
               in zip(box, ch.window.bounds)):
            raise WindowUnderflow(f"chunk {j} stored on {ch.window} "
                                  f"leaves out its box {Window(box)}")
    order = [0] + sorted(range(1, len(chunks)), key=lambda j: len(
        {lam for c in chunks[j].terms.values()
         for _, num, _ in c.charge_rows() for lam in num}))
    chunks, boxes = [chunks[j] for j in order], [boxes[j] for j in order]
    windows = []
    for k in range(1, len(chunks)):
        req = []
        for v, (lo, hi) in enumerate(target.bounds):
            for box in boxes[k + 1:]:
                lo -= box[v][1]
                hi -= box[v][0]
            lo = max(lo, sum(box[v][0] for box in boxes[:k + 1]))
            hi = min(hi, sum(box[v][1] for box in boxes[:k + 1]))
            req.append((lo, hi))
        windows.append(Window(tuple(req)))
    if not windows:
        return chunks[0]
    return _product(chunks, windows, degree_cap)


@lru_cache(maxsize=None, typed=True)
def binom_expansion_terms(e: int, s, kmax: int) -> tuple:
    """Coefficients of (x + s*y)^e with x dominant.

    Returns ((k, C(e, k) * s^k), ...) for x^{e-k} y^k, k = 0..kmax; e may be
    negative (generalized binomial coefficients).  C(e, k) is an integer,
    so each step c*(e-k)//(k+1) divides exactly and an int s gives int
    values.  Rows are cached per (e, s, kmax), an int and a Fraction s
    apart.
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
        acc[key] = acc.get(key, 0) + rational(c)
    return tuple(sorted((m, k, c) for (m, k), c in acc.items() if c))


def _form_str(form) -> str:
    bits = []
    for m, k, c in form:
        s = str(m)
        if k:
            s = (f"t^{k} " if k > 1 else "t ") + s
        bits.append(f"{c}*{s}" if c not in (1, -1) else ("-" if c == -1 else "") + s)
    return " + ".join(bits).replace("+ -", "- ")


class FactorProduct(namedtuple("FactorProduct", "coeff monomial factors",
                               defaults=(TP_ONE, MONO_ONE, ()))):
    """coeff(t) * monomial * prod_i form_i^{exp_i}, all exact."""

    __slots__ = ()

    @classmethod
    def of(cls, coeff=TP_ONE, monomial: Monomial = MONO_ONE,
           factors=()) -> "FactorProduct":
        fs = tuple((tuple(form), int(e)) for form, e in factors if e)
        return cls(tp(*coeff), monomial, fs)

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
            coeff = (0,) * (k * n) + (rational(1, c ** -n),)
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
                    acc[key] = acc.get(key, 0) + c
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
                form = tuple(sorted((Monomial.var(w), 0, 1)
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
    """One factor form^e of a linear form, expanded as base^e (1 + sum_i
    u_i)^e; a non-linear term raises NonExpandableFactor.

    The base is the region-dominant term among the terms of lowest t-degree
    and the u_i are the other terms divided by it.  For e > 0 the sum is
    the finite multinomial expansion (picks beyond e carry a zero falling
    factorial); for e < 0 it is the generalized one, which needs a
    t-degree-0 base free of g.
    """

    __slots__ = ("form", "exp", "base_c", "base_m", "base_k", "uterms",
                 "support")

    def __init__(self, form, e, reg, t_order, g_cap):
        self.form = form
        self.exp = e
        for m, _, _ in form:  # each term one variable to the first power
            if sorted(m) != [0, 0, 0, 1]:
                raise NonExpandableFactor(
                    f"non-linear term in ({_form_str(form)})")
            if not reg.covers([VARS[m.index(1)]]):
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
            uterms.append([ratio, k - kmin, rational(c, c_d), jmax])
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

    def chunk(self, box, t_order) -> LaurentChunk:
        """The expansion stored on a box inside its support.

        The form is linear, so a u-term t^k c v/v_d lowers only the
        dominant variable v_d, by exactly one, and no u-term raises it:
        base^e sits at v_d^e, and a u-term repeats at most e - lo(v_d)
        times inside the box, which ends every geometric tail.
        """
        d = self.base_m.index(1)
        for u in self.uterms:
            if u[0][d] and (u[3] is None or u[3] > self.exp - box[d][0]):
                u[3] = self.exp - box[d][0]
        acc, den = self._enum(*zip(*box), t_order)
        terms = {m: SymFuncP({Partition(): tuple(row)}, den, t_order)
                 for m, row in acc.items()}
        return LaurentChunk(terms, Window(tuple(box)),
                            SymFuncP.zero(t_order), self.support)

    def _enum(self, lo, hi, t_order):
        """({monomial: T+1 integer numerators}, den) of the expansion on
        the box [lo, hi].

        The pick j_1..j_r of the u-terms carries base^e prod_i u_i^{j_i}
        times e(e-1)...(e-J+1) / prod_i j_i!, J = sum_i j_i; that last
        factor is C(e, J) times a multinomial coefficient, an integer.
        With u_i = p_i / q_i, every leaf is an integer over the one
        denominator den = den(base^e) prod_i q_i^{jmax_i}: pick j of u_i
        contributes p_i^j q_i^{jmax_i - j}.
        """
        e = self.exp
        uterms = self.uterms
        r = len(uterms)
        base_m = tuple(a * e for a in self.base_m)
        base_c = (self.base_c ** e if e > 0
                  else rational(1, self.base_c ** -e))
        den = base_c.denominator
        pows = []
        for _, _, c, jmax in uterms:
            p, q = c.numerator, c.denominator
            pows.append([p ** j * q ** (jmax - j) for j in range(jmax + 1)])
            den *= q ** jmax
        # falling factorials e(e-1)...(e-J+1), for J up to every pick
        ff = [1]
        for i in range(sum(jmax for _, _, _, jmax in uterms)):
            ff.append(ff[-1] * (e - i))
        # suffix reach per variable for pruning
        suffix = [[(0, 0)] * NVARS for _ in range(r + 1)]
        for i in range(r - 1, -1, -1):
            ratio, _, _, jmax = uterms[i]
            for v in range(NVARS):
                d = ratio[v] * jmax
                nlo, nhi = suffix[i + 1][v]
                suffix[i][v] = (nlo + min(d, 0), nhi + max(d, 0))
        acc: dict = {}

        def rec(idx, cur_m, cur_k, cur_c, picks, denom):
            for v in range(NVARS):
                slo, shi = suffix[idx][v]
                if cur_m[v] + shi < lo[v] or cur_m[v] + slo > hi[v]:
                    return
            if idx == r:
                mono = tuple.__new__(Monomial, cur_m)
                slot = acc.setdefault(mono, [0] * (t_order + 1))
                slot[cur_k] += cur_c * (ff[picks] // denom)
                return
            ratio, k, _, jmax = uterms[idx]
            pw = pows[idx]
            cm, ck = cur_m, cur_k
            for j in range(jmax + 1):
                if ck > t_order or 0 < e < picks + j:
                    break
                rec(idx + 1, cm, ck, cur_c * pw[j], picks + j,
                    denom * factorial(j))
                cm = tuple(a + b for a, b in zip(cm, ratio))
                ck += k

        if self.base_k <= t_order:
            rec(0, base_m, self.base_k, base_c.numerator, 0, 1)
        return acc, den


def _chain(fp: FactorProduct, reg: RegionOrder, window: Window,
           t_order: int):
    """fp expanded in reg as members of a chain for the window (``_fold``).

    Returns the members, (support, build) pairs: the point chunk of fp's
    coefficient at its monomial, then one per factor, each built on its
    box; and fp's support.  A vanishing fp is one member with an empty
    support, (1, 0) on every variable, so any chain holding it folds to
    None.
    """
    glo, g_cap = window.range("g")
    if glo < 0:
        raise NonExpandableFactor("g admits no negative exponents")
    vanished = [(((1, 0),) * NVARS, None)], ((0, 0),) * NVARS
    if fp.is_zero():
        return vanished
    infos = [_FactorInfo(form, e, reg, t_order, g_cap)
             for form, e in fp.factors if e]
    coeff = scalar(fp.coeff, t_order)
    if coeff.is_zero():
        return vanished
    point = support = tuple((e, e) for e in fp.monomial)
    members = [(point, lambda box: LaurentChunk(
        {fp.monomial: coeff}, Window(box), SymFuncP.zero(t_order)))]
    for info in infos:
        support = bounds_add(support, info.support)
        members.append((info.support,
                        lambda box, info=info: info.chunk(box, t_order)))
    return members, support


def _expand(fp: FactorProduct, reg: RegionOrder, window: Window,
            t_order: int, chunks=()) -> LaurentChunk:
    """fp expanded in reg on the window, times the given chunks (every
    weight kept): fp's chain (``_chain``) and the chunks in one ``_fold``,
    each chunk a member whose build returns it."""
    members, support = _chain(fp, reg, window, t_order)
    zero = SymFuncP.zero(t_order)
    for c in chunks:
        zero, support = zero * c.zero, bounds_add(support, c.support)
        members.append((c.support, lambda box, c=c: c))
    acc = _fold(members, window)
    return LaurentChunk({} if acc is None else acc.terms, window, zero,
                        support)


def _fixpoint_boxes(supports, window):
    """Shrink the supports of a chain's members to finite boxes sufficient
    for the window.

    Every split of a window monomial over the supports stays inside the
    boxes (induction over the rounds), so folding over these boxes is
    exact on the window.  Returns None when some member has no admissible
    exponents, i.e. the product vanishes on the window.

    The rounds run until no box changes, and they end.  Per variable the
    members' exponents must sum into the window's range, and a side only
    moves inward: a finite interval can do so finitely often and an open
    side is bounded once.  A box open above moves only when every other
    box is bounded above, so at most one does, and likewise below; while
    the finite intervals stay put each of those two moves at most once,
    as the bound that one's move gives the other, once met, gives the
    first nothing new.
    """
    boxes = [list(s) for s in supports]
    target = window.bounds
    changed = True
    while changed:
        changed = False
        for i in range(len(boxes)):
            for v in range(NVARS):
                olo = ohi = 0
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
    for i, box in enumerate(boxes):
        for v in range(NVARS):
            if None in box[v]:
                raise WindowUnderflow(
                    f"cannot bound member {i} on {VARS[v]} for {window}")
    return [tuple(tuple(b) for b in box) for box in boxes]
