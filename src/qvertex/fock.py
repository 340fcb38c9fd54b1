"""Deformed Fock space and the deformed translation generator.

States are finite sums over lattice charges m >= 0 of e^{m alpha} tensor a
symmetric function in the power-sum basis.  The generator D acts in the
Jing gauge:

    D p_n        = n (1-t^{n+1})/(1-t^n) p_{n+1}        (as a derivation)
    D e^{m alpha} = m (1-t) p_1 e^{m alpha}

so that exp(z D) e^alpha reproduces the vertex-operator exponential
exp(sum_n (1-t^n)/n p_n z^n) e^alpha.  At t=0 this degenerates to the
classical lattice translation operator.  The per-charge coefficient (1-t)
is exposed as a parameter so the verifier can inject a perturbed D and
demonstrate that the covariance checks catch it.

D acts on the Z[t] rows of a state, one charge block at a time, packed
into one int each.  What it does to p_lambda e^{m alpha} is a cached
table (``_d_table``); one D step (``_d_step``) is one integer multiply
per table entry.  ``exp_D_chunk`` iterates it with the rows packed
throughout and decodes each output once; ``apply_D`` is the z^1
coefficient of ``exp_D``.  e^{gD} stays iterated rather than
closed-form, because the vacuum and classical checks test D itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

from .errors import TruncationMismatch, UnsupportedCharge
from .laurent import LaurentChunk, Monomial, VAR_INDEX, Window
from .rationals import is_rational, rational
from .scalars import low_row, pack_row, tp, tp_mullow, unpack_row
from .symfunc import Partition, SymFuncP

MAX_CHARGE = 3

D_CHARGE_COEFF = tp(1, -1)


class FockVector:
    """Map from lattice charge to its symmetric-function component."""

    __slots__ = ("components", "t_order")

    def __init__(self, components: dict, t_order: int):
        clean = {}
        for m, f in components.items():
            if not isinstance(m, int) or m < 0 or m > MAX_CHARGE:
                raise UnsupportedCharge(f"charge {m} outside 0..{MAX_CHARGE}")
            if f.t_order != t_order:
                raise TruncationMismatch("component t-order mismatch")
            if not f.is_zero():
                clean[m] = f
        self.components = clean
        self.t_order = t_order

    @classmethod
    def zero(cls, t_order: int) -> "FockVector":
        return cls({}, t_order)

    @classmethod
    def vacuum(cls, t_order: int) -> "FockVector":
        return cls.exponential(0, t_order)

    @classmethod
    def exponential(cls, m: int, t_order: int) -> "FockVector":
        return cls({m: SymFuncP.one(t_order)}, t_order)

    @classmethod
    def pure(cls, m: int, f: SymFuncP) -> "FockVector":
        return cls({m: f}, f.t_order)

    def _check(self, other):
        if self.t_order != other.t_order:
            raise TruncationMismatch("Fock t-order mismatch")

    def component(self, m: int) -> SymFuncP:
        return self.components.get(m, SymFuncP.zero(self.t_order))

    def charges(self):
        return sorted(self.components)

    def is_zero(self) -> bool:
        return not self.components

    def max_weight(self) -> int:
        return max((f.max_weight() for f in self.components.values()),
                   default=0)

    def t_truncate(self, t_order: int) -> "FockVector":
        return FockVector({m: f.t_truncate(t_order)
                           for m, f in self.components.items()}, t_order)

    def weight_truncate(self, degree_cap: int) -> "FockVector":
        """The projection that drops the terms above degree_cap; self when
        none is."""
        if self.max_weight() <= degree_cap:
            return self
        return FockVector({m: f.weight_truncate(degree_cap)
                           for m, f in self.components.items()},
                          self.t_order)

    def __add__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        self._check(other)
        comps = dict(self.components)
        for m, f in other.components.items():
            comps[m] = comps[m] + f if m in comps else f
        return FockVector(comps, self.t_order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockVector({m: -f for m, f in self.components.items()},
                          self.t_order)

    def __mul__(self, other):
        if isinstance(other, FockVector):
            self._check(other)
            comps: dict = {}
            for m1, f1 in self.components.items():
                for m2, f2 in other.components.items():
                    f = f1 * f2
                    m = m1 + m2
                    comps[m] = comps[m] + f if m in comps else f
            return FockVector(comps, self.t_order)
        if isinstance(other, SymFuncP) or is_rational(other):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "FockVector":
        """Times a SymFuncP, an int or a rational; a SymFuncP at another
        t-order raises, the zero vector included."""
        if isinstance(c, SymFuncP):
            self._check(c)
        return FockVector({m: f * c for m, f in self.components.items()},
                          self.t_order)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        self._check(other)
        return self.components == other.components

    # -- rows keyed by charge and partition, for the Laurent product and
    # the Jacobi convolution

    def charge_rows(self) -> tuple:
        """((charge, num, den), ...): one block per component."""
        return tuple((q, f.num, f.den) for q, f in self.components.items())

    def from_charge_rows(self, num: dict, den: int) -> "FockVector":
        """The vector with component q equal to num[q] / den, at this
        t-order; a charge above MAX_CHARGE raises, even one whose rows are
        all zero."""
        T = self.t_order
        return FockVector({q: SymFuncP(rows, den, T)
                           for q, rows in num.items()}, T)

    def __str__(self):
        if not self.components:
            return "0"
        bits = []
        for m in sorted(self.components):
            f = self.components[m]
            tag = f"e^{m}a" if m else "1"
            bits.append(f"[{f}] * {tag}")
        return " + ".join(bits)

    __repr__ = __str__


@lru_cache(maxsize=None)
def _d_pn_row(n: int, t_order: int) -> tuple:
    """n (1-t^{n+1})/(1-t^n) through t^T, in Z[t]."""
    geometric = tuple(0 if k % n else n for k in range(t_order + 1))
    return tp_mullow((1,) + (0,) * n + (-1,), geometric, t_order + 1)


def _charge_row(charge_coeff, t_order: int) -> tuple:
    """(k, crow): k the lcm of the denominators of charge_coeff (default
    1-t) and crow the integer row k * charge_coeff, cut at t^T."""
    if charge_coeff is None:
        charge_coeff = D_CHARGE_COEFF
    cs = tuple(map(rational, charge_coeff))
    k = lcm(*(c.denominator for c in cs))
    return k, tuple(c.numerator * (k // c.denominator)
                    for c in cs[: t_order + 1])


@lru_cache(maxsize=None)
def _d_table(lam: Partition, m: int, t_order: int, k: int,
             crow: tuple) -> tuple:
    """k D(p_lam e^{m alpha}) as ((nu, row, mult), ...), the term
    mult * row at p_nu each.

    Each distinct part p of lam gives nu = lam with one p raised to p+1,
    row = _d_pn_row(p) and mult = k m_p(lam); charge m > 0 adds
    nu = lam + (1,), row = crow and mult = m.  The nu are distinct.
    """
    entries = [(lam.replace_part(p, p + 1), _d_pn_row(p, t_order),
                k * lam.mult(p)) for p in sorted(set(lam), reverse=True)]
    if m:
        entries.append((lam.add_part(1), crow, m))
    return tuple(entries)


@lru_cache(maxsize=None)
def _d_mass(lam: Partition, m: int, t_order: int, k: int, crow: tuple,
            degree_cap: int, j: int) -> int:
    """A bound on the L1 mass (sum of absolute numerators) of (k D)^j
    p_lam e^{m alpha} below degree_cap: the sum over the ``_d_table``
    entries of mult * |row|_1 times the bound for nu at j-1.  |x|_1 |y|_1
    bounds each digit of x*y and its own L1 norm."""
    if not j:
        return 1
    if lam.weight >= degree_cap:
        return 0
    return sum(mult * sum(map(abs, row))
               * _d_mass(nu, m, t_order, k, crow, degree_cap, j - 1)
               for nu, row, mult in _d_table(lam, m, t_order, k, crow))


def _d_step(rows: dict, q: int, degree_cap: int, t_order: int, k: int,
            crow: tuple, B: int, packed: dict) -> dict:
    """k D below degree_cap on the rows {lam: P(row)} of a charge-q block,
    signed B-bit digits (``scalars.pack_row``): each entry of a live row's
    table adds mult * P(row) * P(entry row), and each sum is reduced mod
    t^{T+1} (``scalars.low_row``); packed caches P(entry row).  Exact when
    2^(B-1) exceeds the block's ``_d_mass`` bound."""
    acc: dict = {}
    for lam, x in rows.items():
        if lam.weight < degree_cap:
            for nu, drow, mult in _d_table(lam, q, t_order, k, crow):
                y = packed.get(drow)
                if y is None:
                    y = packed[drow] = pack_row(drow, B)
                acc[nu] = acc.get(nu, 0) + mult * x * y
    return {nu: low_row(x, t_order + 1, B) for nu, x in acc.items()}


def apply_D(v: FockVector, degree_cap: int,
            charge_coeff=None) -> FockVector:
    """One application of the deformed translation generator, dropping the
    terms it would raise above degree_cap: the z1 coefficient of
    exp(z1 D) v (``exp_D``).

    charge_coeff is the exact t-polynomial multiplying m p_1 on charge m;
    the default (1-t) is the Jing-gauge value.
    """
    return exp_D(v, "z1", 1, degree_cap, charge_coeff).get(Monomial.var("z1"))


def exp_D(v: FockVector, var: str, order: int, degree_cap: int,
          charge_coeff=None) -> LaurentChunk:
    """exp(var * D) v as a chunk with FockVector coefficients on [0, order],
    projected to degree_cap."""
    point = LaurentChunk({Monomial(): v}, Window.of(),
                         FockVector.zero(v.t_order))
    return exp_D_chunk(point, var, order, degree_cap, charge_coeff)


def exp_D_chunk(chunk: LaurentChunk, var: str, order: int, degree_cap: int,
                charge_coeff=None) -> LaurentChunk:
    """Apply exp(var * D) to a chunk of FockVector coefficients that may
    already carry powers of var (with window starting at 0), projected to
    degree_cap.

    D raises the weight by exactly one, so projecting each coefficient
    and then each step projects the whole sum, and D^j kills every
    projected coefficient once j > degree_cap: the support in var ends
    degree_cap above the chunk's own.

    D is iterated on the charge blocks (``_d_step``), each row packed
    once and kept packed to its output.  Each output monomial gathers its
    pieces (k D)^j w / (k^j j!) over the lcm D of their den * k^j * j!,
    and each of its rows is decoded once (``scalars.unpack_row``) and
    canonicalized once (``from_charge_rows``).  An output that no D step
    reaches has one piece, j = 0, which is its input coefficient: that is
    returned as it is, never packed or decoded.  One B serves every step:
    the ``_d_mass`` bound of (k D)^j of a block bounds its digits, so the
    sum over an output's pieces of D/(den * k^j * j!) times that bound
    bounds the output's digits and every step's; B = the largest such
    sum's bit_length + 2.
    """
    iv = VAR_INDEX[var]
    lo, hi = chunk.window.bounds[iv]
    if lo != 0 or hi > order:
        raise TruncationMismatch(
            f"chunk window {chunk.window} incompatible with order {order}")
    T = chunk.zero.t_order
    k, crow = _charge_row(charge_coeff, T)
    # per block: charge, rows and its pieces (output monomial, den, bound);
    # cut holds each input coefficient projected to degree_cap
    plan, cut = [], {}
    for m, w in chunk.terms.items():
        cut[m] = w = w.weight_truncate(degree_cap)
        for q, num, d in w.charge_rows():
            norms = [(lam, sum(map(abs, row))) for lam, row in num.items()]
            pieces = []
            for j in range(order - m[iv] + 1):
                bound = sum(x * _d_mass(lam, q, T, k, crow, degree_cap, j)
                            for lam, x in norms)
                if not bound:
                    break
                pieces.append((m * Monomial.var(var, j),
                               d * k ** j * factorial(j), bound))
            plan.append((q, num, pieces))
    # an output that no D step reaches is its input coefficient
    stepped = {key for _, _, pieces in plan for key, _, _ in pieces[1:]}
    terms = {m: w for m, w in cut.items() if m not in stepped}
    live = [piece for _, _, pieces in plan for piece in pieces
            if piece[0] in stepped]
    dens, sums = {}, {}
    for key, d, _ in live:
        dens[key] = lcm(dens.get(key, 1), d)
    for key, d, bound in live:
        sums[key] = sums.get(key, 0) + dens[key] // d * bound
    B = max(sums.values(), default=0).bit_length() + 2
    packed, accs = {}, {}
    for q, num, pieces in plan:
        if len(pieces) < 2 and pieces[0][0] not in stepped:
            continue
        rows = {lam: pack_row(row, B) for lam, row in num.items()}
        for j, (key, d, _) in enumerate(pieces):
            if j:
                rows = _d_step(rows, q, degree_cap, T, k, crow, B, packed)
            elif key not in stepped:
                continue
            f = dens[key] // d
            out = accs.setdefault(key, {}).setdefault(q, {})
            for lam, x in rows.items():
                out[lam] = out.get(lam, 0) + f * x
    terms.update((key, chunk.zero.from_charge_rows(
        {q: {lam: unpack_row(x, T + 1, B) for lam, x in out.items()}
         for q, out in acc.items()}, dens[key])) for key, acc in accs.items())
    window = Window(tuple((0, order) if i == iv else b
                          for i, b in enumerate(chunk.window.bounds)))
    s_hi = chunk.support[iv][1]
    reach = (0, None if s_hi is None else s_hi + degree_cap)
    support = tuple(reach if i == iv else s
                    for i, s in enumerate(chunk.support))
    return LaurentChunk(terms, window, chunk.zero, support)
