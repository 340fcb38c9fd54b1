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

D acts on the Z[t] rows of a state, one charge block at a time.  What it
does to p_lambda e^{m alpha} is a cached table (``_d_table``), and one D
step (``_d_step``) packs each row once into an int and adds one integer
multiply per table entry.  ``apply_D`` is one step; ``exp_D_chunk``
iterates it on the raw rows and canonicalizes each output once.  e^{gD}
stays iterated rather than closed-form, because the vacuum and classical
checks test D itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

from .errors import TruncationMismatch, UnsupportedCharge
from .laurent import LaurentChunk, Monomial, VAR_INDEX, Window
from .rationals import Rat
from .scalars import add_row, pack_row, tp, tp_mullow, unpack_row
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
        if isinstance(other, (SymFuncP, int, Rat)):
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
    k = lcm(*(Rat(c).denominator for c in charge_coeff))
    return k, tuple(int(Rat(c) * k) for c in charge_coeff[: t_order + 1])


@lru_cache(maxsize=None)
def _d_table(lam: Partition, m: int, t_order: int, k: int,
             crow: tuple) -> tuple:
    """k D(p_lam e^{m alpha}) as ((nu, row, mult), ...), the term
    mult * row at p_nu each, and the largest L1 norm of a mult * row.

    Each distinct part p of lam gives nu = lam with one p raised to p+1,
    row = _d_pn_row(p) and mult = k m_p(lam); charge m > 0 adds
    nu = lam + (1,), row = crow and mult = m.  The nu are distinct.
    """
    entries = [(lam.replace_part(p, p + 1), _d_pn_row(p, t_order),
                k * lam.mult(p)) for p in sorted(set(lam), reverse=True)]
    if m:
        entries.append((lam.add_part(1), crow, m))
    return tuple(entries), max((mult * sum(map(abs, row))
                                for _, row, mult in entries), default=0)


def _d_step(blocks, degree_cap: int, t_order: int, k: int,
            crow: tuple) -> list:
    """D on charge blocks ((q, {lam: row}, den), ...), as the blocks
    (q, {nu: row}, den * k) that keep a row, dropping the terms D would
    raise above degree_cap.

    Each live row is packed once as signed B-bit digits
    (``scalars.pack_row``) and each entry of its table (``_d_table``)
    adds mult * P(row) * P(entry row), one integer multiply.  An output
    nu gets at most one entry from each lam, so no digit exceeds the sum
    of the rows' L1 norms times the largest entry norm, and
    B = that bound's bit_length + 2; the lowest T+1 balanced digits of
    each sum are its row (``scalars.unpack_row``).
    """
    n = t_order + 1
    out = []
    for q, num, den in blocks:
        live = [(row, _d_table(lam, q, t_order, k, crow))
                for lam, row in num.items() if lam.weight < degree_cap]
        if not live:
            continue
        B = (sum(sum(map(abs, row)) for row, _ in live)
             * max(table[1] for _, table in live)).bit_length() + 2
        packed: dict = {}
        acc: dict = {}
        for row, (entries, _) in live:
            x = pack_row(row, B)
            for nu, drow, mult in entries:
                y = packed.get(drow)
                if y is None:
                    y = packed[drow] = pack_row(drow, B)
                acc[nu] = acc.get(nu, 0) + mult * x * y
        rows = {nu: unpack_row(s, n, B) for nu, s in acc.items() if s}
        if rows:
            out.append((q, rows, den * k))
    return out


def apply_D(v: FockVector, degree_cap: int,
            charge_coeff=None) -> FockVector:
    """One application of the deformed translation generator, dropping the
    terms it would raise above degree_cap.

    charge_coeff is the exact t-polynomial multiplying m p_1 on charge m;
    the default (1-t) is the Jing-gauge value.  Both parts of D add into
    one set of rows per charge, over den times the lcm of charge_coeff's
    denominators (``_d_step``).
    """
    T = v.t_order
    return FockVector({q: SymFuncP(num, den, T) for q, num, den in
                       _d_step(v.charge_rows(), degree_cap, T,
                               *_charge_row(charge_coeff, T))}, T)


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

    D is iterated on the raw charge blocks, one ``_d_step`` (the kernel
    of ``apply_D``) per power, with no FockVector in between.  Each output
    monomial gathers its pieces D^j w / j! over the lcm of their den * j!
    and is canonicalized once (``from_charge_rows``).
    """
    iv = VAR_INDEX[var]
    lo, hi = chunk.window.bounds[iv]
    if lo != 0 or hi > order:
        raise TruncationMismatch(
            f"chunk window {chunk.window} incompatible with order {order}")
    T = chunk.zero.t_order
    k, crow = _charge_row(charge_coeff, T)
    pieces: dict = {}
    for m, w in chunk.terms.items():
        blocks = w.weight_truncate(degree_cap).charge_rows()
        for j in range(order - m[iv] + 1):
            if j:
                blocks = _d_step(blocks, degree_cap, T, k, crow)
                if not blocks:
                    break
            pieces.setdefault(m * Monomial.var(var, j), []).append(
                (blocks, factorial(j)))
    terms = {}
    for key, parts in pieces.items():
        den = lcm(*(d * f for blocks, f in parts for _, _, d in blocks))
        acc: dict = {}
        for blocks, f in parts:
            for q, num, d in blocks:
                rows = acc.setdefault(q, {})
                for lam, row in num.items():
                    add_row(rows, lam, row, den // (d * f))
        terms[key] = chunk.zero.from_charge_rows(acc, den)
    window = Window(tuple((0, order) if i == iv else b
                          for i, b in enumerate(chunk.window.bounds)))
    s_hi = chunk.support[iv][1]
    reach = (0, None if s_hi is None else s_hi + degree_cap)
    support = tuple(reach if i == iv else s
                    for i, s in enumerate(chunk.support))
    return LaurentChunk(terms, window, chunk.zero, support)
