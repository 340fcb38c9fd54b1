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
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

from .errors import TruncationMismatch, UnsupportedCharge
from .laurent import LaurentChunk, Monomial, VAR_INDEX, Window
from .rationals import Rat
from .scalars import TScalar, add_row, tp, tp_mullow
from .symfunc import SymFuncP

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
        if isinstance(other, (TScalar, SymFuncP, int, Rat)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "FockVector":
        """Times a SymFuncP, a TScalar, an int or a rational; a SymFuncP or
        TScalar at another t-order raises, the zero vector included."""
        if isinstance(c, (SymFuncP, TScalar)):
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
        return FockVector({q: SymFuncP.from_rows(rows, den, T)
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


def apply_D(v: FockVector, degree_cap: int,
            charge_coeff=None) -> FockVector:
    """One application of the deformed translation generator, dropping the
    terms it would raise above degree_cap.

    charge_coeff is the exact t-polynomial multiplying m p_1 on charge m;
    the default (1-t) is the Jing-gauge value.  Both parts of D add into
    one set of rows per charge, over den times the lcm of charge_coeff's
    denominators.
    """
    if charge_coeff is None:
        charge_coeff = D_CHARGE_COEFF
    T = v.t_order
    k = lcm(*(Rat(c).denominator for c in charge_coeff))
    crow = tuple(int(Rat(c) * k) for c in charge_coeff)
    comps = {}
    for m, f in v.components.items():
        acc: dict = {}
        for lam, row in f.num.items():
            if lam.weight + 1 > degree_cap:
                continue
            for part in set(lam):
                add_row(acc, lam.replace_part(part, part + 1),
                        tp_mullow(row, _d_pn_row(part, T), T + 1),
                        k * lam.mult(part))
            if m:
                add_row(acc, lam.add_part(1), tp_mullow(row, crow, T + 1), m)
        comps[m] = SymFuncP.from_rows(acc, f.den * k, T)
    return FockVector(comps, T)


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
    and then each step (``apply_D``) projects the whole sum, and D^k kills
    every projected coefficient once k > degree_cap: the support in var
    ends degree_cap above the chunk's own.
    """
    iv = VAR_INDEX[var]
    lo, hi = chunk.window.bounds[iv]
    if lo != 0 or hi > order:
        raise TruncationMismatch(
            f"chunk window {chunk.window} incompatible with order {order}")
    terms: dict = {}
    for m, w in chunk.terms.items():
        base = m[iv]
        cur = w.weight_truncate(degree_cap)
        for k in range(0, order - base + 1):
            if k:
                cur = apply_D(cur, degree_cap, charge_coeff)
            piece = cur.scale(Rat(1, factorial(k))) if k else cur
            key = m * Monomial.var(var, k)
            terms[key] = terms[key] + piece if key in terms else piece
    window = Window(tuple((0, order) if i == iv else b
                          for i, b in enumerate(chunk.window.bounds)))
    s_hi = chunk.support[iv][1]
    reach = (0, None if s_hi is None else s_hi + degree_cap)
    support = tuple(reach if i == iv else s
                    for i, s in enumerate(chunk.support))
    return LaurentChunk(terms, window, chunk.zero, support)
