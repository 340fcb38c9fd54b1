"""Quantum vertex operators for the rank-one deformed lattice algebra.

The operator content lives in the Jing gauge: the creation half of a
charge-a vertex operator multiplies by exp(a sum_n (1-t^n)/n p_n z^n),
the annihilation half applies exp(-a sum_n (d/dp_n) z^{-n}), and the
lattice zero mode contributes z^{a m} on a charge-m state before the
charge shift m -> m + a.  Applying an operator to a chunk of states is
therefore one Laurent product (``laurent.mul_raw``) of its E+ chunk and
its E-.zero-mode chunk; ``y_apply``, each step of ``y_product`` and the
Heisenberg modes all run through it.  Composing two vertex operators
produces the normal-ordered closed form

    Y(e^a, z1) Y(e^b, z2) v = r(z1,z2)^{ab} E+_a(z1) E+_b(z2) ...

with the two-point prefactor r(z1,z2) = (z1-z2) z1 / (z1 - t z2), and the
braiding and translation scalars are ratios of r's:

    S_tau   = -(1 - t z2/z1)/(1 - t z1/z2) = r(z1,z2)/r(z2,z1)
    S_gamma = (1 - t z2/z1)/(1 - t (z2+g)/(z1+g))
            = r(z1+g, z2+g)/r(z1,z2)

Single-variable modes of the pure-Heisenberg field E+ E- generate the
Hall-Littlewood Q-functions; that equality is validated against the
classical symmetric-function oracle, never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import UnsupportedCharge
from .fock import MAX_CHARGE, FockVector
from .laurent import (FactorProduct, LaurentChunk, Monomial, NVARS,
                      RegionOrder, VARS, VAR_INDEX, Window, _fold,
                      bounds_add, iv_hull, lform, mul_raw)
from .rationals import Rat
from .scalars import tp
from .symfunc import Partition, SymFuncP, scalar


def _check_charge(a: int):
    if not isinstance(a, int) or a < 0 or a > MAX_CHARGE:
        raise UnsupportedCharge(f"charge {a} outside 0..{MAX_CHARGE}")


# ---------------------------------------------------------------------------
# creation / annihilation halves


@lru_cache(maxsize=None)
def _creation_coeff(a: int, j: int, t_order: int) -> SymFuncP:
    """a (1 - t^j)."""
    return scalar(tp(*([a] + [0] * (j - 1) + [-a])), t_order)


_EPLUS_CACHE: dict = {}


def eplus_coeff(a: int, k: int, t_order: int) -> SymFuncP:
    """Coefficient c_k of var^k in exp(a sum_n (1-t^n)/n p_n var^n).

    Euler recurrence k c_k = sum_j a (1-t^j) p_j c_{k-j}.  c_k is
    homogeneous of weight k, so one list per (a, T) serves every cap.
    """
    lst = _EPLUS_CACHE.setdefault((a, t_order), [SymFuncP.one(t_order)])
    while len(lst) <= k:
        kk = len(lst)
        acc = SymFuncP.zero(t_order)
        if a:
            for j in range(1, kk + 1):
                piece = lst[kk - j].mul_p(j)
                acc = acc + piece * _creation_coeff(a, j, t_order)
        lst.append(acc.scale(Rat(1, kk)))
    return lst[k]


def eminus_states(a: int, f: SymFuncP) -> list:
    """[g_0, g_1, ...] with E-_a(var) f = sum_w g_w var^{-w}.

    Euler recurrence w g_w = sum_j (-a j) (d/dp_j) g_{w-j}; the list is
    exactly finite since each step lowers the p-weight.
    """
    gs = [f]
    if a == 0 or f.is_zero():
        return gs
    for w in range(1, f.max_weight() + 1):
        acc = SymFuncP.zero(f.t_order)
        for j in range(1, w + 1):
            g = gs[w - j].dp(j)
            if not g.is_zero():
                acc = acc + g.scale(-a * j)
        gs.append(acc.scale(Rat(1, w)))
    while len(gs) > 1 and gs[-1].is_zero():
        gs.pop()
    return gs


def heis_mode(power: int, f: SymFuncP) -> SymFuncP:
    """[var^power] E+(var) E-(var) f, the pure-Heisenberg field mode: the
    charge-1 component of Y(e^alpha, var) f e^0 at var^power.  The mode
    takes weight w to w + power, so the cap f.max_weight() + max(power, 0)
    keeps f whole and drops nothing of the result."""
    cap = f.max_weight() + max(power, 0)
    ch = y_apply(1, "z1", FockVector.pure(0, f), (power, power), cap)
    return ch.get(Monomial.var("z1", power)).component(1)


def jing_Q(lam: Partition, t_order: int) -> SymFuncP:
    """Iterated modes B_{l1}...B_{lk} 1 of the Heisenberg field E+ E-.

    Expected to equal the Hall-Littlewood Q_lambda in power sums; the
    verifier compares against the classical oracle rather than assuming it.
    """
    f = SymFuncP.one(t_order)
    for part in reversed(Partition(lam)):
        f = heis_mode(part, f)
    return f


# ---------------------------------------------------------------------------
# lattice vertex operators


def _apply(a: int, var: str, chunk: LaurentChunk, var_range,
           cap: int) -> LaurentChunk:
    """Y(e^{a alpha}, var) on every coefficient of a chunk free of var, at
    the working cap, on the exponent range [lo, hi] of var.

    On charge m, Y is var^{a m} E+_a(var) E-_a(var) followed by the shift
    m -> m + a, so the whole step is one Laurent product: the E+ chunk
    times the chunk of var^{a m - w} g_w at charge m + a, with
    E-_a f = sum_w g_w var^{-w} (``eminus_states``) for each charge-m
    component f.  Every output exponent is an E+ exponent in [0, cap] plus
    an E- exponent, so E+ up to hi minus the lowest E- exponent covers
    every split landing in the window.
    """
    _check_charge(a)
    lo, hi = var_range
    T = chunk.zero.t_order
    iv = VAR_INDEX[var]
    em: dict = {}
    for mono, v in chunk.terms.items():
        for m, f in v.components.items():
            _check_charge(m + a)
            for w, g in enumerate(eminus_states(a, f.weight_truncate(cap))):
                if g.is_zero():
                    continue
                key = mono * Monomial.var(var, a * m - w)
                piece = FockVector.pure(m + a, g)
                em[key] = em[key] + piece if key in em else piece
    exps = [key[iv] for key in em] or [0]

    def window(r):  # the chunk's window with var's range r
        return Window(tuple(r if i == iv else b
                            for i, b in enumerate(chunk.window.bounds)))

    eminus = LaurentChunk(em, window((min(exps), max(exps))),
                          FockVector.zero(T))
    eplus = _eplus_multi_chunk(a, (var,), {var: max(0, hi - min(exps))},
                               cap, T)
    return mul_raw(eplus, eminus, window((lo, hi)), cap)


def y_apply(a: int, var: str, v: FockVector, var_range,
            degree_cap: int) -> LaurentChunk:
    """Y(e^{a alpha}, var) v on the exponent range [lo, hi] at degree_cap:
    one Laurent product (``_apply``) of the E+ chunk and the E-.zero-mode
    chunk of v.  a = 0 is the identity operator."""
    point = LaurentChunk({Monomial(): v}, Window.of(),
                         FockVector.zero(v.t_order))
    return _apply(a, var, point, var_range, degree_cap)


def working_caps(ops, ranges: dict, weights: dict, cap: int) -> list:
    """The weight up to which y_product(ops, v, ranges) keeps each state
    exact: entry 0 for v (weights maps its charges to their top weights),
    entry i after the i-th operator applied.  The z^p mode of Y(e^{a alpha})
    takes weight w at charge m to w + p - a m, so after operator i a state
    reaches w + sum_{j<=i} (hi_j - a_j m_j), and only its weights up to
    cap + sum_{j>i} (a_j m_j - lo_j) can still land at or below the cap."""
    steps = list(reversed(list(ops)))
    reach = need = [0] * (len(steps) + 1)
    for m, w in weights.items():
        los, his = [0], [0]  # prefix sums of lo_j - a_j m_j, hi_j - a_j m_j
        for a, var in steps:
            lo, hi = ranges[var]
            los.append(los[-1] + lo - a * m)
            his.append(his[-1] + hi - a * m)
            m += a
        reach = [max(r, w + h) for r, h in zip(reach, his)]
        need = [max(n, cap + lo - los[-1]) for n, lo in zip(need, los)]
    return list(map(min, reach, need))


def _product_support(ops, v: FockVector, cap: int) -> tuple:
    """Per-variable bounds, None for unbounded, on the exponents of the full
    series Y(a_1, var_1) ... Y(a_k, var_k) v, projected to the cap.

    The z^p mode of operator i takes weight w_{i-1} at charge m_i to
    w_i = w_{i-1} + p - a_i m_i, so p = a_i m_i + w_i - w_{i-1}: w_0 is a
    weight of v, w_k lies in [0, cap] and the weights in between in
    [0, inf), whose sums telescope to the band of total degree.  Only the
    first operator applied has a floor and only the last one a ceiling: a
    later operator's E- lowers the weight without limit as its exponent
    falls."""
    steps = list(reversed(list(ops)))
    found: dict = {}
    for m, f in v.components.items():
        ws = ([(min(lam.weight for lam in f.num), f.max_weight())]
              + [(0, None)] * (len(steps) - 1) + [(0, cap)])
        for (a, var), (lo0, hi0), (lo1, hi1) in zip(steps, ws, ws[1:]):
            iv = (None if hi0 is None else a * m + lo1 - hi0,
                  None if hi1 is None else a * m + hi1 - lo0)
            found[var] = iv_hull(found[var], iv) if var in found else iv
            m += a
    return tuple(found.get(var, (0, 0)) for var in VARS)


def y_product(ops, v: FockVector, ranges: dict,
              degree_cap: int) -> LaurentChunk:
    """Y(a_1, var_1) ... Y(a_k, var_k) v, applied right to left and
    projected to degree_cap; ops holds (charge, var) with distinct vars,
    ranges each var's exponent window.  Each operator is one Laurent
    product (``_apply``) on the whole chunk so far.  E- lowers the
    p-weight, so a state cut at the cap would feed wrong terms back below
    it: each operator runs at the larger working cap (``working_caps``) of
    its input and output.  The support is ``_product_support``."""
    cap, T = degree_cap, v.t_order
    zero = FockVector.zero(T)
    caps = working_caps(ops, ranges, {m: f.max_weight() for m, f
                                      in v.components.items()}, cap)
    chunk = LaurentChunk({Monomial(): v}, Window.of(), zero)
    for i, (a, var) in enumerate(reversed(list(ops))):
        chunk = _apply(a, var, chunk, ranges[var],
                       max(caps[i], caps[i + 1]))
    return LaurentChunk({m: w.weight_truncate(cap)
                         for m, w in chunk.terms.items()},
                        chunk.window, zero, _product_support(ops, v, cap))


# ---------------------------------------------------------------------------
# closed forms


def r_factor(v1: str, v2: str, e: int = 1) -> FactorProduct:
    """((v1 - v2) * v1 / (v1 - t v2))^e, the two-point prefactor."""
    base = FactorProduct.of(
        monomial=Monomial.var(v1),
        factors=((lform((1, v1), (-1, v2)), 1),
                 (lform((1, v1), (-1, v2, 1)), -1)))
    return base.pow(e)


@dataclass(frozen=True)
class ClosedForm:
    """prefactor(z, g, t) * prod_i E+_{a_i}(sum of slot vars) * e^{charge}.

    Slots hold (charge, vars) with the E+ argument the sum of the vars, so
    variable shifts stay inside the class.
    """

    prefactor: FactorProduct
    slots: tuple
    charge: int

    def substitute(self, mapping: dict) -> "ClosedForm":
        slots = []
        for a, svars in self.slots:
            out: list = []
            for v in svars:
                out.extend(mapping.get(v, (v,)))
            slots.append((a, tuple(out)))
        return ClosedForm(self.prefactor.substitute(mapping),
                          tuple(slots), self.charge)


def x2_closed_form(a: int, b: int) -> ClosedForm:
    _check_charge(a)
    _check_charge(b)
    _check_charge(a + b)
    slots = tuple((c, (v,)) for c, v in ((a, "z1"), (b, "z2")) if c)
    return ClosedForm(r_factor("z1", "z2", a * b), slots, a + b)


def x3_closed_form(a: int = 1, b: int = 1, c: int = 1) -> ClosedForm:
    for ch in (a, b, c, a + b + c):
        _check_charge(ch)
    pref = r_factor("z1", "z2", a * b).mul(
        r_factor("z1", "z3", a * c)).mul(r_factor("z2", "z3", b * c))
    slots = tuple((ch, (v,)) for ch, v in
                  ((a, "z1"), (b, "z2"), (c, "z3")) if ch)
    return ClosedForm(pref, slots, a + b + c)


def x120_closed_form(a: int = 1, b: int = 1, c: int = 1) -> ClosedForm:
    """X with the third variable evaluated at zero: r(v,0) = v, E+(0) = 1."""
    for ch in (a, b, c, a + b + c):
        _check_charge(ch)
    pref = r_factor("z1", "z2", a * b).mul(FactorProduct.of(
        monomial=Monomial.of(z1=a * c, z2=b * c)))
    slots = tuple((ch, (v,)) for ch, v in ((a, "z1"), (b, "z2")) if ch)
    return ClosedForm(pref, slots, a + b + c)


def _eplus_multi_chunk(a: int, svars: tuple, his: dict, degree_cap: int,
                       t_order: int) -> LaurentChunk:
    """E+_a at a sum of variables, complete on the box prod_v [0, his[v]].

    With m_v the multiplicity of v in svars, E+_a(sum_v m_v z_v) has
    coefficient multinomial(K; k) prod_v m_v^{k_v} eplus_coeff(a, K) at
    prod_v z_v^{k_v}, K = sum_v k_v.  That coefficient has p-weight K, so
    it vanishes in the quotient for K > degree_cap and the true support is
    [0, degree_cap] per variable.
    """
    vset = sorted(set(svars), key=VAR_INDEX.get)
    mult = [svars.count(v) for v in vset]
    cs = [eplus_coeff(a, k, t_order)
          for k in range(min(degree_cap, sum(his[v] for v in vset)) + 1)]
    terms = {}
    for ks in itertools.product(*(range(his[v] + 1) for v in vset)):
        K = sum(ks)
        if K >= len(cs) or cs[K].is_zero():
            continue
        n = factorial(K)
        for k, m in zip(ks, mult):
            n = n * m ** k // factorial(k)
        terms[Monomial.of(**dict(zip(vset, ks)))] = \
            cs[K] if n == 1 else cs[K].scale(n)
    window = Window(tuple((0, his.get(VARS[i], 0)) for i in range(NVARS)))
    support = tuple((0, degree_cap) if VARS[i] in vset else (0, 0)
                    for i in range(NVARS))
    return LaurentChunk(terms, window, SymFuncP.zero(t_order), support)


def evaluate(cf: ClosedForm, reg: RegionOrder, window: Window,
             degree_cap: int, t_order: int) -> LaurentChunk:
    """Region expansion of a closed form into a FockVector-valued chunk.

    Sound on the whole window: operand windows are sized so that every
    split of a window monomial across prefactor and E+ slots is covered;
    slot exponents above degree_cap die in the quotient.
    """
    zero = FockVector.zero(t_order)
    occ = [0] * NVARS
    for a, svars in cf.slots:
        for v in set(svars):
            occ[VAR_INDEX[v]] += 1
    pw = []
    for i in range(NVARS):
        lo, hi = window.bounds[i]
        plo = lo - occ[i] * degree_cap
        if VARS[i] == "g":
            plo = max(plo, 0)
        pw.append((plo, hi))
    pref = cf.prefactor.expand(reg, Window(tuple(pw)), t_order)

    pref_box = []
    for i in range(NVARS):
        slo = pref.support[i][0]
        plo = pw[i][0] if slo is None else max(pw[i][0], slo)
        pref_box.append((plo, pw[i][1]))

    chain = [pref]
    boxes = [tuple(pref_box)]
    for a, svars in cf.slots:
        his = {}
        for v in set(svars):
            i = VAR_INDEX[v]
            his[v] = max(0, min(degree_cap, window.bounds[i][1]
                                - pref_box[i][0]))
        chain.append(_eplus_multi_chunk(a, svars, his, degree_cap, t_order))
        boxes.append(tuple((0, his.get(VARS[i], 0)) for i in range(NVARS)))

    support = _cf_support(pref, cf, degree_cap)
    acc = _fold(chain, boxes, window, degree_cap)
    if acc is None:
        return LaurentChunk({}, window, zero, support)
    terms = {m: FockVector.pure(cf.charge, c)
             for m, c in acc.terms.items() if window.contains(m)}
    return LaurentChunk(terms, window, zero, support)


def _cf_support(pref: LaurentChunk, cf: ClosedForm, degree_cap: int):
    support = pref.support
    for a, svars in cf.slots:
        box = [(0, 0)] * NVARS
        for v in set(svars):
            box[VAR_INDEX[v]] = (0, degree_cap)
        support = bounds_add(support, tuple(box))
    return support


# ---------------------------------------------------------------------------
# braiding and translation scalars


def s_tau(a: int, b: int, var1: str = "z1",
          var2: str = "z2") -> FactorProduct:
    """Braiding scalar (-(1 - t var2/var1)/(1 - t var1/var2))^{ab}."""
    _check_charge(a)
    _check_charge(b)
    base = FactorProduct.of(
        coeff=(-1,),
        monomial=Monomial.of(**{var1: -1, var2: 1}),
        factors=((lform((1, var1), (-1, var2, 1)), 1),
                 (lform((1, var2), (-1, var1, 1)), -1)))
    return base.pow(a * b)


def s_gamma(a: int, b: int, var1: str = "z1", var2="z2",
            gamma: str = "g") -> FactorProduct:
    """Translation scalar ((1-t var2/var1)/(1-t (var2+g)/(var1+g)))^{ab}.

    var2=None is the second variable evaluated at zero, as in the
    three-variable expansion with the inner vertex operator at the origin.
    """
    _check_charge(a)
    _check_charge(b)
    if var2 is None:
        base = FactorProduct.of(
            factors=((lform((1, var1), (1, gamma)), 1),
                     (lform((1, var1), (1, gamma), (-1, gamma, 1)), -1)))
    else:
        base = FactorProduct.of(
            monomial=Monomial.var(var1, -1),
            factors=((lform((1, var1), (-1, var2, 1)), 1),
                     (lform((1, var1), (1, gamma)), 1),
                     (lform((1, var1), (-1, var2, 1),
                            (1, gamma), (-1, gamma, 1)), -1)))
    return base.pow(a * b)
