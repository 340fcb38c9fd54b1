"""Quantum vertex operators for the rank-one deformed lattice algebra.

The operator content lives in the Jing gauge: the creation half of a
charge-a vertex operator multiplies by E+_a(z) = exp(a sum_n (1-t^n)/n
p_n z^n), the annihilation half E-_a(z) = exp(-a sum_n (d/dp_n) z^{-n})
is the shift p_n -> p_n - a z^{-n}, and the lattice zero mode contributes
z^{a m} on a charge-m state before the charge shift m -> m + a.  Both
halves are read off closed forms with integer multipliers: the z^k
coefficient of E+_a is sum_{lambda |- k} a^{l(lambda)} z_lambda^{-1}
prod_i (1 - t^{lambda_i}) p_lambda (``eplus_coeff``), and E-_a p_lambda
is prod_i (p_{lambda_i} - a z^{-lambda_i}) (``eminus_states``).  Applying
an operator to a chunk of states is one Laurent product
(``laurent.mul_raw``) of its E+ chunk and its E-.zero-mode chunk;
``y_apply``, each step of ``y_product`` and the Heisenberg modes all run
through it.  Composing two vertex operators produces the normal-ordered
closed form

    Y(e^a, z1) Y(e^b, z2) v = r(z1,z2)^{ab} E+_a(z1) E+_b(z2) ...

with the two-point prefactor r(z1,z2) = (z1-z2) z1 / (z1 - t z2), and the
braiding and translation scalars are ratios of r's:

    S_tau   = -(1 - t z2/z1)/(1 - t z1/z2) = r(z1,z2)/r(z2,z1)
    S_gamma = (1 - t z2/z1)/(1 - t (z2+g)/(z1+g))
            = r(z1+g, z2+g)/r(z1,z2)

The region expansion of a closed form (``evaluate``), alone or times a
braiding or translation scalar, is one chain of members
(``laurent._chain``): one point chunk for both coefficients and
monomials, one chunk per factor of the prefactor and of the scalar,
never merged, and one E+ chunk per slot.  ``laurent._fold`` builds each
on its box from one fixpoint and folds once, the point first and the
rest fewest partitions first, so the one-partition factors come before
the E+ chunks.

Single-variable modes of the pure-Heisenberg field E+ E- generate the
Hall-Littlewood Q-functions; that equality is validated against the
classical symmetric-function oracle, never assumed.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import comb, factorial, prod

from .errors import UnsupportedCharge
from .fock import MAX_CHARGE, FockVector
from .laurent import (FactorProduct, LaurentChunk, Monomial, NVARS,
                      RegionOrder, VARS, VAR_INDEX, Window, _chain, _fold,
                      bounds_add, lform, mul_raw)
from .scalars import add_row, tp_mul
from .symfunc import Partition, SymFuncP, partitions_of


def _check_charge(a: int):
    if not isinstance(a, int) or a < 0 or a > MAX_CHARGE:
        raise UnsupportedCharge(f"charge {a} outside 0..{MAX_CHARGE}")


# ---------------------------------------------------------------------------
# creation / annihilation halves


@lru_cache(maxsize=None)
def eplus_coeff(a: int, k: int, t_order: int) -> SymFuncP:
    """Coefficient c_k of var^k in exp(a sum_n (1-t^n)/n p_n var^n),

        c_k = sum_{lambda |- k} a^{l(lambda)} z_lambda^{-1}
              prod_i (1 - t^{lambda_i}) p_lambda,

    with z_lambda = prod_i i^{m_i} m_i!.  It is built over k!: each
    numerator k!/z_lambda is the size of a conjugacy class of S_k, an
    integer.  c_k is homogeneous of weight k, so one value per (a, k, T)
    serves every cap.
    """
    num = {}
    for lam in partitions_of(k):
        row = [0] * (t_order + 1)
        row[0] = (a ** len(lam) * factorial(k)
                  // prod(i ** m * factorial(m)
                          for i, m in lam.multiplicities().items()))
        for part in lam:  # times 1 - t^part, in place; 1 mod t^{T+1} above T
            for i in range(t_order, part - 1, -1):
                row[i] -= row[i - part]
        num[lam] = row
    return SymFuncP(num, factorial(k), t_order)


def eminus_states(a: int, f: SymFuncP) -> list:
    """[g_0, g_1, ...] with E-_a(var) f = sum_w g_w var^{-w}.

    E-_a is the shift p_n -> p_n - a var^{-n}, so E-_a p_lambda =
    prod_i (p_{lambda_i} - a var^{-lambda_i}): g_w is the sum, over the
    sub-multisets S of lambda of weight w, of prod_i C(m_i, s_i)
    (-a)^{|S|} p_{lambda minus S}, with m_i and s_i the multiplicities of
    i in lambda and in S.  The multipliers are integers over f.den, and the
    list ends at the top weight of f, trailing zeros trimmed.
    """
    if a == 0 or f.is_zero():
        return [f]
    rows = [{} for _ in range(f.max_weight() + 1)]
    for lam, row in f.num.items():
        mults = tuple(lam.multiplicities().items())
        for picks in itertools.product(*(range(m + 1) for _, m in mults)):
            k, w, rest = (-a) ** sum(picks), 0, []
            for (i, m), s in zip(mults, picks):
                k *= comb(m, s)
                w += i * s
                rest += [i] * (m - s)
            add_row(rows[w], Partition(rest), row, k)
    gs = [SymFuncP(num, f.den, f.t_order) for num in rows]
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
    return _jing_Q(Partition(lam), t_order)


@lru_cache(maxsize=None)
def _jing_Q(parts: tuple, t_order: int) -> SymFuncP:
    """jing_Q of weakly decreasing parts, B_{l1} applied to the value of
    the suffix (l2, ...), which is kept too: the partitions up to a weight
    take one mode per distinct suffix."""
    if not parts:
        return SymFuncP.one(t_order)
    return heis_mode(parts[0], _jing_Q(parts[1:], t_order))


# ---------------------------------------------------------------------------
# lattice vertex operators


def _apply(a: int, var: str, chunk: LaurentChunk, var_range,
           cap: int) -> LaurentChunk:
    """Y(e^{a alpha}, var) on every coefficient of a chunk free of var, at
    the working cap, on the exponent range [lo, hi] of var.

    On charge m, Y is var^{a m} E+_a(var) E-_a(var) followed by the shift
    m -> m + a, so the whole step is one Laurent product: the E+ chunk of
    the closed-form coefficients (``eplus_coeff``) times the chunk of
    var^{a m - w} g_w at charge m + a, with E-_a f = sum_w g_w var^{-w}
    read off the shift p_n -> p_n - a var^{-n} (``eminus_states``) for
    each charge-m component f.  Every output exponent is an E+ exponent in
    [0, cap] plus an E- exponent, so E+ up to hi minus the lowest E-
    exponent covers every split landing in the window.
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


def y_product(ops, v: FockVector, ranges: dict,
              degree_cap: int) -> LaurentChunk:
    """Y(a_1, var_1) ... Y(a_k, var_k) v, applied right to left and
    projected to degree_cap; ops holds (charge, var) with distinct vars,
    ranges each var's exponent window.  Each operator is one Laurent
    product (``_apply``) on the whole chunk so far.  E- lowers the
    p-weight, so a state cut at the cap would feed wrong terms back below
    it: each operator runs at the larger working cap (``working_caps``) of
    its input and output.  The support claims no bound in any operator
    variable, the one bound that always holds, so a product that needs a
    term outside the window raises WindowUnderflow instead of passing
    silently."""
    cap, T = degree_cap, v.t_order
    zero = FockVector.zero(T)
    caps = working_caps(ops, ranges, {m: f.max_weight() for m, f
                                      in v.components.items()}, cap)
    chunk = LaurentChunk({Monomial(): v}, Window.of(), zero)
    for i, (a, var) in enumerate(reversed(list(ops))):
        chunk = _apply(a, var, chunk, ranges[var],
                       max(caps[i], caps[i + 1]))
    opvars = {var for _, var in ops}
    return LaurentChunk({m: w.weight_truncate(cap)
                         for m, w in chunk.terms.items()},
                        chunk.window, zero,
                        tuple((None, None) if var in opvars else (0, 0)
                              for var in VARS))


# ---------------------------------------------------------------------------
# closed forms


def r_factor(v1: str, v2: str, e: int = 1) -> FactorProduct:
    """((v1 - v2) * v1 / (v1 - t v2))^e, the two-point prefactor."""
    base = FactorProduct.of(
        monomial=Monomial.var(v1),
        factors=((lform((1, v1), (-1, v2)), 1),
                 (lform((1, v1), (-1, v2, 1)), -1)))
    return base.pow(e)


class ClosedForm(namedtuple("ClosedForm", "prefactor slots charge")):
    """prefactor(z, g, t) * prod_i E+_{a_i}(sum of slot vars) * e^{charge}.

    Slots hold (charge, vars) with the E+ argument the sum of the vars, so
    variable shifts stay inside the class.
    """

    __slots__ = ()

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
             degree_cap: int, t_order: int,
             scalar: FactorProduct = FactorProduct()) -> LaurentChunk:
    """The region expansion of scalar times a closed form, a
    FockVector-valued chunk on the window, each coefficient at the closed
    form's charge.

    One chain (``laurent._chain``): the point chunk of the prefactor's and
    the scalar's coefficients at their monomials, one chunk per factor of
    either, each its own member (the factor tuples are concatenated, never
    merged, so a braiding scalar's form is not cancelled against the
    prefactor's), and one E+ member per slot, built up to the top of its
    box.  ``laurent._fold`` takes every box from one fixpoint and folds
    the chain once, so only the window's coefficients are decoded; slot
    exponents above degree_cap die in the quotient.
    """
    fp = FactorProduct(tp_mul(cf.prefactor.coeff, scalar.coeff),
                       cf.prefactor.monomial * scalar.monomial,
                       cf.prefactor.factors + scalar.factors)
    members, support = _chain(fp, reg, window, t_order)
    for a, svars in cf.slots:
        s = tuple((0, degree_cap) if v in svars else (0, 0) for v in VARS)
        support = bounds_add(support, s)
        members.append((s, lambda box, a=a, svars=svars: _eplus_multi_chunk(
            a, svars, {v: box[VAR_INDEX[v]][1] for v in set(svars)},
            degree_cap, t_order)))
    acc = _fold(members, window, degree_cap)
    terms = {} if acc is None else {m: FockVector.pure(cf.charge, c)
                                    for m, c in acc.terms.items()}
    return LaurentChunk(terms, window, FockVector.zero(t_order), support)


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
