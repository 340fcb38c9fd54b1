"""The tests' independent references, and the oracles that no command runs.

Laurent layer: ``laurent_mul`` multiplies two chunks on a window through
``mul_raw`` with no degree cap, guarded by the chunks' stored windows and
supports (``check_splits``), apart from the chains that ``laurent._fold``
builds.  ``tail_bounds`` bounds a factor's geometric tails on a box by the
iterative rule that ``laurent._FactorInfo.chunk`` replaced with a closed
form.

Closed forms: ``x3_closed_form``, the closed form of three vertex
operators, which the tests expand and compare with the iterated operator
product.

Exact t-polynomials and x-polynomials: evaluation at a rational t
(``tp_eval``, ``eval_t``), phi_r and b_lambda, and the rational readers
and builders of ``XPoly`` (``xpoly``, ``xpoly_terms``).

Symmetric functions: dominance order, the full realization of a
power-sum expression (``p_to_x``), Schur polynomials by the bialternant
formula (``schur_bialternant``) and from the t^0 row of the strip
recursion (``schur_x``), the full Q_lambda (``hl_q_oracle``), and
Hall-Littlewood P_lambda by a psi recursion of its own over horizontal
strips (``hl_p_oracle``, Macdonald III (5.11)), apart from the phi
recursion of ``symfunc``, so that Q_lambda = b_lambda(t) P_lambda compares
two codes.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from qvertex.engine import ClosedForm, r_factor
from qvertex.errors import WindowUnderflow
from qvertex.laurent import (NVARS, VARS, LaurentChunk, Window, iv_add,
                             iv_intersect, mul_raw)
from qvertex.scalars import add_row, canonical_rows, tp_add, tp_mul
from qvertex.symfunc import (Partition, XPoly, hl_q_dominant, orbit_sum,
                             p_to_x_dominant)


# ---------------------------------------------------------------------------
# the Laurent layer


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


def tail_bounds(info, box):
    """The largest pick of each u-term of a factor (``_FactorInfo``) that
    stays on the box; call it before ``_FactorInfo.chunk``, which stores
    its closed-form bounds in the u-terms.

    A u-term that lowers some variable can repeat only until it leaves the
    box, after what the u-terms that raise that variable can give back;
    the rule is applied round after round, at most 32, until no bound
    moves.  Raises WindowUnderflow when a tail stays unbounded.
    """
    jmaxs = [u[3] for u in info.uterms]
    for _ in range(32):
        changed = False
        for i, (ratio, _, _, _) in enumerate(info.uterms):
            best = jmaxs[i]
            for v in range(NVARS):
                if ratio[v] >= 0:
                    continue
                slack = info.exp * info.base_m[v] - box[v][0]
                ok = True
                for j2, (r2, _, _, _) in enumerate(info.uterms):
                    if j2 == i or r2[v] <= 0:
                        continue
                    if jmaxs[j2] is None:
                        ok = False
                        break
                    slack += jmaxs[j2] * r2[v]
                if not ok:
                    continue
                cap = max(slack // (-ratio[v]), 0) if slack >= 0 else 0
                if best is None or cap < best:
                    best = cap
            if best is not None and best != jmaxs[i]:
                jmaxs[i] = best
                changed = True
        if not changed:
            break
    if None in jmaxs:
        raise WindowUnderflow("unbounded expansion tail")
    return jmaxs


# ---------------------------------------------------------------------------
# closed forms


def x3_closed_form(a: int = 1, b: int = 1, c: int = 1) -> ClosedForm:
    """r(z1,z2)^{ab} r(z1,z3)^{ac} r(z2,z3)^{bc} E+_a(z1) E+_b(z2)
    E+_c(z3) e^{a+b+c}, the closed form of Y(e^a, z1) Y(e^b, z2)
    Y(e^c, z3)."""
    pref = r_factor("z1", "z2", a * b).mul(
        r_factor("z1", "z3", a * c)).mul(r_factor("z2", "z3", b * c))
    slots = tuple((ch, (v,)) for ch, v in
                  ((a, "z1"), (b, "z2"), (c, "z3")) if ch)
    return ClosedForm(pref, slots, a + b + c)


# ---------------------------------------------------------------------------
# exact t-polynomials and x-polynomials


def tp_eval(a: tuple, x):
    """a(x) as a Fraction, for a rational x."""
    x, acc = Fraction(x), Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def tp_phi(r: int) -> tuple:
    """phi_r(t) = prod_{j=1}^{r} (1 - t^j), with int coefficients."""
    out = (1,)
    for j in range(1, r + 1):
        out = tp_mul(out, (1,) + (0,) * (j - 1) + (-1,))
    return out


def b_lambda(lam) -> tuple:
    """b_lambda(t) = prod_{i>=1} phi_{m_i(lambda)}(t) in Z[t]."""
    out = (1,)
    for m in Partition(lam).multiplicities().values():
        out = tp_mul(out, tp_phi(m))
    return out


def eval_t(f, t_value) -> dict:
    """Every nonzero coefficient of a SymFuncP or an XPoly at a rational t;
    for a SymFuncP exact only when the true coefficients have degree at
    most its t-order."""
    out = {}
    for key, row in f.num.items():
        v = tp_eval(row, t_value)
        if v:
            out[key] = v / f.den
    return out


def xpoly(nvars: int, terms: dict) -> XPoly:
    """The XPoly with {exponents: tuple of rationals, lowest degree
    first}."""
    rats = {tuple(e): tuple(map(Fraction, c)) for e, c in terms.items()}
    den = lcm(*(x.denominator for c in rats.values() for x in c))
    return XPoly(nvars, {e: tuple(x.numerator * (den // x.denominator)
                                  for x in c)
                         for e, c in rats.items()}, den)


def xpoly_terms(p: XPoly) -> dict:
    """{exponents: tuple of Fractions}, the coefficients of p."""
    return {e: tuple(Fraction(x, p.den) for x in c)
            for e, c in p.num.items()}


# ---------------------------------------------------------------------------
# symmetric functions


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


def p_to_x(f, nvars: int) -> XPoly:
    """Realize a power-sum expression in nvars variables: the orbit sum of
    its dominant part."""
    return orbit_sum(p_to_x_dominant(f, nvars))


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
    return XPoly(p.nvars, quot, p.den)


def schur_bialternant(lam, n: int) -> XPoly:
    """Schur polynomial as a_{lam+delta}/a_delta by exact division.

    Independent of both the strip recursion and the engine; intended
    for small n (the alternant has n! terms).
    """
    lam = Partition(lam)
    if n < len(lam):
        raise ValueError(f"{n} variables for {lam}")
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
    num = XPoly(n, terms, 1)
    for i in range(n):
        for j in range(i + 1, n):
            num = xp_div_linear(num, i, j)
    return num


def hl_q_oracle(lam, n: int) -> XPoly:
    """Q_lambda(x_1..x_n; t), the orbit sum of its dominant part."""
    return orbit_sum(hl_q_dominant(lam, n))


def schur_x(nu, n: int) -> XPoly:
    """Schur polynomial s_nu(x_1..x_n) = Q_nu(x_1..x_n; 0), the t^0 row of
    the strip recursion (engine-independent)."""
    q = hl_q_dominant(nu, n)
    return orbit_sum(XPoly(n, {e: row[:1] for e, row in q.num.items()},
                           q.den))


def _columns(lam) -> list:
    """The column lengths lam'_1, lam'_2, ... of a partition."""
    return [sum(1 for part in lam if part >= j)
            for j in range(1, (lam[0] if lam else 0) + 1)]


def _psi(lam: tuple, mu: tuple) -> tuple:
    """psi_{lam/mu}(t) of a horizontal strip, Macdonald III (5.8'): the
    product of 1 - t^{m_j(mu)} over the j >= 1 where the strip's column
    lengths theta' = lam' - mu' read theta'_j = 0 and theta'_{j+1} = 1."""
    mu_cols = _columns(mu)
    theta = [a - (mu_cols[j] if j < len(mu_cols) else 0)
             for j, a in enumerate(_columns(lam))] + [0]
    out = (1,)
    for j in range(1, len(theta)):
        if theta[j - 1] == 0 and theta[j] == 1:
            out = tp_mul(out, (1,) + (0,) * (mu.count(j) - 1) + (-1,))
    return out


def _strips(lam: tuple):
    """The partitions mu with lam/mu a horizontal strip:
    lam_{i+1} <= mu_i <= lam_i."""
    if not lam:
        yield ()
        return
    for first in range(lam[1] if len(lam) > 1 else 0, lam[0] + 1):
        for rest in _strips(lam[1:]):
            yield ((first,) if first else ()) + rest


@lru_cache(maxsize=None)
def _hl_p(lam: tuple, n: int) -> dict:
    """P_lam(x_1..x_n; t) as {exponents: Z[t] row}, every exponent vector:
    Macdonald III (5.11), P_lam = sum_T psi_T(t) x^T over the semistandard
    tableaux T of shape lam, whose entries n fill a horizontal strip
    lam/mu on a tableau of shape mu in the entries 1..n-1."""
    if n == 0:
        return {} if lam else {(): (1,)}
    out: dict = {}
    for mu in _strips(lam):
        if len(mu) > n - 1:
            continue
        w, k = _psi(lam, mu), sum(lam) - sum(mu)
        for e, row in _hl_p(mu, n - 1).items():
            add_row(out, e + (k,), tp_mul(row, w))
    return canonical_rows(out, 1)[0]


def hl_p_oracle(lam, n: int) -> XPoly:
    """Hall-Littlewood P_lambda(x_1..x_n; t), exact in t."""
    lam = Partition(lam)
    if n < len(lam):
        raise ValueError(f"{n} variables for {lam}")
    return XPoly(n, _hl_p(tuple(lam), n), 1)


def hl_p_dominant(lam, n: int) -> XPoly:
    """The dominant part of P_lambda(x_1..x_n; t): its terms x^e with e
    weakly decreasing."""
    p = hl_p_oracle(lam, n)
    return XPoly(n, {e: row for e, row in p.num.items()
                     if list(e) == sorted(e, reverse=True)}, p.den)
