"""Coefficient-exact verification of the braided vertex-algebra identities.

Every check computes both sides of an identity through independent code
paths (closed form vs. iterated operator product, or two expansion regions
of the same closed form), compares exact coefficients monomial by monomial
on a provably sound window, and returns a CheckReport.  Failures are data,
not exceptions; vacuous comparisons raise EmptyComparison.

The three shipped mutation hooks (flip the braiding sign, drop the
translation scalar from the Jacobi right-hand side, perturb the charge term
of D) exist to demonstrate that the checks are sensitive to each structural
ingredient.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import chain, product
from math import lcm

from .engine import (evaluate, jing_Q, s_gamma, s_tau, x2_closed_form,
                     x120_closed_form, y_apply, y_product)
from .errors import EmptyComparison, TruncationMismatch, WindowUnderflow
from .fock import FockVector, apply_D, exp_D, exp_D_chunk
from .laurent import (LaurentChunk, Monomial, Window, _expand,
                      binom_expansion_terms, iv_intersect, lform, region,
                      FactorProduct)
from .scalars import pack_row, unpack_row
from .symfunc import (SymFuncP, hl_q_dominant, orbit_sum, p_to_x_dominant,
                      partitions_up_to)

REG12 = region("z1", "z2", "g")
REG21 = region("z2", "z1", "g")
REG23 = region("z2", "z3", "g")
HL_MIN_T_ORDER = 24  # the hl-oracle's t-order floor


class CheckReport(namedtuple("CheckReport", "check_id params compared passed "
                             "first_mismatch elapsed")):
    """Outcome of one identity check.

    first_mismatch is None on success, else (monomial, lhs, rhs) as strings;
    compared counts coefficient comparisons actually performed.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        fm = None
        if self.first_mismatch is not None:
            m, lhs, rhs = self.first_mismatch
            fm = {"monomial": m, "lhs": lhs, "rhs": rhs}
        return {"check_id": self.check_id, "params": self.params,
                "compared": self.compared, "passed": self.passed,
                "first_mismatch": fm, "elapsed": self.elapsed}

    def __str__(self):
        tag = "pass" if self.passed else \
            f"FAIL at {self.first_mismatch[0]}"
        return (f"{self.check_id}: {tag} ({self.compared} monomials, "
                f"{self.elapsed:.2f}s)")


class _Comparator:
    """Accumulates coefficient comparisons in deterministic order."""

    def __init__(self):
        self.compared = 0
        self.live = 0
        self.first = None

    def take(self, label, lhs, rhs):
        self.compared += 1
        self.live += not (lhs.is_zero() and rhs.is_zero())
        if self.first is None and lhs != rhs:
            self.first = (str(label), str(lhs), str(rhs))

    def chunks(self, lhs: LaurentChunk, rhs: LaurentChunk, window: Window,
               tag: str = ""):
        for m in _box(window):
            self.take(tag + str(m) if tag else m, lhs.get(m), rhs.get(m))

    def report(self, check_id: str, params: dict, t0: float) -> CheckReport:
        if self.compared == 0 or self.live == 0:
            raise EmptyComparison(
                f"{check_id}: nothing nonvacuous was compared")
        return CheckReport(check_id, params, self.compared,
                           self.first is None, self.first,
                           time.perf_counter() - t0)


def _box(window: Window):
    """All monomials of a finite window box, lexicographically."""
    return (Monomial(*e) for e in product(*(range(lo, hi + 1)
                                           for lo, hi in window.bounds)))


# ---------------------------------------------------------------------------
# vacuum and translation dictionary


def check_vacuum(t_order: int = 3, window: int = 6, degree_cap: int = 8,
                 d_charge_coeff=None) -> CheckReport:
    """X(a x 1) = e^{z1 D}a, X(1 x a) = e^{z2 D}a, X(1 x 1) = vacuum, and
    Y(e^a, z)1 = e^{zD}e^a, all coefficientwise through z^window."""
    t0 = time.perf_counter()
    W, cap, T = window, degree_cap, t_order
    params = {"T": T, "window": W, "degree_cap": cap,
              "charges": [[1, 0], [0, 1], [0, 0]]}
    if d_charge_coeff is not None:
        params["mutation"] = "d-charge-coeff"
    cmp_ = _Comparator()
    ea = FockVector.exponential(1, T)
    ed1 = exp_D(ea, "z1", W, cap, d_charge_coeff)
    ed2 = exp_D(ea, "z2", W, cap, d_charge_coeff)

    line1, line2 = Window.of(z1=(0, W)), Window.of(z2=(0, W))
    left = evaluate(x2_closed_form(1, 0), REG12, line1, cap, T)
    cmp_.chunks(left, ed1, line1)
    right = evaluate(x2_closed_form(0, 1), REG12, line2, cap, T)
    cmp_.chunks(right, ed2, line2)

    both = evaluate(x2_closed_form(0, 0), REG12, Window.of(), cap, T)
    cmp_.take("1", both.get(Monomial()), FockVector.vacuum(T))

    yv = y_apply(1, "z1", FockVector.vacuum(T), (0, W), cap)
    cmp_.chunks(yv, ed1, line1)

    return cmp_.report("vacuum", params, t0)


# ---------------------------------------------------------------------------
# braided commutativity


def check_braided_commutativity(a: int = 1, b: int = 1, t_order: int = 4,
                                window: int = 6, degree_cap: int = 8,
                                mutate_sign: bool = False) -> CheckReport:
    """X(a x b) against X-swapped composed with the braiding scalar."""
    t0 = time.perf_counter()
    W, cap, T = window, degree_cap, t_order
    params = {"T": T, "window": W, "degree_cap": cap, "charges": [a, b]}
    if mutate_sign:
        params["mutation"] = "s-tau-sign"
    target = Window.of(z1=(-W, W), z2=(-W, W))

    lhs = evaluate(x2_closed_form(a, b), REG12, target, cap, T)

    sc_fp = s_tau(a, b, "z2", "z1")
    if mutate_sign:
        sc_fp = sc_fp.mul(FactorProduct.of(coeff=(-1,)))

    swapped = x2_closed_form(b, a).substitute(
        {"z1": ("z2",), "z2": ("z1",)})
    rhs = evaluate(swapped, REG12, target, cap, T, sc_fp)

    cmp_ = _Comparator()
    cmp_.chunks(lhs, rhs, target)
    return cmp_.report("braided-commutativity", params, t0)


# ---------------------------------------------------------------------------
# broken translation covariance


def check_translation_covariance(a: int = 1, b: int = 1, t_order: int = 3,
                                 g_order: int = 3, window: int = 5,
                                 degree_cap: int = 9,
                                 d_charge_coeff=None) -> CheckReport:
    """e^{gD} X (S^{(g)} .) against X with both variables shifted by g."""
    t0 = time.perf_counter()
    W, G, cap, T = window, g_order, degree_cap, t_order
    params = {"T": T, "G": G, "window": W, "degree_cap": cap,
              "charges": [a, b]}
    if d_charge_coeff is not None:
        params["mutation"] = "d-charge-coeff"
    target = Window.of(z1=(-W, W), z2=(-W, W), g=(0, G))

    form = x2_closed_form(a, b)
    prod = evaluate(form, REG12, target, cap, T, s_gamma(a, b))
    lhs = exp_D_chunk(prod, "g", G, cap, d_charge_coeff)

    shifted = form.substitute({"z1": ("z1", "g"), "z2": ("z2", "g")})
    rhs = evaluate(shifted, REG12, target, cap, T)

    cmp_ = _Comparator()
    cmp_.chunks(lhs, rhs, target)
    return cmp_.report("translation", params, t0)


# ---------------------------------------------------------------------------
# the expansion dictionary for the three-point function


def check_expansion_consistency(t_order: int = 3, window: int = 5,
                                degree_cap: int = 9) -> CheckReport:
    """The three region-expansions of X_{z1,z2,0}(e^a x e^a x c).

    Line 1: region (z1, z2) expansion equals Y(z1)Y(z2)e^a.
    Line 2: the inverse braiding scalar times the region (z2, z1)
    expansion equals the swapped product Y(z2)Y(z1)e^a.  S_tau is a unit,
    S_tau(z1, z2) S_tau(z2, z1) = 1, so the scalar may sit on either side;
    on the closed-form side its factors join the closed form's chain
    (``evaluate``'s scalar), and the operator product runs on the target
    alone, as on line 1.
    Line 3 (c = 1): X at (z2+z3, z2) equals the translation scalar at
    (z3, 0; gamma = z2) times e^{z2 D} Y(z3)e^a.  In region (z2, z3) that
    scalar and its inverse are both geometric in z3/z2 with a ratio free
    of t, so their support is unbounded in z2 and z3; the scalar's chain
    and the e^{z2 D} chunk are one fold (``laurent._expand``), whose
    fixpoint bounds the scalar's factors by the chunk's finite support.
    """
    t0 = time.perf_counter()
    W, cap, T = window, degree_cap, t_order
    params = {"T": T, "window": W, "degree_cap": cap}
    ea = FockVector.exponential(1, T)
    form = x120_closed_form(1, 1, 1)
    target = Window.of(z1=(-W, W), z2=(-W, W))
    cmp_ = _Comparator()

    xp1 = evaluate(form, REG12, target, cap, T)
    op1 = y_product(((1, "z1"), (1, "z2")), ea,
                    {"z1": (-W, W), "z2": (-W, W)}, cap)
    cmp_.chunks(xp1, op1, target, tag="line1 ")

    xp2 = evaluate(form, REG21, target, cap, T, s_tau(1, 1, "z1", "z2"))
    op2 = y_product(((1, "z2"), (1, "z1")), ea,
                    {"z1": (-W, W), "z2": (-W, W)}, cap)
    cmp_.chunks(xp2, op2, target, tag="line2 ")

    target3 = Window.of(z2=(-W, W), z3=(0, W))
    sub = x2_closed_form(1, 1).substitute({"z1": ("z2", "z3")})
    lhs3 = evaluate(sub, REG23, target3, cap, T)
    ych = y_apply(1, "z3", ea, (1, W), cap)
    ed = exp_D_chunk(ych, "z2", cap, cap)
    rhs3 = _expand(s_gamma(1, 1, "z3", None, "z2"), REG23, target3, T, (ed,))
    cmp_.chunks(lhs3, rhs3, target3, tag="line3 ")

    return cmp_.report("expansion", params, t0)


# ---------------------------------------------------------------------------
# braided Jacobi identity


class _Packed(dict):
    """A Jacobi chunk, monomial -> ((charge, weight), block) pairs; a
    missing monomial inside the support but outside the window raises."""

    def __missing__(self, m: tuple) -> tuple:
        if not self.window.contains(m) and all(
                iv_intersect((e, e), s) for e, s in zip(m, self.support)):
            raise WindowUnderflow(f"{Monomial(*m)} outside window "
                                  f"{self.window} but inside support")
        return self.setdefault(m, ())


class _JacobiSides:
    """The delta-convolutions over the box [-W, W]^3 in (z1, z2, z3), k
    running until the probed exponent reaches its support floor:

    lhs = sum_k C(-e3-1, k) (-1)^k x1[z1^(e1+e3+1+k) z2^(e2-k)]
        + (-1)^e3 sum_k C(-e3-1, k) (-1)^k x2[z1^(e1-k) z2^(e2+e3+1+k)]
    rhs = sum_k C(-e1-1, k) x3[z2^(e1+e2+1+k) z3^(e3-k)]

    One int per (charge, p-weight) block, over den12 (x1, x2) or den3 (x3),
    holds the row of the i-th partition met of that weight in signed B-bit
    digits i(T+1)..i(T+1)+T; no digit of lhs*den3 - rhs*den12 reaches 2 S12
    X12 den3 + S3 X3 den12 < 2^(B-1), X a side's largest |numerator|, S a
    binomial row's sum |C(-e-1, k)|.
    """

    def __init__(self, xp1: LaurentChunk, xp2: LaurentChunk,
                 xp3: LaurentChunk, W: int):
        self.rng, self.zero = range(-W, W + 1), xp1.zero
        self.floors = f1, f2, f3 = (xp2.support[0][0], xp1.support[1][0],
                                    xp3.support[2][0])
        # binomial rows, each long enough for every kmax of its probes
        self.row12, self.row3 = ({e: binom_expansion_terms(-e - 1, s, W - f)
                                  for e in self.rng}
                                 for s, f in ((-1, min(f1, f2)), (1, f3)))
        rows = [[b for ch in chs for v in ch.terms.values()
                 for b in v.charge_rows()] for chs in ((xp1, xp2), (xp3,))]
        self.den12, self.den3 = dens = [lcm(*(b[2] for b in r)) for r in rows]
        X12, X3 = (max((max(map(abs, chain.from_iterable(num.values())))
                        * (den // d) for _, num, d in r), default=0)
                   for r, den in zip(rows, dens))
        S12, S3 = (max(sum(abs(c) for _, c in row) for row in rs.values())
                   for rs in (self.row12, self.row3))
        self.B = (2 * S12 * X12 * self.den3
                  + S3 * X3 * self.den12).bit_length() + 1
        self.index: dict = {}  # weight -> {partition: position}
        self.x = tuple(self._pack(ch, den) for ch, den in zip(
            (xp1, xp2, xp3), (self.den12, self.den12, self.den3)))

    def _pack(self, chunk: LaurentChunk, den: int) -> _Packed:
        B, n, out = self.B, self.zero.t_order + 1, _Packed()
        for m, v in chunk.terms.items():
            blocks: dict = {}
            for q, num, d in v.charge_rows():
                s = den // d
                for lam, row in num.items():
                    key = (q, w := lam.weight)
                    index = self.index.setdefault(w, {})
                    i = index.setdefault(lam, len(index)) * n
                    blocks[key] = blocks.get(key, 0) + (
                        pack_row(row, B) * s << i * B)
            out[m] = tuple(blocks.items())
        out.window, out.support = chunk.window, chunk.support
        return out

    def fock(self, blocks: dict, den: int) -> FockVector:
        """The coefficient blocks / den, read off balanced digits."""
        n, num = self.zero.t_order + 1, {}
        for (q, w), x in blocks.items():
            index = self.index[w]
            digits = unpack_row(x, n * len(index), self.B)
            num.setdefault(q, {}).update(
                (lam, digits[i * n:(i + 1) * n]) for lam, i in index.items())
        return self.zero.from_charge_rows(num, den)

    def __iter__(self):
        """(monomial, lhs blocks, rhs blocks), lexicographically."""
        rng, (f1, f2, f3), (x1, x2, x3) = self.rng, self.floors, self.x
        for e1 in rng:
            row3 = self.row3[e1]
            for e2 in rng:
                for e3 in rng:
                    lhs: dict = {}
                    for k, c in self.row12[e3][:max(0, e2 - f2 + 1)]:
                        for key, x in x1[e1 + e3 + 1 + k, e2 - k, 0, 0]:
                            lhs[key] = lhs.get(key, 0) + c * x
                    sgn = -1 if e3 & 1 else 1
                    for k, c in self.row12[e3][:max(0, e1 - f1 + 1)]:
                        for key, x in x2[e1 - k, e2 + e3 + 1 + k, 0, 0]:
                            lhs[key] = lhs.get(key, 0) + sgn * c * x
                    rhs: dict = {}
                    for k, c in row3[:max(0, e3 - f3 + 1)]:
                        for key, x in x3[0, e1 + e2 + 1 + k, e3 - k, 0]:
                            rhs[key] = rhs.get(key, 0) + c * x
                    yield Monomial(e1, e2, e3), lhs, rhs


def check_braided_jacobi(t_order: int = 3, window: int = 5,
                         degree_cap: int = 9,
                         drop_s_gamma: bool = False) -> CheckReport:
    """delta(z1-z2, z3) X - delta-swapped X = delta(z1, z2+z3) X-translated.

    All three blocks are expansions of the same closed three-point form (in
    regions (z1,z2), (z2,z1), (z2,z3)); the deltas contribute binomial
    convolutions with finitely many terms per output monomial, bounded by
    the support floors of the expanded chunks.
    """
    t0 = time.perf_counter()
    W, cap, T = window, degree_cap, t_order
    params = {"T": T, "window": W, "degree_cap": cap}
    if drop_s_gamma:
        params["mutation"] = "jacobi-drop-s-gamma"
    form = x120_closed_form(1, 1, 1)

    xp1 = evaluate(form, REG12,
                   Window.of(z1=(1 - T - 1, 3 * W), z2=(0, W)), cap, T)
    xp2 = evaluate(form, REG21,
                   Window.of(z1=(1 - T - 1, W), z2=(0, 3 * W + T)), cap, T)
    sub = form.substitute({"z1": ("z2", "z3")})
    if drop_s_gamma:
        undo = FactorProduct.of(factors=(
            (lform((1, "z2"), (1, "z3"), (-1, "z2", 1)), 1),
            (lform((1, "z2"), (1, "z3")), -1)))
        sub = type(sub)(sub.prefactor.mul(undo), sub.slots, sub.charge)
    xp3 = evaluate(sub, REG23,
                   Window.of(z2=(-2 * W, 3 * W), z3=(0, W)), cap, T)

    sides = _JacobiSides(xp1, xp2, xp3, W)
    del xp1, xp2, xp3
    cmp_, d12, d3 = _Comparator(), sides.den12, sides.den3
    for m, lhs, rhs in sides:
        cmp_.compared += 1
        cmp_.live += any(lhs.values()) or any(rhs.values())
        if cmp_.first is None and any(
                lhs.get(k, 0) * d3 != rhs.get(k, 0) * d12
                for k in lhs.keys() | rhs.keys()):
            cmp_.first = (str(m), str(sides.fock(lhs, d12)),
                          str(sides.fock(rhs, d3)))
    return cmp_.report("jacobi", params, t0)


# ---------------------------------------------------------------------------
# classical (t = 0) limit


def check_classical_limit(window: int = 5,
                          degree_cap: int = 8) -> CheckReport:
    """At t = 0: [D, Y(e^a, z)] = d/dz Y(e^a, z), anticommutativity of the
    charge-1 operators, and Y(De^a, z)1 = d/dz Y(e^a, z)1.

    The anticommutator runs through y_product, whose working caps keep its
    states exact; the [D, Y] states are built where they and D of them hold
    every term, and their comparisons are projected to degree_cap.
    """
    t0 = time.perf_counter()
    W, cap = window, degree_cap
    params = {"T": 0, "window": W, "degree_cap": cap}
    cmp_ = _Comparator()
    vac = FockVector.vacuum(0)
    ea = FockVector.exponential(1, 0)
    top = max(cap, 2)  # D p_1 has weight 2
    states = [("1", vac), ("e^a", ea),
              ("p_1", FockVector.pure(0, SymFuncP.p(1, 0)))]

    g = Monomial.var("g")
    for name, v in states:
        ych = y_apply(1, "z1", v, (-W - 1, W + 1), top)
        ydv = y_apply(1, "z1", apply_D(v, top), (-W - 1, W + 1), top)
        dy = exp_D_chunk(ych, "g", 1, top)  # D of ych's terms at g^1
        for k in range(-W - 1, W + 1):
            m = Monomial.var("z1", k)
            comm = dy.get(m * g) - ydv.get(m)
            deriv = ych.get(Monomial.var("z1", k + 1)).scale(k + 1)
            cmp_.take(f"[D,Y]{name} {m}", comm.weight_truncate(cap),
                      deriv.weight_truncate(cap))

    rng = {"z1": (-W - 1, W + 1), "z2": (-W - 1, W + 1)}
    A = y_product(((1, "z1"), (1, "z2")), vac, rng, cap)
    B = y_product(((1, "z2"), (1, "z1")), vac, rng, cap)
    minus_B = {m: -c for m, c in B.terms.items()}
    for m in _box(Window.of(z1=(-W - 1, W + 1), z2=(-W - 1, W + 1))):
        cmp_.take(f"anticommute {m}", A.get(m), minus_B.get(m, B.zero))

    edD = exp_D(apply_D(ea, cap), "z1", W, cap)
    ed = exp_D(ea, "z1", W + 1, cap)
    for k in range(W + 1):
        m = Monomial.var("z1", k)
        cmp_.take(f"translate {m}", edD.get(m),
                  ed.get(Monomial.var("z1", k + 1)).scale(k + 1))

    return cmp_.report("classical", params, t0)


# ---------------------------------------------------------------------------
# Hall-Littlewood oracle


def check_hl_against_oracle(max_weight: int = 6,
                            t_order: int = HL_MIN_T_ORDER) -> CheckReport:
    """Vertex-operator Q_lambda against the tableau-formula oracle
    (``symfunc.hl_q_dominant``), in n = |lambda| variables.

    Both sides are symmetric, so each is fixed by its dominant part, its
    monomial-basis coefficients; those are what is compared.  The first
    mismatch is reported as the two full polynomials, the orbit sums of
    the dominant parts."""
    t0 = time.perf_counter()
    if t_order < HL_MIN_T_ORDER:
        raise TruncationMismatch(f"oracle comparison needs t-order >= "
                                 f"{HL_MIN_T_ORDER}, got {t_order}")
    params = {"T": t_order, "max_weight": max_weight}
    cmp_ = _Comparator()
    for lam in sorted(partitions_up_to(max_weight),
                      key=lambda p: (p.weight, p)):
        n = max(lam.weight, 1)
        lhs = p_to_x_dominant(jing_Q(lam, t_order), n)
        rhs = hl_q_dominant(lam, n).t_truncate(t_order)
        if cmp_.first is None and lhs != rhs:
            lhs, rhs = orbit_sum(lhs), orbit_sum(rhs)
        cmp_.take(f"Q_{tuple(lam)}", lhs, rhs)
    return cmp_.report("hl-oracle", params, t0)


# ---------------------------------------------------------------------------
# driver


CHECK_IDS = ("braided-commutativity", "classical", "expansion", "hl-oracle",
             "jacobi", "translation", "vacuum")


def run_check(check_id: str, t_order: int = 8, g_order: int = 3,
              degree_cap: int = 9, window: int = 5,
              charges=(1, 1)) -> CheckReport:
    """Run one named check with shared configuration."""
    a, b = charges
    if check_id == "vacuum":
        return check_vacuum(t_order=t_order, window=max(window, 6),
                            degree_cap=degree_cap)
    if check_id == "braided-commutativity":
        return check_braided_commutativity(
            a, b, t_order=t_order, window=window, degree_cap=degree_cap)
    if check_id == "translation":
        return check_translation_covariance(
            a, b, t_order=t_order, g_order=g_order, window=window,
            degree_cap=degree_cap)
    if check_id == "expansion":
        return check_expansion_consistency(
            t_order=t_order, window=window, degree_cap=degree_cap)
    if check_id == "jacobi":
        return check_braided_jacobi(
            t_order=t_order, window=window, degree_cap=degree_cap)
    if check_id == "classical":
        return check_classical_limit(window=window, degree_cap=degree_cap)
    if check_id == "hl-oracle":
        return check_hl_against_oracle(t_order=max(t_order, HL_MIN_T_ORDER))
    raise ValueError(f"unknown check id: {check_id}")
