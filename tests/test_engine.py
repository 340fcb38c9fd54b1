"""Vertex-operator engine: exponential halves, lattice operators, closed
forms, braiding/translation scalars, and their cross-validations."""

import copy
import itertools
import pickle
import random
from math import gcd, lcm

import pytest

from qvertex.engine import (ClosedForm, eminus_states, eplus_coeff, evaluate,
                            heis_mode, jing_Q, r_factor, s_gamma, s_tau,
                            working_caps, x2_closed_form, x120_closed_form,
                            y_apply, y_product)
from qvertex.errors import UnsupportedCharge, WindowUnderflow
from qvertex.fock import FockVector, apply_D, exp_D, exp_D_chunk
from qvertex.laurent import (FactorProduct, LaurentChunk, Monomial, VARS,
                             VAR_INDEX, Window, lform, region)
from qvertex.rationals import Rat
from qvertex.scalars import tp
from qvertex.symfunc import Partition, SymFuncP, partitions_up_to
from reference import (eval_t, hl_q_oracle, laurent_mul, p_to_x,
                       x3_closed_form)

CAP, T = 8, 4
REG = region("z1", "z2", "g")
REG3 = region("z1", "z2", "z3", "g")


def sym(terms, t_order=T):
    """The SymFuncP with the exact t-coefficients terms[l] at p_l."""
    rows = {Partition(l): tp(*c)[: t_order + 1] for l, c in terms.items()}
    den = lcm(*(x.denominator for row in rows.values() for x in row))
    return SymFuncP({lam: tuple(int(x * den) for x in row)
                     for lam, row in rows.items()}, den, t_order)


def coeffs(c):
    """The T+1 t-coefficients of a weight-0 SymFuncP."""
    row = c.num.get(Partition(), ())
    return tuple(Rat(x, c.den)
                 for x in row + (0,) * (c.t_order + 1 - len(row)))


# ---------------------------------------------------------------------------
# exponential halves


def test_eplus_first_coefficients():
    c1 = eplus_coeff(1, 1, T)
    assert c1 == sym({(1,): (1, -1)})
    c2 = eplus_coeff(1, 2, T)
    half = Rat(1, 2)
    expect = sym({(1, 1): (1, -2, 1)}).scale(half) + \
        sym({(2,): (1, 0, -1)}).scale(half)
    assert c2 == expect


def test_eplus_coefficients_are_one_row_Q():
    for k in range(1, 7):
        ck = eplus_coeff(1, k, 8)
        assert p_to_x(ck, k) == hl_q_oracle(Partition((k,)), k).t_truncate(8)


def test_eplus_charge_zero_is_identity():
    assert eplus_coeff(0, 0, T) == SymFuncP.one(T)
    for k in range(1, 4):
        assert eplus_coeff(0, k, T).is_zero()


def _eplus_slot(a, svars, window, cap, t_order):
    """E+_a(sum of svars) e^a, expanded through the region evaluator."""
    form = ClosedForm(FactorProduct.one(), ((a, svars),), a)
    return evaluate(form, REG, window, cap, t_order)


def test_eplus_two_variables_by_hand():
    # E+_1(z1 + z2) at t = 0, cap 2: the x^2 coefficient (p_1^2 + p_2)/2
    # spreads as z1^2 + 2 z1 z2 + z2^2
    ch = _eplus_slot(1, ("z1", "z2"), Window.of(z1=(0, 2), z2=(0, 2)), 2, 0)
    p11_p2 = sym({(1, 1): (1,), (2,): (1,)}, t_order=0)
    assert ch.get(Monomial(z1=1, z2=1)) == FockVector.pure(1, p11_p2)
    half = FockVector.pure(1, p11_p2.scale(Rat(1, 2)))
    assert ch.get(Monomial(z1=2)) == half
    assert ch.get(Monomial(z2=2)) == half
    assert ch.get(Monomial(z1=2, z2=1)).is_zero()


def test_eplus_repeated_variable():
    # E+_a(z1 + z1) = E+_a(2 z1): coefficient 2^k c_k at z1^k
    cap, t_order = 5, 3
    for a in (1, 2):
        ch = _eplus_slot(a, ("z1", "z1"), Window.of(z1=(0, cap + 2)), cap,
                         t_order)
        for k in range(cap + 3):
            expect = eplus_coeff(a, k, t_order).scale(Rat(2) ** k) \
                .weight_truncate(cap)
            assert ch.get(Monomial(z1=k)) == FockVector.pure(a, expect)


def test_eminus_on_vacuum():
    gs = eminus_states(1, SymFuncP.one(T))
    assert gs == [SymFuncP.one(T)]


def test_eminus_single_derivative():
    gs = eminus_states(1, SymFuncP.p(1, T))
    assert gs == [SymFuncP.p(1, T), -SymFuncP.one(T)]
    gs2 = eminus_states(1, SymFuncP.p(2, T))
    assert gs2 == [SymFuncP.p(2, T), SymFuncP.zero(T),
                   -SymFuncP.one(T)]


@pytest.mark.parametrize("t_order", [0, 3, 24])
def test_eplus_satisfies_the_euler_recurrence(t_order):
    # c = exp(a sum_n (1-t^n)/n p_n var^n) solves var c' = (sum_j a (1-t^j)
    # p_j var^j) c, that is k c_k = sum_j a (1-t^j) p_j c_{k-j}
    for a in range(4):
        assert eplus_coeff(a, 0, t_order) == SymFuncP.one(t_order)
        for k in range(1, 11):
            rhs = SymFuncP.zero(t_order)
            for j in range(1, k + 1):
                gen = SymFuncP.p(j, t_order) * sym(
                    {(): (a,) + (0,) * (j - 1) + (-a,)}, t_order)
                rhs = rhs + gen * eplus_coeff(a, k - j, t_order)
            assert eplus_coeff(a, k, t_order).scale(k) == rhs, (a, k)


def _cauchy(fs, gs, t_order):
    out = [SymFuncP.zero(t_order)] * (len(fs) + len(gs) - 1)
    for u, f in enumerate(fs):
        for v, g in enumerate(gs):
            out[u + v] = out[u + v] + f * g
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


def test_eminus_is_multiplicative():
    # E-_a is a ring map (a shift of the p_n), so E-(f g) is the Cauchy
    # product of E-(f) and E-(g) in var^{-1}
    rng = random.Random(20261019)
    for _ in range(30):
        t_order = rng.choice((0, 1, 3, 8))
        fg = []
        for den in rng.sample((2, 3, 7, 12), 2):
            # numerators prime to den keep den the common denominator
            nums = [n for n in range(-9, 10) if gcd(n, den) == 1]
            lams = [lam for lam in partitions_up_to(rng.randint(0, 4))
                    if rng.random() < 0.5] or [Partition((1,))]
            fg.append(sym({lam: tuple(
                Rat(rng.choice(nums), den) for _ in range(t_order + 1))
                for lam in lams}, t_order))
        f, g = fg
        assert f.den > 1 and g.den > 1
        for a in range(4):
            assert eminus_states(a, f * g) == _cauchy(
                eminus_states(a, f), eminus_states(a, g), t_order)


# ---------------------------------------------------------------------------
# modes and Hall-Littlewood extraction


def test_jing_Q_single_row():
    assert jing_Q(Partition((1,)), T) == sym({(1,): (1, -1)})


def test_jing_Q_column():
    # (1-t)(1-t^2)(p_1^2 - p_2)/2
    c = tp(*[x * Rat(1, 2) for x in (1, -1, -1, 1)])
    expect = sym({(1, 1): c, (2,): tuple(-x for x in c)})
    assert jing_Q(Partition((1, 1)), T) == expect


def test_jing_Q_matches_oracle():
    for lam in [(2,), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2, 1)]:
        lam = Partition(lam)
        n = lam.weight
        assert p_to_x(jing_Q(lam, 10), n) == \
            hl_q_oracle(lam, n).t_truncate(10)


def test_jing_Q_vanishes_at_t_one():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        f = jing_Q(Partition(lam), 8)
        assert eval_t(f, 1) == {}


def test_heis_mode_is_homogeneous():
    f = heis_mode(3, SymFuncP.one(T))
    assert all(lam.weight == 3 for lam in f.terms)


def test_jing_Q_equals_the_modes_applied_in_turn():
    # jing_Q keeps the value of each suffix and builds on it; the plain
    # iteration applies every mode afresh
    for lam in partitions_up_to(6):
        f = SymFuncP.one(24)
        for part in reversed(lam):
            f = heis_mode(part, f)
        assert jing_Q(lam, 24) == f, lam
        assert jing_Q(tuple(lam), 24) == f, lam


def test_closed_form_is_immutable():
    cf = x2_closed_form(1, 1)
    with pytest.raises(AttributeError):
        cf.charge = 3
    assert cf == x2_closed_form(1, 1)
    assert hash(cf) == hash(x2_closed_form(1, 1))


# ---------------------------------------------------------------------------
# lattice vertex operators


def test_y_vacuum_coefficients_are_one_row_Q():
    vac = FockVector.vacuum(6)
    ch = y_apply(1, "z1", vac, (-2, 6), 6)
    for k in range(-2, 0):
        assert ch.get(Monomial.var("z1", k)).is_zero()
    for k in range(0, 7):
        f = ch.get(Monomial.var("z1", k)).component(1)
        n = max(k, 1)
        lam = Partition((k,) if k else ())
        assert p_to_x(f, n) == hl_q_oracle(lam, n).t_truncate(6)


def test_y_charge_zero_is_identity():
    v = FockVector.pure(1, SymFuncP.p(2, T))
    ch = y_apply(0, "z2", v, (-3, 3), CAP)
    assert ch.get(Monomial()) == v
    assert len(ch.terms) == 1


def test_y_zero_mode_shift():
    # on charge 1 the zero mode contributes var^1; at t=0 the z^0 term dies
    ea = FockVector.exponential(1, 0)
    ch = y_apply(1, "z1", ea, (-2, 3), CAP)
    assert ch.get(Monomial()).is_zero()
    assert ch.get(Monomial.var("z1", 1)) == FockVector.exponential(2, 0)


def test_y_charge_additivity():
    v = FockVector.exponential(1, T)
    ch = y_apply(1, "z1", v, (0, 4), CAP)
    for st in ch.terms.values():
        assert st.charges() == [2]


def test_y_charge_overflow():
    v = FockVector.exponential(3, T)
    with pytest.raises(UnsupportedCharge):
        y_apply(1, "z1", v, (0, 2), CAP)


def mode_by_definition(a, v, p, cap):
    """[var^p] Y(e^{a alpha}, var) v at cap, mode by mode: on charge m the
    sum over w of eplus_coeff(a, p - a m + w) g_w, at charge m + a."""
    out = FockVector.zero(v.t_order)
    for m, f in v.components.items():
        for w, g in enumerate(eminus_states(a, f)):
            k = p - a * m + w
            if 0 <= k <= cap:
                out = out + FockVector.pure(
                    m + a, eplus_coeff(a, k, v.t_order) * g)
    return out.weight_truncate(cap)


def test_y_apply_matches_the_mode_sum():
    # y_apply is one Laurent product of the E+ chunk and the E- chunk; the
    # modes summed one by one must give every coefficient, and no nonzero
    # mode may lie outside the support it claims, also on a range widened
    # by 6 on both sides
    rng = random.Random(20261021)
    for _ in range(24):
        a, cap, t_order = rng.randint(0, 2), rng.randint(1, 4), \
            rng.randint(0, 3)
        comps = {}
        for m in rng.sample(range(min(2, 3 - a) + 1), rng.randint(1, 2)):
            lams = [lam for lam in partitions_up_to(cap)
                    if rng.random() < 0.5] or [Partition((1,))]
            comps[m] = sym({lam: tuple(
                Rat(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(t_order + 1)) for lam in lams}, t_order)
        v = FockVector(comps, t_order)
        var = rng.choice(("z1", "z2", "z3"))
        lo, hi = -rng.randint(0, 4), rng.randint(0, 6)
        ch = y_apply(a, var, v, (lo, hi), cap)
        assert ch.window == Window.of(**{var: (lo, hi)})
        iv = VAR_INDEX[var]
        slo, shi = ch.support[iv]
        assert all(s == (0, 0) for i, s in enumerate(ch.support) if i != iv)
        wide = y_apply(a, var, v, (lo - 6, hi + 6), cap)
        for p in range(lo - 6, hi + 7):
            expect = mode_by_definition(a, v, p, cap)
            assert wide.get(Monomial.var(var, p)) == expect, (a, var, p)
            if lo <= p <= hi:
                assert ch.get(Monomial.var(var, p)) == expect, (a, var, p)
            if not expect.is_zero():
                assert slo <= p <= shi, (a, var, p, ch.support)
    # heis_mode derives its cap: at a negative power on an inhomogeneous
    # state, E- brings the top weights of f down into the mode, so they
    # must survive; the reference runs at a cap above every weight
    f = sym({(3, 1): (1, 2), (2, 1): (0, 1), (2,): (1,), (1,): (3, -1),
             (): (1, 1)})
    for p in range(-4, 3):
        expect = mode_by_definition(1, FockVector.pure(0, f), p, 8)
        assert heis_mode(p, f) == expect.component(1), p


# ---------------------------------------------------------------------------
# closed two- and three-point forms


def test_x2_vacuum_slot_matches_translation():
    vs = evaluate(x2_closed_form(1, 0), REG, Window.of(z1=(0, 6)), CAP, T)
    ed = exp_D(FockVector.exponential(1, T), "z1", 6, CAP)
    for k in range(7):
        m = Monomial.var("z1", k)
        assert vs.get(m) == ed.get(m)
    assert vs.get(Monomial()) == FockVector.exponential(1, T)


def test_x2_other_vacuum_slot():
    vs = evaluate(x2_closed_form(0, 1), REG,
                  Window.of(z1=(-2, 2), z2=(0, 4)), CAP, T)
    assert vs.get(Monomial()) == FockVector.exponential(1, T)
    assert all(m.exp("z1") == 0 for m in vs.terms)
    ed = exp_D(FockVector.exponential(1, T), "z2", 4, CAP)
    for k in range(5):
        m = Monomial.var("z2", k)
        assert vs.get(m) == ed.get(m)


def test_x2_classical_leading_term():
    vs = evaluate(x2_closed_form(1, 1), REG,
                  Window.of(z1=(-3, 3), z2=(-3, 3)), CAP, 0)
    assert vs.get(Monomial(z1=1)) == FockVector.exponential(2, 0)


def test_x2_matches_operator_product():
    W = 4
    win = Window.of(z1=(-W, W), z2=(-W, W))
    vs = evaluate(x2_closed_form(1, 1), REG, win, CAP, 3)
    vac = FockVector.vacuum(3)
    op = y_product(((1, "z1"), (1, "z2")), vac,
                   {"z1": (-W, W), "z2": (-W, W)}, CAP)
    for m in set(vs.terms) | set(op.terms):
        assert vs.get(m) == op.get(m)
    assert len(op.terms) > 20


def test_x2_charge_additivity():
    vs = evaluate(x2_closed_form(1, 1), REG,
                  Window.of(z1=(-3, 3), z2=(-3, 3)), CAP, T)
    for st in vs.terms.values():
        assert st.charges() == [2]


def test_x3_matches_triple_operator_product():
    W, t_order = 3, 2
    win = Window.of(z1=(-W, W), z2=(-W, W), z3=(-W, W))
    vs = evaluate(x3_closed_form(), REG3, win, 9, t_order)
    vac = FockVector.vacuum(t_order)
    rng = {v: (-W, W) for v in ("z1", "z2", "z3")}
    op = y_product(((1, "z1"), (1, "z2"), (1, "z3")), vac, rng, 9)
    for m in set(vs.terms) | set(op.terms):
        assert vs.get(m) == op.get(m)
    assert len(op.terms) > 50


def test_x3_classical_prefactor_is_vandermonde():
    form = x3_closed_form(1, 1, 1)
    vdm = ClosedForm(FactorProduct.of(factors=(
        (lform((1, "z1"), (-1, "z2")), 1),
        (lform((1, "z1"), (-1, "z3")), 1),
        (lform((1, "z2"), (-1, "z3")), 1))), form.slots, form.charge)
    win = Window.of(z1=(-3, 3), z2=(-3, 3), z3=(-3, 3))
    a = evaluate(form, REG3, win, 6, 0)
    b = evaluate(vdm, REG3, win, 6, 0)
    assert a.terms == b.terms


def test_x3_charge_zero_slot_degenerates_to_x2():
    win = Window.of(z1=(-4, 4), z2=(-4, 4))
    ch3 = evaluate(x3_closed_form(1, 1, 0), REG3, win, CAP, T)
    ch2 = evaluate(x2_closed_form(1, 1), REG, win, CAP, T)
    assert ch3.terms.keys() == ch2.terms.keys()
    for m, st in ch2.terms.items():
        assert ch3.get(m).component(2) == st.component(2)


def test_x120_matches_operator_product_on_exponential():
    win = Window.of(z1=(-4, 4), z2=(-4, 4))
    form = x120_closed_form(1, 1, 1)
    ch = evaluate(form, REG, win, 9, 2)
    ea = FockVector.exponential(1, 2)
    op = y_product(((1, "z1"), (1, "z2")), ea,
                   {"z1": (-4, 4), "z2": (-4, 4)}, 9)
    for m in set(ch.terms) | set(op.terms):
        assert ch.get(m) == op.get(m)


def test_region_coherence_of_x2():
    # the only inverted prefactor form is t-adically dominated, so the two
    # variable orders expand to the same chunk
    win = Window.of(z1=(-5, 5), z2=(-5, 5))
    c12 = evaluate(x2_closed_form(1, 1), region("z1", "z2", "g"), win, CAP, T)
    c21 = evaluate(x2_closed_form(1, 1), region("z2", "z1", "g"), win, CAP, T)
    assert c12.terms == c21.terms


@pytest.mark.parametrize("t_order", [0, 3])
def test_evaluate_slot_free_form_is_its_prefactor(t_order):
    # with no E+ slot the closed form is its prefactor times e^0: its
    # weight-0 coefficients come through evaluate as charge-0 states
    pref = r_factor("z1", "z2", 2)
    reg = region("z1", "z2")
    win = Window.of(z1=(-3, 5), z2=(-4, 3))
    got = evaluate(ClosedForm(pref, (), 0), reg, win, CAP, t_order)
    want = pref.expand(reg, win, t_order)
    assert len(want.terms) == {0: 3, 3: 4}[t_order]
    assert any(len(c.num[Partition()]) == t_order + 1
               for c in want.terms.values())
    for m in itertools.product(*(range(lo, hi + 1)
                                 for lo, hi in win.bounds)):
        m = Monomial(*m)
        assert got.get(m) == FockVector.pure(0, want.get(m)), m


def test_monotone_stabilization_in_t_and_cap():
    win = Window.of(z1=(-3, 3), z2=(-3, 3))
    hi = evaluate(x2_closed_form(1, 1), REG, win, 8, 4)
    lo = evaluate(x2_closed_form(1, 1), REG, win, 6, 2)
    keys = set(m for m, st in lo.terms.items()) | \
        set(m for m, st in hi.terms.items())
    for m in keys:
        a, b = lo.get(m), hi.get(m)
        for lam in set(a.component(2).terms) | set(b.component(2).terms):
            if lam.weight > 6:
                continue
            ca = a.component(2).terms.get(lam, SymFuncP.zero(2))
            cb = b.component(2).terms.get(lam, SymFuncP.zero(4))
            assert coeffs(ca) == coeffs(cb.t_truncate(2))


# ---------------------------------------------------------------------------
# the p-weight grading and the working caps of y_product


def grade_offsets(chunk):
    """{total exponent - partition weight} over every coefficient."""
    return {sum(m) - lam.weight for m, v in chunk.terms.items()
            for f in v.components.values() for lam in f.num}


def test_p_weight_is_fixed_by_the_monomial():
    # the z^p mode of Y(e^a) takes weight w at charge m to w + p - a m, D
    # raises it by one and the prefactors are homogeneous, so every
    # partition's weight is the monomial's total exponent minus a constant
    # set by the charges
    rng = random.Random(20261018)
    for _ in range(8):
        a = rng.randint(0, 2)
        b = rng.randint(0, 3 - a)
        c = rng.randint(0, 3 - a - b)
        W, G, cap, t_order = (rng.randint(1, 3), rng.randint(1, 2),
                              rng.randint(2, 6), rng.randint(0, 2))
        win = Window.of(z1=(-W, W), z2=(-W, W))
        x2 = evaluate(x2_closed_form(a, b), REG, win, cap, t_order)
        assert grade_offsets(x2) == {a * b}
        x120 = evaluate(x120_closed_form(a, b, c), REG, win, cap, t_order)
        assert grade_offsets(x120) == {a * b + a * c + b * c}
        shifted = x2_closed_form(a, b).substitute(
            {"z1": ("z1", "g"), "z2": ("z2", "g")})
        xg = evaluate(shifted, REG, Window.of(z1=(-W, W), z2=(-W, W),
                                              g=(0, G)), cap, t_order)
        assert grade_offsets(xg) == {a * b}
        assert grade_offsets(exp_D_chunk(x2, "g", G, cap)) == {a * b}
        op = y_product(((a, "z1"), (b, "z2")),
                       FockVector.exponential(c, t_order),
                       {"z1": (-W, W), "z2": (-W, W)}, cap)
        assert grade_offsets(op) == {b * c + a * (b + c)}
        assert grade_offsets(exp_D_chunk(op, "g", G, cap)) \
            == {b * c + a * (b + c)}


def test_working_caps_follow_the_grading():
    # Y(z1) Y(z2) at W = 5: on the vacuum over [-W-1, W+1], Y(z2) reaches
    # weight W + 1 (the old classical bound max(2, W + 1)); on e^a over
    # [-W, W] it reaches W - 1 (expansion line 1)
    ops = ((1, "z1"), (1, "z2"))
    assert working_caps(ops, {"z1": (-6, 6), "z2": (-6, 6)}, {0: 0},
                        2) == [0, 6, 2]
    assert working_caps(ops, {"z1": (-5, 5), "z2": (-5, 5)}, {1: 0},
                        9) == [0, 4, 7]
    # past the cap plus what the later operators can still remove, a state
    # is not kept: here 2 + (1 - 0) after Y(z2)
    assert working_caps(ops, {"z1": (0, 5), "z2": (0, 5)}, {0: 3},
                        2) == [3, 3, 2]
    assert working_caps(ops, {"z1": (4, 5), "z2": (0, 5)}, {0: 3},
                        2) == [0, 0, 2]


@pytest.mark.parametrize("op", ("y_product", "y_apply", "apply_D",
                                "exp_D_chunk"))
def test_y_product_cap_is_a_projection(op):
    # at cap c, each operation that raises the p-weight equals the
    # projection of its run at c + k.  y_product needs its working caps,
    # which keep every state exact where it can still reach the cap;
    # y_apply cuts its input at the cap, so it gets a state within c and a
    # range that reaches above it; D and exp(gD) get a state that reaches
    # c + k
    rng = random.Random(20261019)
    cut = 0
    for _ in range(12):
        c, k, t_order, W = (rng.randint(1, 3), rng.randint(1, 3),
                            rng.randint(0, 2), rng.randint(2, 4))
        # charges up to 2 in all, so an input of charge 1 stays in range
        ops = rng.choice((((1, "z1"), (1, "z2")), ((1, "z1"), (0, "z2")),
                          ((0, "z1"), (1, "z2"), (1, "z3")),
                          ((1, "z1"), (1, "z2"), (0, "z3"))))
        # a short reach below 0 and a long one above it make the later
        # operators' floors, not the earlier ones' reach, bind the caps
        ranges = {v: (-rng.randint(0, 2), rng.randint(1, W))
                  for _, v in ops}
        q = rng.randint(0, 1)
        v = FockVector.pure(q, SymFuncP.one(t_order)
                            + SymFuncP.p(1, t_order))
        var = ops[-1][1]
        deep = FockVector.pure(q, sym(
            {lam: tuple(rng.randint(-3, 3) for _ in range(t_order + 1))
             for lam in partitions_up_to(c + k)}, t_order))
        chunk = LaurentChunk({Monomial(): deep, Monomial(g=1): deep},
                             Window.of(g=(0, 1)), FockVector.zero(t_order))

        def run(cap):
            if op == "y_product":
                return y_product(ops, v, ranges, cap)
            if op == "y_apply":
                return y_apply(1, var, v, (ranges[var][0], W + c), cap)
            if op == "apply_D":
                return LaurentChunk({Monomial(): apply_D(deep, cap)},
                                    Window.of(), FockVector.zero(t_order))
            return exp_D_chunk(chunk, "g", W, cap)

        lo, hi = run(c), run(c + k)
        assert lo.window == hi.window
        cut += any(w != w.weight_truncate(c) for w in hi.terms.values())
        for m in set(lo.terms) | set(hi.terms):
            assert lo.get(m) == hi.get(m).weight_truncate(c), (ops, m)
    # the higher run has terms above c in 4 of the 12 y_product cases and
    # in every case of the other operations
    assert cut >= (4 if op == "y_product" else 12)


def test_y_product_support_is_unbounded_in_its_operator_variables():
    # y_product claims no bound where its operators act, so a scalar
    # product against it passes only where every split stays inside the
    # window it was built on
    ops = ((1, "z1"), (1, "z2"))
    ea = FockVector.exponential(1, 1)
    prod = y_product(ops, ea, {"z1": (-3, 3), "z2": (-3, 3)}, 2)
    assert prod.support == ((None, None), (None, None), (0, 0), (0, 0))
    sc = s_tau(1, 1, "z2", "z1").expand(
        REG, Window.of(z1=(-2, 2), z2=(-2, 2)), 1)
    assert sc.support[:2] == ((-1, 1), (-1, 1))
    with pytest.raises(WindowUnderflow):
        laurent_mul(sc, prod, prod.window)
    laurent_mul(sc, prod, Window.of(z1=(-2, 2), z2=(-2, 2)))


def test_charge_bounds_on_closed_forms():
    with pytest.raises(UnsupportedCharge):
        x2_closed_form(2, 2)
    with pytest.raises(UnsupportedCharge):
        x2_closed_form(-1, 1)


# ---------------------------------------------------------------------------
# braiding and translation scalars


def test_s_tau_first_order():
    ch = s_tau(1, 1).expand(
        REG, Window.of(z1=(-3, 3), z2=(-3, 3)), 1)
    want = {Monomial(): (-1, 0), Monomial(z1=1, z2=-1): (0, -1),
            Monomial(z1=-1, z2=1): (0, 1)}
    assert {m: coeffs(c) for m, c in ch.terms.items()} == \
        {m: tuple(Rat(x) for x in cs) for m, cs in want.items()}


def test_s_tau_classical_sign():
    ch = s_tau(1, 1).expand(
        REG, Window.of(z1=(-3, 3), z2=(-3, 3)), 0)
    assert len(ch.terms) == 1
    assert coeffs(ch.get(Monomial())) == (Rat(-1),)


def test_s_tau_charge_zero():
    assert s_tau(1, 0) == FactorProduct.one()
    assert s_tau(0, 3) == FactorProduct.one()


def test_s_tau_unitarity():
    prod = s_tau(1, 1, "z1", "z2").mul(s_tau(1, 1, "z2", "z1"))
    ch = prod.expand(REG, Window.of(z1=(-4, 4), z2=(-4, 4)), 4)
    assert list(ch.terms) == [Monomial()]
    assert ch.get(Monomial()) == SymFuncP.one(4)


def test_s_tau_is_ratio_of_prefactors():
    # r(z1,z2) = S_tau(swapped roles) * r(z2,z1)
    lhs = s_tau(1, 1, "z2", "z1").mul(r_factor("z2", "z1"))
    win = Window.of(z1=(-5, 5), z2=(-5, 5))
    assert lhs.expand(REG, win, 4).terms == \
        r_factor("z1", "z2").expand(REG, win, 4).terms


def test_s_gamma_identity_slices():
    sg = s_gamma(1, 1)
    ch0 = sg.expand(REG, Window.of(z1=(-4, 4), z2=(-4, 4)), 3)
    assert list(ch0.terms) == [Monomial()]
    assert ch0.get(Monomial()) == SymFuncP.one(3)
    cht = sg.expand(
        REG, Window.of(z1=(-4, 4), z2=(-4, 4), g=(0, 3)), 0)
    assert list(cht.terms) == [Monomial()]


def test_s_gamma_first_order():
    # g^1 t^1 slice is t g (1/z1 - z2/z1^2), fixed by the multiply-back
    # oracle below
    ch = s_gamma(1, 1).expand(
        REG, Window.of(z1=(-4, 4), z2=(-4, 4), g=(0, 1)), 1)
    assert coeffs(ch.get(Monomial(z1=-1, g=1))) == (Rat(0), Rat(1))
    assert coeffs(ch.get(Monomial(z1=-2, z2=1, g=1))) == (Rat(0), Rat(-1))
    assert len([m for m in ch.terms if m.exp("g") == 1]) == 2


def test_s_gamma_multiply_back():
    sg = s_gamma(1, 1)
    den = FactorProduct.of(factors=(
        (lform((1, "z1"), (1, "g")), -1),
        (lform((1, "z1"), (-1, "z2", 1), (1, "g"), (-1, "g", 1)), 1)))
    win = Window.of(z1=(-5, 5), z2=(-5, 5), g=(0, 3))
    got = sg.mul(den).expand(REG, win, 3)
    target = FactorProduct.of(monomial=Monomial.var("z1", -1), factors=(
        (lform((1, "z1"), (-1, "z2", 1)), 1),))
    assert got.terms == target.expand(REG, win, 3).terms


def test_s_gamma_is_ratio_of_shifted_prefactors():
    lhs = s_gamma(1, 1).mul(r_factor("z1", "z2"))
    rhs = r_factor("z1", "z2").substitute(
        {"z1": ("z1", "g"), "z2": ("z2", "g")})
    win = Window.of(z1=(-6, 6), z2=(-6, 6), g=(0, 6))
    assert lhs.expand(REG, win, 6).terms == rhs.expand(REG, win, 6).terms


def test_s_gamma_second_variable_at_zero():
    sg = s_gamma(1, 1, "z3", None, "z2")
    reg = region("z2", "z3", "g")
    ch = sg.expand(reg, Window.of(z2=(-4, 4), z3=(-4, 4)), 2)
    # multiply back against 1 - t z2/(z3+z2)
    den = FactorProduct.of(factors=(
        (lform((1, "z3"), (1, "z2")), -1),
        (lform((1, "z3"), (1, "z2"), (-1, "z2", 1)), 1)))
    win = Window.of(z2=(-4, 4), z3=(-4, 4))
    got = sg.mul(den).expand(reg, win, 2)
    assert list(got.terms) == [Monomial()]
    assert got.get(Monomial()) == SymFuncP.one(2)
    assert coeffs(ch.get(Monomial()))[0] == Rat(1)


# ---------------------------------------------------------------------------
# substitution


def test_shift_substitute_translation():
    form = x2_closed_form(1, 0).substitute({"z1": ("z1", "g")})
    sub = evaluate(form, REG, Window.of(z1=(0, 4), g=(0, 3)), CAP, T)
    ea = FockVector.exponential(1, T)
    assert sub.get(Monomial(g=1)) == apply_D(ea, CAP)
    assert sub.get(Monomial(z1=1, g=1)) == apply_D(apply_D(ea, CAP), CAP)


def test_substituted_form_shape():
    fs = x120_closed_form(1, 1, 1).substitute({"z1": ("z2", "z3")})
    assert fs.slots == ((1, ("z2", "z3")), (1, ("z2",)))
    assert fs.charge == 3


# ---------------------------------------------------------------------------
# series under a scalar, folded with it in one chain


def _scalar_expansion(fp, G, T):
    """fp expanded in REG on a z-box that holds its whole support, read off
    an expansion on the point z-window (a support comes from the factors,
    the t-order and the g-window, never from the z-window): the
    reference's scalar chunk, apart from any closed form's chain."""
    g = Window.of(g=(0, G))
    support = fp.expand(REG, g, T).support
    box = Window(tuple(s if VARS[i] in ("z1", "z2") else b for i, (s, b)
                       in enumerate(zip(support, g.bounds))))
    return fp.expand(REG, box, T)


def _scaled_cases(T):
    """(scalar, G, closed form, target, plane) for the braiding scalar, its
    sign mutation and the translation scalar at every charge pair, with
    seeded windows and g-orders; plane is the target's (z1, z2) square."""
    rng = random.Random(700 + T)
    for a, b in ((1, 1), (1, 2), (2, 1)):
        W = rng.randint(2, 5)
        plane = Window.of(z1=(-W, W), z2=(-W, W))
        swapped = x2_closed_form(b, a).substitute(
            {"z1": ("z2",), "z2": ("z1",)})
        for sign in (1, -1):
            fp = s_tau(a, b, "z2", "z1").mul(FactorProduct.of(coeff=(sign,)))
            yield fp, 0, swapped, plane, plane
        G = rng.randint(1, 3)
        yield (s_gamma(a, b), G, x2_closed_form(a, b),
               Window.of(z1=(-W, W), z2=(-W, W), g=(0, G)), plane)


def _scaled_reference(fp, G, cf, target, plane, cap, T):
    """laurent_mul of the scalar's own expansion and the closed form's,
    the latter on the plane minus the scalar's support, so the product is
    sound on the target."""
    sc = _scalar_expansion(fp, G, T)
    window = Window(tuple((lo - s[1], hi - s[0]) if VARS[i] in ("z1", "z2")
                          else (lo, hi) for i, ((lo, hi), s)
                          in enumerate(zip(plane.bounds, sc.support))))
    return laurent_mul(sc, evaluate(cf, REG, window, cap, T), target)


@pytest.mark.parametrize("T", [0, 1, 3, 8, 24])
def test_evaluate_scaled_is_the_product_with_evaluate(T):
    rng = random.Random(750 + T)
    for fp, G, cf, target, plane in _scaled_cases(T):
        cap = rng.randint(3, 8)
        want = _scaled_reference(fp, G, cf, target, plane, cap, T)
        got = evaluate(cf, REG, target, cap, T, fp)
        assert want.terms
        assert got.terms == want.terms
        assert (got.window, got.support) == (want.window, want.support)


def _big_scalar(fp, rng, T):
    """fp with numerators near 2^80, over the prime 2^61 - 1 and over 3^30
    in turn, as its point coefficient (six t-powers) and as factors of the
    coefficients of its first form of positive exponent; all of one sign
    in about half of the scalars."""
    negative = rng.random() < 0.5

    def big(j):
        x = 2 ** 80 - rng.randrange(1 << 20)
        return Rat(-x if negative or rng.random() < 0.5 else x,
                   (2 ** 61 - 1, 3 ** 30)[j % 2])

    coeff = [0] * (T + 1)
    for j, i in enumerate(rng.sample(range(T + 1), min(T + 1, 6))):
        coeff[i] = big(j)
    factors = list(fp.factors)
    i = next(i for i, (_, e) in enumerate(factors) if e > 0)
    form, e = factors[i]
    factors[i] = (tuple((m, k, c * big(j))
                        for j, (m, k, c) in enumerate(form)), e)
    return FactorProduct.of(coeff, fp.monomial, factors)


@pytest.mark.parametrize("T", [1, 8, 24])
def test_evaluate_scaled_digit_width_on_big_scalar(T):
    # the scalar's point coefficient joins the point chunk, which the fold
    # takes first, and its factors have one partition each, so they come
    # before the E+ chunks: numerators near 2^80 enter early and feed the
    # mass of every later step, and most block pairs have k = D/(d1 d2)
    # far from 1, so a width without the last step's mass, or without k,
    # reads wrong rows here
    rng = random.Random(760 + T)
    for fp, G, cf, target, plane in _scaled_cases(T):
        fp = _big_scalar(fp, rng, T)
        cap = rng.randint(3, 6)
        want = _scaled_reference(fp, G, cf, target, plane, cap, T)
        got = evaluate(cf, REG, target, cap, T, fp)
        assert want.terms
        assert got.terms == want.terms


def test_monomial_and_evaluate_chunk_survive_pickling_and_copying():
    # pickle and copy rebuild a Monomial from __getnewargs__; tuple's own
    # passed its one tuple as z1, so a copy read Monomial((1, 2, 3, 4), 0,
    # 0, 0) and an unpickled chunk answered 0 at its own monomials
    m = Monomial(1, 2, 3, 4)
    target = Window.of(z1=(-3, 3), z2=(-3, 3))
    ch = evaluate(x2_closed_form(1, 1), REG, target, CAP, T)
    assert len(ch.terms) > 10
    copies = [(p, pickle.loads(pickle.dumps((m, ch), p))) for p in range(2, 6)]
    copies.append(("deepcopy", copy.deepcopy((m, ch))))
    for how, (m2, ch2) in copies:
        assert type(m2) is Monomial and m2 == m, how
        assert ch2.terms == ch.terms, how
        for e in itertools.product(range(-3, 4), repeat=2):
            mono = Monomial(*e)
            assert ch2.get(mono) == ch.get(mono), (how, mono)
    for p in (0, 1):  # slotted classes, as before
        assert pickle.loads(pickle.dumps(m, p)) == m
        with pytest.raises(TypeError, match="__slots__"):
            pickle.dumps(ch, p)
