"""Vertex-operator engine: exponential halves, lattice operators, closed
forms, braiding/translation scalars, and their cross-validations."""

import itertools
import random
from math import lcm

import pytest

from qvertex.engine import (ClosedForm, eminus_states, eplus_coeff, evaluate,
                            heis_mode, jing_Q, r_factor, s_gamma, s_tau,
                            working_caps, x2_closed_form, x3_closed_form,
                            x120_closed_form, y_apply, y_product)
from qvertex.errors import UnsupportedCharge
from qvertex.fock import FockVector, apply_D, exp_D, exp_D_chunk
from qvertex.laurent import (FactorProduct, LaurentChunk, Monomial,
                             VAR_INDEX, Window, lform, region)
from qvertex.rationals import Rat
from qvertex.scalars import tp
from qvertex.symfunc import (Partition, SymFuncP, hl_q_oracle, p_to_x,
                             partitions_up_to)

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
        assert f.eval_t(1) == {}


def test_heis_mode_is_homogeneous():
    f = heis_mode(3, SymFuncP.one(T))
    assert all(lam.weight == 3 for lam in f.terms)


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


def first_outside(chunk, support):
    """A term of chunk outside support (None bounds nothing), or None."""
    for m in chunk.terms:
        for e, (lo, hi) in zip(m, support):
            if (lo is not None and e < lo) or (hi is not None and e > hi):
                return m
    return None


def test_y_product_support_holds_on_widened_windows():
    # the support bounds the full series: on a window widened in every
    # variable, every nonzero term lies inside it.  In the first case the
    # later operator's E- lowers the weight as z1 falls, so z2 has no
    # ceiling (z2^4 and z2^5 sit on z1 in [-8, 3]), and z1 no floor
    ops = ((1, "z1"), (1, "z2"))
    ea = FockVector.exponential(1, 1)
    ranges = {"z1": (-8, 3), "z2": (-3, 3)}
    assert y_product(ops, ea, ranges, 2).support[:2] == ((None, 4),
                                                          (1, None))
    cases = [(ops, ea, ranges, 2)]
    rng = random.Random(20261020)
    for _ in range(10):
        cap, t_order, q = rng.randint(1, 3), rng.randint(0, 2), \
            rng.randint(0, 1)
        ops = rng.choice((((1, "z1"), (1, "z2")), ((1, "z2"), (1, "z1")),
                          ((0, "z1"), (1, "z2"), (1, "z3")),
                          ((1, "z1"), (1, "z2"), (0, "z3"))))
        v = FockVector.pure(q, SymFuncP.one(t_order)
                            + SymFuncP.p(1, t_order))
        cases.append((ops, v, {var: (-rng.randint(0, 3), rng.randint(0, 3))
                               for _, var in ops}, cap))
    for ops, v, ranges, cap in cases:
        support = y_product(ops, v, ranges, cap).support
        wide = {var: (lo - 6, hi + 6) for var, (lo, hi) in ranges.items()}
        m = first_outside(y_product(ops, v, wide, cap), support)
        assert m is None, (ops, ranges, support, m)


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
