"""Deformed translation generator: gauge values, derivation property,
charge action, and the exponential series."""

import random
from math import lcm

import pytest

from qvertex.errors import TruncationMismatch, UnsupportedCharge
from qvertex.fock import FockVector, apply_D, exp_D, exp_D_chunk
from qvertex.laurent import LaurentChunk, Monomial, Window
from qvertex.rationals import Rat
from qvertex.scalars import tp
from qvertex.symfunc import Partition, SymFuncP, partitions_up_to, scalar

CAP, T = 8, 4


def ts(*coeffs):
    return scalar(tp(*coeffs), T)


def sym(terms, t_order=T):
    """The SymFuncP with the exact t-coefficients terms[l] at p_l."""
    rows = {Partition(l): tp(*c)[: t_order + 1] for l, c in terms.items()}
    den = lcm(*(x.denominator for row in rows.values() for x in row))
    return SymFuncP({lam: tuple(int(x * den) for x in row)
                     for lam, row in rows.items()}, den, t_order)


def test_D_kills_vacuum():
    vac = FockVector.vacuum(T)
    assert apply_D(vac, CAP).is_zero()
    e = exp_D(vac, "g", 3, CAP)
    assert e.get(Monomial()) == vac
    for k in range(1, 4):
        assert e.get(Monomial.var("g", k)).is_zero()


def test_D_on_p1():
    # D p_1 = 1 * (1-t^2)/(1-t) p_2 = (1+t) p_2
    v = FockVector.pure(0, SymFuncP.p(1, T))
    assert apply_D(v, CAP) == FockVector.pure(0, sym({(2,): (1, 1)}))


def test_D_on_pn_t0():
    # at t=0 the deformation disappears: D p_n = n p_{n+1}
    for n in range(1, 6):
        v = FockVector.pure(0, SymFuncP.p(n, 0))
        dv = apply_D(v, CAP)
        expect = SymFuncP.p(n + 1, 0).scale(n)
        assert dv == FockVector.pure(0, expect)


def test_D_on_charge_one():
    # D e^a = (1-t) p_1 e^a
    v = FockVector.exponential(1, T)
    assert apply_D(v, CAP) == FockVector.pure(1, sym({(1,): (1, -1)}))


def test_D_charge_two():
    # D e^{2a} = 2 (1-t) p_1 e^{2a}
    v = FockVector.exponential(2, T)
    assert apply_D(v, CAP) == FockVector.pure(2, sym({(1,): (2, -2)}))


def test_D_multiplicity_handling():
    # D(p_1^2) = 2 (1+t) p_2 p_1
    v = FockVector.pure(0, sym({(1, 1): (1,)}))
    assert apply_D(v, CAP) == FockVector.pure(0, sym({(2, 1): (2, 2)}))


def random_symfunc(rng, t_order):
    terms = {}
    for lam in partitions_up_to(4):
        if rng.random() < 0.4:
            terms[lam] = tuple(rng.randint(-3, 3) for _ in range(t_order + 1))
    return sym(terms, t_order)


def test_D_is_a_derivation_on_charge_zero():
    rng = random.Random(20260823)
    for _ in range(100):
        f = FockVector.pure(0, random_symfunc(rng, T))
        g = FockVector.pure(0, random_symfunc(rng, T))
        # f g reaches the cap, so D drops its top weight on both sides
        lhs = apply_D(f * g, CAP)
        rhs = apply_D(f, CAP) * g + f * apply_D(g, CAP)
        assert lhs == rhs.weight_truncate(CAP)


def test_D_charge_term_is_derivation_compatible():
    # e^{m1} f * e^{m2} g multiplies charges additively, and the charge
    # part of D is linear in m, so Leibniz extends to charged states
    rng = random.Random(7)
    for _ in range(30):
        f = FockVector.pure(1, random_symfunc(rng, T))
        g = FockVector.pure(2, random_symfunc(rng, T))
        assert apply_D(f * g, CAP) == (
            apply_D(f, CAP) * g + f * apply_D(g, CAP)).weight_truncate(CAP)


def test_D_with_a_rational_charge_coeff():
    # the charge term's row is scaled by the lcm of the coefficient's
    # denominators, and so are the derivation's rows it joins
    cc = tp(Rat(1, 2), Rat(-1, 3))
    v = FockVector.pure(2, sym({(1,): (Rat(1, 5),), (): (1, 1)}))
    expect = sym({(2,): (Rat(1, 5), Rat(1, 5)),
                  (1, 1): (Rat(1, 5), Rat(-2, 15)),
                  (1,): (1, Rat(1, 3), Rat(-2, 3))})
    assert apply_D(v, CAP, cc) == FockVector.pure(2, expect)
    rng = random.Random(11)
    for _ in range(30):
        f = FockVector.pure(1, random_symfunc(rng, T).scale(Rat(1, 7)))
        g = FockVector.pure(2, random_symfunc(rng, T))
        assert apply_D(f * g, CAP, cc) == (
            apply_D(f, CAP, cc) * g
            + f * apply_D(g, CAP, cc)).weight_truncate(CAP)


def test_D_preserves_charge():
    v = FockVector({1: SymFuncP.p(2, T), 3: SymFuncP.one(T)}, T)
    assert apply_D(v, CAP).charges() == [1, 3]


def test_exp_D_on_exponential():
    # coefficients of exp(z D) e^a are the degree-k slices of
    # exp(sum (1-t^n)/n p_n z^n)
    e = exp_D(FockVector.exponential(1, T), "g", 3, CAP)
    one = e.get(Monomial.var("g", 1))
    assert one == FockVector.pure(1, sym({(1,): (1, -1)}))
    two = e.get(Monomial.var("g", 2))
    half = Rat(1, 2)
    expect = sym({(1, 1): (1, -2, 1)}).scale(half) + \
        sym({(2,): (1, 0, -1)}).scale(half)
    assert two == FockVector.pure(1, expect)


def test_exp_D_chunk_matches_exp_D():
    # both equal sum_k D^k v g^k / k!, built here from apply_D
    v = FockVector.pure(1, sym({(1,): (1,), (): (0, 2)}))
    expect = {}
    w = v
    for k in range(4):
        if k:
            w = apply_D(w, CAP).scale(Rat(1, k))
        expect[Monomial.var("g", k)] = w
    trivial = LaurentChunk({Monomial(): v}, Window.of(),
                           FockVector.zero(T))
    assert exp_D_chunk(trivial, "g", 3, CAP).terms == expect
    assert exp_D(v, "g", 3, CAP).terms == expect


def test_exp_D_support_ends_at_cap():
    # D raises the weight by one, so D^(CAP+1) kills every stored state
    v = FockVector.exponential(1, T)
    w = v
    for _ in range(CAP):
        w = apply_D(w, CAP)
    assert not w.is_zero()
    assert apply_D(w, CAP).is_zero()
    assert exp_D(v, "g", 3, CAP).support[3] == (0, CAP)
    shifted = LaurentChunk({Monomial.var("g", 1): v}, Window.of(g=(0, 1)),
                           FockVector.zero(T))
    assert exp_D_chunk(shifted, "g", 2, CAP).support[3] == (0, CAP + 1)


def test_exp_D_chunk_shifts_existing_powers():
    v = FockVector.exponential(1, T)
    w = FockVector.pure(1, sym({(2,): (1,)}))
    chunk = LaurentChunk(
        {Monomial(): v, Monomial.var("g", 1): w},
        Window.of(g=(0, 1)), FockVector.zero(T))
    out = exp_D_chunk(chunk, "g", 2, CAP)
    # g^2 coefficient: D^2 v / 2 + D w
    expect = (apply_D(apply_D(v, CAP), CAP).scale(Rat(1, 2))
              + apply_D(w, CAP))
    assert out.get(Monomial.var("g", 2)) == expect
    assert out.window.range("g") == (0, 2)


def test_exp_D_chunk_rejects_bad_window():
    v = FockVector.vacuum(T)
    chunk = LaurentChunk({Monomial.var("g", 3): v}, Window.of(g=(0, 3)),
                         FockVector.zero(T))
    with pytest.raises(TruncationMismatch):
        exp_D_chunk(chunk, "g", 2, CAP)


def test_perturbed_charge_coefficient_changes_D():
    v = FockVector.exponential(1, T)
    default = apply_D(v, CAP)
    perturbed = apply_D(v, CAP, charge_coeff=tp(1))
    assert default != perturbed
    assert perturbed == FockVector.pure(1, sym({(1,): (1,)}))


def test_charge_bounds():
    with pytest.raises(UnsupportedCharge):
        FockVector.exponential(4, T)
    with pytest.raises(UnsupportedCharge):
        FockVector({-1: SymFuncP.one(T)}, T)


def test_config_mismatch():
    a = FockVector.vacuum(T)
    b = FockVector.vacuum(2)
    with pytest.raises(TruncationMismatch):
        a + b


def test_scale_dispatch():
    v = FockVector.exponential(1, T)
    assert ts(0, 1) * v == v.scale(ts(0, 1))
    assert 3 * v == v.scale(3)
    f = SymFuncP.p(2, T)
    assert f * v == FockVector.pure(1, f)


def test_weight_truncate():
    # a projection: the terms above the cap go, a charge left empty goes,
    # and a vector with nothing above the cap comes back as it is
    v = FockVector({0: sym({(4,): (1,), (2, 1): (1, 1), (): (2,)}),
                    2: sym({(3, 1): (0, 1)})}, T)
    w = v.weight_truncate(3)
    assert w == FockVector({0: sym({(2, 1): (1, 1), (): (2,)})}, T)
    assert w.t_order == T and w.charges() == [0]
    assert v.weight_truncate(4) is v
