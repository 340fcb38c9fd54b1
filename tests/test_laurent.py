import itertools
import random
from fractions import Fraction

import pytest

from qvertex.errors import (NonExpandableFactor, OutsideWindow,
                            TruncationMismatch, UnsupportedCharge,
                            WindowUnderflow)
from qvertex.fock import FockVector
from qvertex.laurent import (FactorProduct, LaurentChunk, Monomial,
                             RegionOrder, Window, _expand, _FactorInfo,
                             _fixpoint_boxes, _fold, binom_expansion_terms,
                             lform, mul_raw, region)
from qvertex.rationals import Rat
from qvertex.scalars import low_row, tp
from qvertex.symfunc import Partition, SymFuncP, partitions_up_to, scalar
from reference import laurent_mul, tail_bounds

Z12 = region("z1", "z2")
Z21 = region("z2", "z1")

FORM_Z1_MINUS_Z2 = lform((1, "z1"), (-1, "z2"))
FORM_Z1_MINUS_TZ2 = lform((1, "z1"), (-1, "z2", 1))


def fp_power(form, e):
    return FactorProduct.of(factors=[(form, e)])


def const(c, t_order):
    """The rational c as a weight-0 SymFuncP."""
    return scalar((Rat(c),), t_order)


def t_power(k, t_order):
    """t^k as a weight-0 SymFuncP."""
    return scalar(tp(*[0] * k, 1), t_order)


def one_chunk(window, t_order):
    return LaurentChunk({Monomial(): SymFuncP.one(t_order)}, window,
                        SymFuncP.zero(t_order))


@pytest.mark.parametrize("make, message", [
    (lambda: Window(((0, 0),) * 3), "window needs one range per variable"),
    (lambda: Window.of(z2=(2, 1)), "empty window range (2, 1)"),
    (lambda: region("z1", "z2", "z1"), "region variables must be distinct"),
    (lambda: region("z1", "w"), "unknown variable 'w'"),
    (lambda: RegionOrder(("g", "z1")),
     "g must be the innermost region variable"),
])
def test_window_and_region_reject_bad_fields(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("value, name", [
    (Window.of(), "bounds"), (Z12, "order"), (FactorProduct(), "coeff")])
def test_values_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_factor_product_defaults_are_one():
    assert FactorProduct() == FactorProduct.one() == FactorProduct.of()
    assert hash(FactorProduct()) == hash(FactorProduct.one())


def test_window_repr_names_its_field():
    assert repr(Window.of()) == \
        "Window(bounds=((0, 0), (0, 0), (0, 0), (0, 0)))"
    assert repr(Z12) == "RegionOrder(order=('z1', 'z2'))"


def test_expand_geometric_z1_dominant():
    w = Window.of(z1=(-5, 0), z2=(0, 4))
    ch = fp_power(FORM_Z1_MINUS_Z2, -1).expand(Z12, w, 0)
    assert len(ch.terms) == 5
    for k in range(5):
        assert ch.get(Monomial(z1=-1 - k, z2=k)) == SymFuncP.one(0)
    # support records the infinite tails
    assert ch.support[0] == (None, -1)
    assert ch.support[1] == (0, None)


def test_expand_geometric_z2_dominant():
    w = Window.of(z1=(0, 4), z2=(-5, 0))
    ch = fp_power(FORM_Z1_MINUS_Z2, -1).expand(Z21, w, 0)
    for k in range(5):
        assert ch.get(Monomial(z1=k, z2=-1 - k)) == const(-1, 0)


def test_expansion_with_true_fractions_stays_exact():
    # the prefactor 1/2 and the expansions of 1/(2 z1 - z2) and
    # 1/(z1 - z2/2) in region z1 >> z2: sum_k 2^(-1-k) z1^(-1-k) z2^k and
    # sum_k 2^(-k) z1^(-1-k) z2^k
    half = FactorProduct.of(coeff=(2,)).pow(-1)
    assert half.coeff == (Fraction(1, 2),) and type(half.coeff[0]) is Fraction
    assert FactorProduct.of(coeff=(0, -1)).pow(2).coeff == (0, 0, 1)
    w = Window.of(z1=(-5, 0), z2=(0, 4))
    for form, first in ((lform((2, "z1"), (-1, "z2")), Fraction(1, 2)),
                        (lform((1, "z1"), ("-1/2", "z2")), 1)):
        ch = fp_power(form, -1).expand(Z12, w, 1)
        assert ch.terms == {Monomial(z1=-1 - k, z2=k):
                            const(first / 2 ** k, 1) for k in range(5)}
        ch = half.mul(fp_power(form, -1)).expand(Z12, w, 1)
        assert ch.terms == {Monomial(z1=-1 - k, z2=k):
                            const(first / 2 ** (k + 1), 1) for k in range(5)}


def test_expand_t_adic_inverse():
    # 1/(z1 - t z2): t stays adically small, so z1 dominates in any region
    w = Window.of(z1=(-3, 0), z2=(0, 2))
    for reg in (Z12, Z21):
        ch = fp_power(FORM_Z1_MINUS_TZ2, -1).expand(reg, w, 2)
        assert ch.get(Monomial(z1=-1)) == SymFuncP.one(2)
        assert ch.get(Monomial(z1=-2, z2=1)) == t_power(1, 2)
        assert ch.get(Monomial(z1=-3, z2=2)) == t_power(2, 2)
        assert len(ch.terms) == 3


def test_expand_multiply_back_exactly_one():
    w_inv = Window.of(z1=(-4, -1), z2=(0, 3))
    inv = fp_power(FORM_Z1_MINUS_TZ2, -1).expand(Z12, w_inv, 3)
    poly = fp_power(FORM_Z1_MINUS_TZ2, 1).expand(
        Z12, Window.of(z1=(0, 1), z2=(0, 1)), 3)
    prod = laurent_mul(inv, poly, Window.of(z1=(-2, 0), z2=(0, 2)))
    assert prod.get(Monomial()) == SymFuncP.one(3)
    assert len(prod.terms) == 1


def test_expand_with_g_budget_multiply_back():
    form = lform((1, "z1"), (-1, "z2", 1), (1, "g"), (-1, "g", 1))
    w_inv = Window.of(z1=(-8, -1), z2=(0, 2), g=(0, 3))
    inv = fp_power(form, -1).expand(region("z1", "z2", "g"), w_inv, 2)
    poly = fp_power(form, 1).expand(
        region("z1", "z2", "g"), Window.of(z1=(0, 1), z2=(0, 1), g=(0, 1)), 2)
    prod = laurent_mul(inv, poly, Window.of(z1=(-4, 0), z2=(0, 1), g=(0, 3)))
    assert prod.get(Monomial()) == SymFuncP.one(2)
    assert len(prod.terms) == 1


def test_expand_negative_g_window_rejected():
    with pytest.raises(NonExpandableFactor):
        fp_power(FORM_Z1_MINUS_Z2, -1).expand(
            Z12, Window.of(z1=(-2, 0), z2=(0, 1), g=(-1, 0)), 0)


def test_expand_no_t0_term_rejected():
    form = lform((1, "z1", 1), (-1, "z2", 1))
    with pytest.raises(NonExpandableFactor):
        fp_power(form, -1).expand(Z12, Window.of(z1=(-2, 0), z2=(0, 2)), 2)


@pytest.mark.parametrize("e", [-1, 2])
@pytest.mark.parametrize("term", [Monomial(z1=2), Monomial(z1=1, z2=1),
                                  Monomial()])
def test_expand_non_linear_term_rejected(term, e):
    # every closed form is built from linear forms, and the closed-form
    # bound on geometric tails holds for them only: z1^2, z1 z2 or a
    # constant beside z2 is refused, whatever the sign of the power
    form = tuple(sorted([(term, 0, 1), (Monomial(z2=1), 0, -1)]))
    with pytest.raises(NonExpandableFactor, match="non-linear"):
        fp_power(form, e).expand(Z12, Window.of(z1=(-4, 4), z2=(-4, 4)), 2)


def test_mul_identity():
    w = Window.of(z1=(-2, 2), z2=(-2, 2))
    a = LaurentChunk({Monomial(z1=1): SymFuncP.one(1),
                      Monomial(z2=-1): t_power(1, 1)}, w,
                     SymFuncP.zero(1))
    prod = laurent_mul(a, one_chunk(Window.of(z1=(0, 0), z2=(0, 0)), 1), w)
    assert prod.terms == a.terms


def test_mul_boundary_term_of_finite_chunk():
    # finite truncation of the geometric series times (z1 - z2) leaves the
    # telescoping boundary term, and the product is exact because the chunk
    # is genuinely finite (support equals its terms)
    terms = {Monomial(z1=-1 - k, z2=k): SymFuncP.one(0) for k in range(4)}
    a = LaurentChunk(terms, Window.of(z1=(-4, -1), z2=(0, 3)),
                     SymFuncP.zero(0))
    b = fp_power(FORM_Z1_MINUS_Z2, 1).expand(
        Z12, Window.of(z1=(0, 1), z2=(0, 1)), 0)
    prod = laurent_mul(a, b, Window.of(z1=(-4, 1), z2=(0, 4)))
    assert prod.get(Monomial()) == SymFuncP.one(0)
    assert prod.get(Monomial(z1=-4, z2=4)) == const(-1, 0)
    assert len(prod.terms) == 2


def test_mul_underflow_on_unsound_request():
    w_inv = Window.of(z1=(-4, -1), z2=(0, 3))
    inv = fp_power(FORM_Z1_MINUS_Z2, -1).expand(Z12, w_inv, 0)
    b = fp_power(FORM_Z1_MINUS_Z2, 1).expand(
        Z12, Window.of(z1=(0, 1), z2=(0, 1)), 0)
    # z2 = 4 needs the dropped z2^4 tail term of the geometric series
    with pytest.raises(WindowUnderflow):
        laurent_mul(inv, b, Window.of(z1=(-4, 0), z2=(0, 4)))
    # away from the boundary the product is sound and equals 1
    prod = laurent_mul(inv, b, Window.of(z1=(-3, 0), z2=(0, 2)))
    assert prod.get(Monomial()) == SymFuncP.one(0)
    assert len(prod.terms) == 1


def test_coefficient_access():
    w = Window.of(z1=(-2, 2))
    ch = LaurentChunk({Monomial(z1=1): SymFuncP.one(0)}, w, SymFuncP.zero(0))
    assert ch.get(Monomial(z1=1)) == SymFuncP.one(0)
    assert ch.get(Monomial(z1=-2)).is_zero()
    with pytest.raises(OutsideWindow):
        ch.get(Monomial(z1=3))


def delta_expansions(w):
    """i_{z1;z2} and i_{z2;z1} of 1/(z1-z2), each expanded on the window w."""
    return [fp_power(FORM_Z1_MINUS_Z2, -1).expand(reg, w, 0)
            for reg in (Z12, Z21)]


def test_delta_residue():
    z12, z21 = delta_expansions(Window.of(z1=(-3, 3), z2=(-3, 3)))

    def d(m):
        return z12.get(m) - z21.get(m)
    assert d(Monomial(z1=-1)) == SymFuncP.one(0)
    assert d(Monomial(z1=-2, z2=1)) == SymFuncP.one(0)
    assert d(Monomial(z1=1, z2=-2)) == SymFuncP.one(0)
    assert d(Monomial(z1=-1, z2=1)).is_zero()


def test_delta_identity_full_window():
    # i_{z1;z2} - i_{z2;z1} of 1/(z1-z2) is the formal delta restricted to
    # the window: coefficient 1 exactly on the antidiagonal e1 + e2 = -1
    w = Window.of(z1=(-6, 6), z2=(-6, 6))
    z12, z21 = delta_expansions(w)
    d = {}
    for e1, e2 in itertools.product(range(-6, 7), repeat=2):
        m = Monomial(z1=e1, z2=e2)
        c = z12.get(m) - z21.get(m)
        if not c.is_zero():
            d[m] = c
    expected = {}
    for n in range(-6, 6):
        if -6 <= -n - 1 <= 6:
            expected[Monomial(z1=-n - 1, z2=n)] = SymFuncP.one(0)
    assert d == expected


def _random_poly_fp(rng):
    pool = [FORM_Z1_MINUS_Z2, FORM_Z1_MINUS_TZ2,
            lform((1, "z2"), (-1, "z3")),
            lform((1, "z1"), (2, "z3", 1)),
            lform((1, "z2"), (1, "z3", 2))]
    factors = []
    for _ in range(rng.randrange(1, 3)):
        factors.append((rng.choice(pool), rng.randrange(1, 3)))
    coeff = tp(*[rng.randrange(-3, 4) for _ in range(rng.randrange(1, 3))])
    if not coeff:
        coeff = tp(1)
    mono = Monomial(z1=rng.randrange(-1, 2), z2=rng.randrange(-1, 2))
    return FactorProduct.of(coeff=coeff, monomial=mono, factors=factors)


def test_polynomial_region_independence():
    rng = random.Random(11)
    w = Window(((-6, 6), (-6, 6), (-6, 6), (0, 0)))
    regs = (region("z1", "z2", "z3"), region("z3", "z1", "z2"),
            region("z2", "z3", "z1"))
    for _ in range(40):
        fp = _random_poly_fp(rng)
        chunks = [fp.expand(r, w, 3) for r in regs]
        assert chunks[0].terms == chunks[1].terms == chunks[2].terms


def _random_tsafe_fp(rng):
    # inverses restricted to t-carrying subordinate terms keep all supports
    # finite, so the guarded product applies
    inv_pool = [FORM_Z1_MINUS_TZ2,
                lform((1, "z2"), (-1, "z3", 1)),
                lform((1, "z1"), (2, "z3", 2))]
    poly_pool = inv_pool + [FORM_Z1_MINUS_Z2, lform((1, "z2"), (1, "z3"))]
    factors = [(rng.choice(inv_pool), -rng.randrange(1, 3))]
    if rng.random() < 0.7:
        factors.append((rng.choice(poly_pool), rng.randrange(1, 3)))
    mono = Monomial(z1=rng.randrange(-1, 2), z3=rng.randrange(0, 2))
    return FactorProduct.of(coeff=tp(rng.choice([1, -1, 2])), monomial=mono,
                            factors=factors)


def test_expand_is_multiplicative():
    rng = random.Random(404)
    reg = region("z1", "z2", "z3")
    target = Window(((-4, 4), (-4, 4), (-4, 4), (0, 0)))
    big = Window(((-14, 14), (-14, 14), (-14, 14), (0, 0)))
    for _ in range(100):
        f1 = _random_tsafe_fp(rng)
        f2 = _random_tsafe_fp(rng)
        c1 = f1.expand(reg, big, 2)
        c2 = f2.expand(reg, big, 2)
        joint = f1.mul(f2).expand(reg, target, 2)
        prod = laurent_mul(c1, c2, target)
        assert prod.terms == joint.terms


def test_expand_with_chunks_is_exact_or_raises():
    # _expand(fp, ..., (chunk,)) folds fp's chain and the chunk on boxes
    # from one fixpoint.  The chunk is stored on a random sub-window of its
    # own half of the time.  Wherever the fold returns, it is the exact
    # product (mul_raw of fp's whole expansion and the whole chunk); where
    # the guard of laurent_mul passes on the stored chunk, the fold passes
    # too.  The fold may pass where the guard raises: its box of the chunk
    # is cut by the whole chain, not by one support.  The outcome counts
    # are pinned, so the rule can be neither weakened nor tightened
    # unnoticed
    rng = random.Random(405)
    reg = region("z1", "z2", "z3")
    target = Window(((-4, 4), (-4, 4), (-4, 4), (0, 0)))
    big = Window(((-14, 14), (-14, 14), (-14, 14), (0, 0)))
    outcomes = {"both pass": 0, "both raise": 0, "the guard raises": 0}
    for _ in range(200):
        fp = _random_tsafe_fp(rng)
        T = rng.randrange(0, 3)
        whole = fp.expand(reg, big, T)
        assert all(lo <= s[0] and s[1] <= hi for (lo, hi), s
                   in zip(big.bounds, whole.support))
        full = _random_finite_chunk(rng, T)
        ch = _truncated(full, rng)
        exact = mul_raw(whole, full, target)
        try:
            laurent_mul(whole, ch, target)
            guarded = True
        except WindowUnderflow:
            guarded = False
        try:
            got = _expand(fp, reg, target, T, (ch,))
        except WindowUnderflow:
            assert not guarded
            outcomes["both raise"] += 1
            continue
        assert got.terms == exact.terms
        assert (got.window, got.support) == (target, exact.support)
        outcomes["both pass" if guarded else "the guard raises"] += 1
    assert outcomes == {"both pass": 136, "both raise": 29,
                        "the guard raises": 35}


def test_monotone_in_t_order():
    w = Window.of(z1=(-6, 0), z2=(0, 5))
    lo = fp_power(FORM_Z1_MINUS_TZ2, -2).expand(Z12, w, 2)
    hi = fp_power(FORM_Z1_MINUS_TZ2, -2).expand(Z12, w, 5)
    for m, c in lo.terms.items():
        assert hi.get(m).t_truncate(2) == c
    for m, c in hi.terms.items():
        if c.t_truncate(2).is_zero():
            assert m not in lo.terms


def test_binom_expansion_terms():
    assert list(binom_expansion_terms(2, -1, 5)) == [
        (0, Rat(1)), (1, Rat(-2)), (2, Rat(1))]
    gen = dict(binom_expansion_terms(-2, 1, 3))
    # (x+y)^{-2} = x^{-2}(1 - 2y/x + 3y^2/x^2 - ...)
    assert gen == {0: Rat(1), 1: Rat(-2), 2: Rat(3), 3: Rat(-4)}
    # an int s gives ints equal to e(e-1)...(e-k+1)/k! * s^k, for negative
    # e too; a Rat s gives Rats of the same values
    for e in range(-9, 7):
        for s in (1, -1, 2, -3):
            row = binom_expansion_terms(e, s, 11)
            assert [k for k, _ in row] == list(range(min(11, e) + 1
                                                     if e >= 0 else 12))
            ref = Rat(1)
            for k, c in row:
                assert type(c) is int
                assert c == ref * s ** k
                ref = ref * Rat(e - k, k + 1)
            assert binom_expansion_terms(e, Rat(s), 11) == row
            assert all(type(c) is Rat
                       for _, c in binom_expansion_terms(e, Rat(s), 11))


def test_substitute_shift():
    # (z1 - z2) under z1 -> z2 + z3 collapses to z3
    fp = fp_power(FORM_Z1_MINUS_Z2, 1)
    sub = fp.substitute({"z1": ("z2", "z3")})
    ch = sub.expand(region("z2", "z3"),
                    Window.of(z2=(0, 2), z3=(0, 2)), 0)
    assert ch.terms == {Monomial(z3=1): SymFuncP.one(0)}


def test_substitute_zero_in_inverted_factor():
    # 1/(z1 - t z2) with z2 -> 0 is just 1/z1
    fp = fp_power(FORM_Z1_MINUS_TZ2, -1)
    sub = fp.substitute({"z2": ()})
    ch = sub.expand(Z12, Window.of(z1=(-2, 0)), 2)
    assert ch.terms == {Monomial(z1=-1): SymFuncP.one(2)}


def test_substitute_monomial_to_sum():
    # prefactor z1^{-1} with z1 -> z1 + g becomes an inverted factor
    fp = FactorProduct.of(monomial=Monomial(z1=-1))
    sub = fp.substitute({"z1": ("z1", "g")})
    ch = sub.expand(region("z1", "g"),
                    Window.of(z1=(-4, 0), g=(0, 2)), 0)
    assert ch.get(Monomial(z1=-1)) == SymFuncP.one(0)
    assert ch.get(Monomial(z1=-2, g=1)) == const(-1, 0)
    assert ch.get(Monomial(z1=-3, g=2)) == SymFuncP.one(0)


def test_expand_positive_power_without_t0_term():
    # (t z1 - t z2)^2 = t^2 z1^2 - 2 t^2 z1 z2 + t^2 z2^2: every term of the
    # form carries t, so the expansion starts at t^2
    form = lform((1, "z1", 1), (-1, "z2", 1))
    w = Window.of(z1=(-1, 3), z2=(-1, 3))
    t2 = t_power(2, 3)
    for reg in (Z12, Z21):
        ch = fp_power(form, 2).expand(reg, w, 3)
        assert ch.terms == {Monomial(z1=2): t2,
                            Monomial(z1=1, z2=1): t2.scale(-2),
                            Monomial(z2=2): t2}
        assert ch.support == ((0, 2), (0, 2), (0, 0), (0, 0))
    assert fp_power(form, 2).expand(Z12, w, 1).is_zero()


def test_expand_positive_power_with_g_lowest():
    # (g + t z1)^2 = g^2 + 2 t z1 g + t^2 z1^2; g is the only t-degree-0
    # term, which a negative power rejects
    form = lform((1, "g"), (1, "z1", 1))
    reg = region("z1", "g")
    w = Window.of(z1=(0, 2), g=(0, 2))
    ch = fp_power(form, 2).expand(reg, w, 2)
    assert ch.terms == {Monomial(g=2): SymFuncP.one(2),
                        Monomial(z1=1, g=1): t_power(1, 2).scale(2),
                        Monomial(z1=2): t_power(2, 2)}
    low = fp_power(form, 2).expand(reg, w, 1)
    assert low.terms == {Monomial(g=2): SymFuncP.one(1),
                         Monomial(z1=1, g=1): t_power(1, 1).scale(2)}
    with pytest.raises(NonExpandableFactor):
        fp_power(form, -1).expand(reg, w, 2)


def test_positive_power_is_repeated_product():
    rng = random.Random(23)
    pool = [FORM_Z1_MINUS_Z2, FORM_Z1_MINUS_TZ2,
            lform((1, "z1", 1), (-1, "z2", 1)),
            lform((1, "g"), (1, "z1", 1)),
            lform((2, "z2", 1), (1, "g"), (-1, "z3", 2)),
            lform((1, "z3"), (3, "g", 1))]
    reg = region("z1", "z2", "z3", "g")
    w = Window(((-1, 4), (-1, 4), (-1, 3), (0, 3)))
    unit = Window(((-1, 1), (-1, 1), (-1, 1), (0, 1)))
    for _ in range(30):
        form = rng.choice(pool)
        e = rng.randrange(1, 5)
        T = rng.randrange(0, 4)
        one = fp_power(form, 1).expand(reg, unit, T)
        acc = one
        for _ in range(e - 1):
            acc = mul_raw(acc, one, Window(tuple(
                (lo + ulo, hi + uhi) for (lo, hi), (ulo, uhi)
                in zip(acc.window.bounds, unit.bounds))))
        expect = {m: c for m, c in acc.terms.items() if w.contains(m)}
        assert fp_power(form, e).expand(reg, w, T).terms == expect


def _truncated(chunk, rng):
    """The chunk, or half of the time the chunk stored on a random
    sub-window of its own window, keeping the full support."""
    if rng.random() < 0.5:
        return chunk
    sub = []
    for lo, hi in chunk.window.bounds:
        lo2 = lo + rng.randrange(0, 2)
        hi2 = hi - rng.randrange(0, 2)
        sub.append((lo2, hi2) if lo2 <= hi2 else (lo, hi))
    sub = Window(tuple(sub))
    return LaurentChunk({m: c for m, c in chunk.terms.items()
                         if sub.contains(m)}, sub, chunk.zero, chunk.support)


def _random_finite_chunk(rng, t_order):
    box = tuple((0, 0) if v == 2 else (lo, lo + rng.randrange(0, 4))
                for v, lo in enumerate(rng.randrange(-3, 3)
                                       for _ in range(4)))
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        m = Monomial(*(rng.randint(lo, hi) for lo, hi in box))
        terms[m] = scalar(tuple(Rat(rng.randrange(-3, 4))
                                for _ in range(t_order + 1)), t_order)
    return LaurentChunk(terms, Window(box), SymFuncP.zero(t_order))


def test_laurent_mul_is_exact_or_raises():
    # the guard either raises or returns exactly what the untruncated
    # chunks give; the raise/return split is pinned so the guard can be
    # neither weakened nor tightened unnoticed
    rng = random.Random(97)
    raised = returned = 0
    for _ in range(400):
        fa = _random_finite_chunk(rng, 1)
        fb = _random_finite_chunk(rng, 1)
        a, b = _truncated(fa, rng), _truncated(fb, rng)
        req = []
        for (alo, _), (blo, _) in zip(a.window.bounds, b.window.bounds):
            lo = alo + blo + rng.randrange(-2, 3)
            req.append((lo, lo + rng.randrange(0, 5)))
        req = Window(tuple(req))
        try:
            prod = laurent_mul(a, b, req)
        except WindowUnderflow:
            raised += 1
            continue
        returned += 1
        assert prod.window == req
        assert prod.terms == mul_raw(fa, fb, req).terms
    assert (returned, raised) == (209, 191)


def _random_mixed_fp(rng):
    pool = [FORM_Z1_MINUS_Z2, FORM_Z1_MINUS_TZ2,
            lform((1, "z2"), (-1, "z3", 1)),
            lform((1, "z1"), (1, "g")),
            lform((1, "z2"), (-1, "g", 1), (2, "z3")),
            lform((1, "z1", 1), (-1, "z3", 1)),
            lform((1, "g"), (1, "z2", 1))]
    factors = []
    for _ in range(rng.randrange(1, 4)):
        form = rng.choice(pool)
        e = rng.choice((-2, -1, 1, 2))
        if e < 0 and not any(k == 0 and m.exp("g") == 0 for m, k, _ in form):
            e = -e
        factors.append((form, e))
    mono = Monomial(z1=rng.randrange(-1, 2), z2=rng.randrange(-1, 2),
                    z3=rng.randrange(0, 2))
    return FactorProduct.of(coeff=tp(rng.choice([1, -1, 2]), 1),
                            monomial=mono, factors=factors)


def test_expand_monotone_in_t_order_and_window():
    # the expansion at (T, W) is the expansion at (T + k, W + k) truncated
    # to t^T and restricted to W
    rng = random.Random(515)
    reg = region("z1", "z2", "z3", "g")
    checked = 0
    for _ in range(150):
        fp = _random_mixed_fp(rng)
        T, k = rng.randrange(0, 4), rng.randrange(1, 3)
        lows = [rng.randrange(-4, 1) for _ in range(3)]
        small = Window(tuple((lo, lo + rng.randrange(0, 5)) for lo in lows)
                       + ((0, rng.randrange(0, 3)),))
        big = Window(tuple((lo - k, hi + k) for lo, hi in small.bounds[:3])
                     + ((0, small.bounds[3][1] + k),))
        try:
            lo_ch = fp.expand(reg, small, T)
        except WindowUnderflow:
            continue
        hi_ch = fp.expand(reg, big, T + k)
        expect = {}
        for m, c in hi_ch.terms.items():
            c = c.t_truncate(T)
            if small.contains(m) and not c.is_zero():
                expect[m] = c
        assert lo_ch.terms == expect
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# the fused integer-row product against the per-pair product


KINDS = ("scalar", "SymFuncP", "FockVector")


def _random_row(rng, T):
    # sparse at T=24, so the test stays quick
    row = [0] * (T + 1)
    for i in rng.sample(range(T + 1), min(T + 1, 4)):
        row[i] = rng.randrange(-5, 6)
    return row


def _random_sym(rng, cap, T):
    lams = list(partitions_up_to(cap))
    return SymFuncP(
        {lam: _random_row(rng, T) for lam in rng.sample(lams, 3)},
        rng.choice((1, 2, 3, 4, 6, 9)), T)


def _random_coeff(rng, kind, cap, T, charges):
    if kind == "scalar":
        return SymFuncP({Partition(): _random_row(rng, T)},
                        rng.choice((1, 2, 3, 4, 6, 9)), T)
    if kind == "SymFuncP":
        return _random_sym(rng, cap, T)
    return FockVector({q: _random_sym(rng, cap, T)
                       for q in rng.sample(charges, 2)}, T)


ZEROS = {"scalar": SymFuncP.zero, "SymFuncP": SymFuncP.zero,
         "FockVector": FockVector.zero}


def _max_weight(c):
    return max(sum(lam) for _, num, _ in c.charge_rows() for lam in num)


def _random_operand(rng, kind, cap, T, charges, sign, coeff=_random_coeff):
    # random terms at g^0, plus a pair at g^3 whose product with the other
    # operand's pair cancels at z1 g^6: c z1^0 + c z1 against d z1 - d z1^0
    terms = {}
    for _ in range(rng.randrange(2, 6)):
        m = Monomial(rng.randrange(-2, 3), rng.randrange(-2, 3))
        terms[m] = coeff(rng, kind, cap, T, charges)
    c = coeff(rng, kind, cap, T, charges)
    if sign > 0:
        terms[Monomial(g=3)] = terms[Monomial(z1=1, g=3)] = c
    else:
        terms[Monomial(z1=1, g=3)] = c
        terms[Monomial(g=3)] = -c
    window = Window(((-2, 3), (-2, 2), (0, 0), (0, 3)))
    return LaurentChunk(terms, window, ZEROS[kind](T))


def _per_pair_product(a, b, window):
    """The product as sum of c1 * c2 in the coefficient classes' own
    arithmetic, one term pair at a time."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 * m2
            if window.contains(m):
                p = c1 * c2
                terms[m] = terms[m] + p if m in terms else p
    return terms


def _config(c):
    return type(c), c.t_order


def _projected(c, cap):
    return c.weight_truncate(cap)


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_mul_raw_matches_per_pair_product(T):
    rng = random.Random(800 + T)
    cap = 4
    window = Window(((-3, 5), (-4, 3), (0, 0), (0, 6)))
    cancelled = dropped = 0
    for k1 in KINDS:
        for k2 in KINDS:
            for _ in range(3):
                # charges 0..2 on one side and 0..1 on the other stay
                # within MAX_CHARGE = 3
                a = _random_operand(rng, k1, cap, T, [0, 1, 2], 1)
                b = _random_operand(rng, k2, cap, T, [0, 1], -1)
                ref = {m: _projected(c, cap) for m, c in
                       _per_pair_product(a, b, window).items()}
                prod = mul_raw(a, b, window, cap)
                assert prod.terms == {m: c for m, c in ref.items()
                                      if not c.is_zero()}
                for m, c in ref.items():
                    assert _config(prod.get(m)) == _config(c)
                assert _config(prod.zero) == _config(a.zero * b.zero)
                cancelled += sum(c.is_zero() for c in ref.values())
                dropped += any(_max_weight(c1) + _max_weight(c2) > cap
                               for m1, c1 in a.terms.items()
                               for m2, c2 in b.terms.items()
                               if window.contains(m1 * m2))
    assert cancelled >= 27 and dropped >= 12


def test_mul_raw_rejects_mismatched_configurations():
    rng = random.Random(31)
    for k1 in KINDS:
        for k2 in KINDS:
            a = _random_operand(rng, k1, 4, 2, [0, 1], 1)
            b = _random_operand(rng, k2, 4, 3, [0, 1], 1)
            with pytest.raises(TruncationMismatch):
                mul_raw(a, b, a.window)


def test_mul_raw_charge_above_max_raises():
    one = SymFuncP.one(1)
    a = LaurentChunk({Monomial(): FockVector.pure(2, one)}, Window.of(),
                     FockVector.zero(1))
    b = LaurentChunk({Monomial(): FockVector.pure(1, one)}, Window.of(),
                     FockVector.zero(1))
    assert mul_raw(a, b, Window.of()).get(Monomial()) == \
        FockVector.pure(3, one)
    with pytest.raises(UnsupportedCharge):
        mul_raw(a, a, Window.of())
    # also when every merge of the pair is above the cap: p_4 p_4 at cap 4
    h = LaurentChunk({Monomial(): FockVector.pure(2, SymFuncP.p(4, 1))},
                     Window.of(), FockVector.zero(1))
    with pytest.raises(UnsupportedCharge):
        mul_raw(h, h, Window.of(), 4)


# numerators near 2^80 over the denominators of each side: the prime
# 2^61 - 1 and 3^30 against 3^30 and 1, so most block pairs have
# k = D/(d1 d2) far from 1
BIG_DENS = {1: (2 ** 61 - 1, 3 ** 30), -1: (3 ** 30, 1)}


def _big_sym(rng, cap, T, sign):
    # one block of three rows, all negative in about half of the blocks
    negative = rng.random() < 0.5
    rows = {}
    for lam in rng.sample(list(partitions_up_to(cap)), 3):
        row = [0] * (T + 1)
        for i in rng.sample(range(T + 1), min(T + 1, 6)):
            x = 2 ** 80 - rng.randrange(1 << 20)
            row[i] = -x if negative or rng.random() < 0.5 else x
        rows[lam] = row
    return SymFuncP(rows, rng.choice(BIG_DENS[sign]), T)


def _big_coeff(sign):
    def coeff(rng, kind, cap, T, charges):
        if kind == "SymFuncP":
            return _big_sym(rng, cap, T, sign)
        return FockVector({q: _big_sym(rng, cap, T, sign)
                           for q in rng.sample(charges, 2)}, T)
    return coeff


@pytest.mark.parametrize("T", [1, 8, 24])
def test_mul_raw_digit_width_on_big_numerators(T):
    # every digit of a packed product sits near the bound the width comes
    # from, so a width without k or without one side's L1 mass, or a decode
    # that is not balanced, reads wrong rows here
    rng = random.Random(1000 + T)
    cap = 4
    window = Window(((-3, 5), (-4, 3), (0, 0), (0, 6)))
    cancelled = 0
    for k1 in ("SymFuncP", "FockVector"):
        for k2 in ("SymFuncP", "FockVector"):
            a = _random_operand(rng, k1, cap, T, [0, 1, 2], 1, _big_coeff(1))
            b = _random_operand(rng, k2, cap, T, [0, 1], -1, _big_coeff(-1))
            ref = {m: _projected(c, cap) for m, c in
                   _per_pair_product(a, b, window).items()}
            prod = mul_raw(a, b, window, cap)
            assert prod.terms == {m: c for m, c in ref.items()
                                  if not c.is_zero()}
            cancelled += sum(c.is_zero() for c in ref.values())
    assert cancelled >= 4


# ---------------------------------------------------------------------------
# the fold: every step on packed rows, decoded once per output


FOLD_TARGET = Window(((-3, 5), (-4, 3), (0, 0), (0, 6)))


def _chain(rng, n, T):
    # alternating signs put a cancelling pair at g^3 in every other chunk;
    # at most three FockVector chunks of charges 0..1 keep every charge
    # within MAX_CHARGE = 3
    kinds = [rng.choice(KINDS) for _ in range(n)]
    if kinds.count("FockVector") == 4:
        kinds[0] = "SymFuncP"
    return [_random_operand(rng, kind, 4, T, [0, 1], (-1) ** i)
            for i, kind in enumerate(kinds)]


def _stepwise(chunks, target, cap):
    """The per-pair product one step at a time, each step on the whole box
    its operands reach and projected to the cap, the last on the target;
    the last step's terms with the zeros kept."""
    acc = chunks[0]
    for i, c in enumerate(chunks[1:], 2):
        window = (target if i == len(chunks) else Window(tuple(
            (sum(ch.window.bounds[v][0] for ch in chunks[:i]),
             sum(ch.window.bounds[v][1] for ch in chunks[:i]))
            for v in range(4))))
        terms = {m: _projected(x, cap)
                 for m, x in _per_pair_product(acc, c, window).items()}
        acc = LaurentChunk(terms, window, acc.zero * c.zero)
    return acc, terms


def _members(chunks):
    # each chunk a member on its stored window, whose build returns it
    return [(c.window.bounds, lambda box, c=c: c) for c in chunks]


def _folded(chunks, cap):
    return _fold(_members(chunks), FOLD_TARGET, cap)


def _weight_drops(chunks, cap):
    # the term pairs of the chunks whose top weights add up above the cap
    return sum(_max_weight(c1) + _max_weight(c2) > cap
               for a, b in zip(chunks, chunks[1:])
               for c1 in a.terms.values() for c2 in b.terms.values())


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_fold_matches_stepwise_per_pair_product(T):
    rng = random.Random(1100 + T)
    cap = 4
    cancelled = dropped = 0
    for n in (3, 4):
        for _ in range(5):
            chunks = _chain(rng, n, T)
            ref, last = _stepwise(chunks, FOLD_TARGET, cap)
            prod = _folded(chunks, cap)
            assert prod.terms == ref.terms
            assert type(prod.zero) is type(ref.zero)
            assert prod.zero.t_order == T
            cancelled += sum(c.is_zero() for c in last.values())
            dropped += _weight_drops(chunks, cap)
    assert cancelled >= 30 and dropped >= 200


# a target narrow against the diagonal, so only a band of each
# intermediate step's window reaches it
BAND_TARGET = Window(((-1, 1), (-1, 1), (0, 0), (0, 6)))


def _diagonal(rng, T):
    # scalar terms at z1^j z2^-j, g^0, as the braiding scalar lies
    terms = {Monomial(j, -j): _random_coeff(rng, "scalar", 4, T, [0])
             for j in range(-3, 4)}
    return LaurentChunk(terms, Window(((-3, 3), (-3, 3), (0, 0), (0, 0))),
                        SymFuncP.zero(T))


def _banded(chunks, cap):
    return _fold(_members(chunks), BAND_TARGET, cap)


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_fold_with_a_diagonal_last_chunk_matches_stepwise(T):
    rng = random.Random(1150 + T)
    for n in (2, 3):
        for _ in range(4):
            chunks = _chain(rng, n, T) + [_diagonal(rng, T)]
            ref, _ = _stepwise(chunks, BAND_TARGET, 4)
            assert _banded(chunks, 4).terms == ref.terms


def _partitions(chunk):
    return len({lam for c in chunk.terms.values()
                for _, num, _ in c.charge_rows() for lam in num})


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_fold_of_members_in_descending_partition_order_matches_stepwise(T):
    # the fold takes the members after chunk 0 fewest partitions first;
    # handed them most partitions first, the diagonal scalar last, it
    # reorders the chain and still equals the per-pair product taken step
    # by step in the order given, merges above the cap dropped
    rng = random.Random(1160 + T)
    reordered = dropped = 0
    for n in (3, 4):
        for _ in range(4):
            head, *rest = _chain(rng, n, T) + [_diagonal(rng, T)]
            chunks = [head] + sorted(rest, key=_partitions, reverse=True)
            counts = [_partitions(c) for c in chunks[1:]]
            reordered += counts != sorted(counts)
            ref, _ = _stepwise(chunks, BAND_TARGET, 4)
            assert _banded(chunks, 4).terms == ref.terms
            dropped += sum(_max_weight(c) > 4 for c
                           in _banded(chunks, None).terms.values())
    assert reordered >= 6 and dropped >= 100


@pytest.mark.parametrize("T", [0, 1, 8])
def test_fold_packs_only_the_intermediate_outputs_read(T, monkeypatch):
    # with scalar chunks every output is one row, so low_row runs once per
    # intermediate output formed: those that some term of the diagonal
    # carries into the target, and not the rest of the step's window
    import qvertex.laurent as laurent
    calls = []

    def counted(x, n, B):
        calls.append(x)
        return low_row(x, n, B)

    monkeypatch.setattr(laurent, "low_row", counted)
    rng = random.Random(1170 + T)
    pruned = 0
    for _ in range(4):
        a, b = (_random_operand(rng, "scalar", 4, T, [0], sign)
                for sign in (1, -1))
        c = _diagonal(rng, T)
        ref, _ = _stepwise([a, b, c], BAND_TARGET, 4)
        calls.clear()
        assert _banded([a, b, c], 4).terms == ref.terms
        sums = {m1 * m2 for m1 in a.terms for m2 in b.terms}
        read = {m for m in sums
                if any(BAND_TARGET.contains(m * s) for s in c.terms)}
        reach = Window(tuple((lo - chi, hi - clo) for (lo, hi), (clo, chi)
                             in zip(BAND_TARGET.bounds, c.window.bounds)))
        assert len(calls) == len(read)
        pruned += len({m for m in sums if reach.contains(m)}) - len(read)
    assert pruned >= 10


def test_fold_edge_cases():
    one = SymFuncP.one(1)
    two = LaurentChunk({Monomial(): FockVector.pure(2, one)}, Window.of(),
                       FockVector.zero(1))
    lone = LaurentChunk({Monomial(z1=1): one}, Window.of(z1=(1, 1)),
                        SymFuncP.zero(1))
    # a single member comes back whole inside the target; outside it, its
    # box is empty and it folds to None
    assert _fold(_members([lone]), Window.of(z1=(1, 1))) is lone
    assert _fold(_members([lone]), Window.of()) is None
    # an empty box returns None before any member is built, so the
    # charge-4 product of the first two chunks does not raise
    assert _fold(_members([two, two, lone]), Window.of(z1=(3, 4))) is None
    # an intermediate charge above MAX_CHARGE raises, also when every
    # merge at that step is above the cap: p_4 p_4 at cap 4
    with pytest.raises(UnsupportedCharge):
        _fold(_members([two, two, lone]), Window.of(z1=(1, 1)))
    h = LaurentChunk({Monomial(): FockVector.pure(2, SymFuncP.p(4, 1))},
                     Window.of(), FockVector.zero(1))
    with pytest.raises(UnsupportedCharge):
        _fold(_members([h, h, lone]), Window.of(z1=(1, 1)), 4)


def test_fold_raises_when_a_chunk_is_stored_short_of_its_box():
    # the one soundness rule of a chain: each chunk stores its box.  Each
    # member in turn, built one step short of its fixpoint box on one side
    # of one variable, raises before any product runs; built on its box
    # it folds
    rng = random.Random(1250)
    chunks = _chain(rng, 3, 1)
    boxes = _fixpoint_boxes([c.window.bounds for c in chunks], FOLD_TARGET)
    ref = _fold(_members(chunks), FOLD_TARGET, 4)
    assert ref.terms
    short = 0
    for j, (c, box) in enumerate(zip(chunks, boxes)):
        for v, (lo, hi) in enumerate(box):
            for cut in ((lo + 1, hi), (lo, hi - 1)):
                if cut[0] > cut[1]:
                    continue
                w = Window(tuple(cut if i == v else b
                                 for i, b in enumerate(box)))
                stored = LaurentChunk({m: x for m, x in c.terms.items()
                                       if w.contains(m)}, w, c.zero,
                                      c.support)
                members = _members(chunks)
                members[j] = (c.window.bounds, lambda box, s=stored: s)
                with pytest.raises(WindowUnderflow):
                    _fold(members, FOLD_TARGET, 4)
                short += 1
    assert short >= 12


def _recorded(members, seen):
    # the members with each build recording the box it is handed
    return [(support, lambda box, build=build: seen.append(box) or
             build(box)) for support, build in members]


def test_fold_builds_each_member_on_its_fixpoint_box():
    # _fold computes the boxes itself: each build is handed the box that
    # _fixpoint_boxes gives its support, and one more round over those
    # boxes leaves every one as it is.  The chains are random chunks on
    # their windows, with a target whose top power of g cuts their boxes,
    # and factor products whose geometric tails leave supports open on one
    # side
    import qvertex.laurent as laurent
    rng = random.Random(1260)
    box3 = Window.of(z1=(-3, 3), z2=(-3, 3), z3=(-2, 2))
    chains = [(_members(_chain(rng, n, 1) + [_diagonal(rng, 1)]),
               Window(((-1, 1), (-1, 1), (0, 0), (3 * n - 1, 3 * n))))
              for n in (1, 2, 3) for _ in range(4)]
    for _ in range(12):
        fp = _random_tsafe_fp(rng).mul(fp_power(FORM_Z1_MINUS_Z2,
                                          -rng.randrange(1, 3)))
        chains.append((laurent._chain(fp, region("z1", "z2", "z3"), box3,
                                      2)[0], box3))
    cut = open_sides = 0
    for members, target in chains:
        seen = []
        folded = _fold(_recorded(members, seen), target, 4)
        supports = [support for support, _ in members]
        boxes = _fixpoint_boxes(supports, target)
        if boxes is None:  # the chain vanishes there: nothing is built
            assert folded is None and seen == []
            continue
        assert seen == boxes
        assert _fixpoint_boxes(boxes, target) == boxes
        if any(None in iv for s in supports for iv in s):
            open_sides += 1
        else:
            cut += boxes != supports
    assert cut >= 12 and open_sides >= 10


@pytest.mark.parametrize("T", [1, 8, 24])
def test_fold_digit_width_on_big_numerators(T):
    # numerators near 2^80 over 2^61 - 1, 3^30 and 1 in a fold of three
    # chunks: the one width covers the last step's digits only if it takes
    # in the intermediate block's mass and the last step's k = D/(d1 d2),
    # with the intermediate denominators left unreduced
    rng = random.Random(1200 + T)
    cancelled = 0
    for kinds in (("SymFuncP",) * 3, ("FockVector", "SymFuncP", "FockVector"),
                  ("SymFuncP", "FockVector", "FockVector")):
        chunks = [_random_operand(rng, kind, 4, T, [0, 1], (-1) ** i,
                                  _big_coeff((-1) ** i))
                  for i, kind in enumerate(kinds)]
        ref, last = _stepwise(chunks, FOLD_TARGET, 4)
        assert _folded(chunks, 4).terms == ref.terms
        cancelled += sum(c.is_zero() for c in last.values())
    assert cancelled >= 20


# ---------------------------------------------------------------------------
# geometric tails: one closed-form bound per u-term


def _random_linear_form(rng, reg, with_g):
    names = [v for v in reg.order if with_g or v != "g"]
    picks = rng.sample([(v, k) for v in names for k in range(3)],
                       rng.randrange(2, 5))
    return lform(*[(rng.choice([1, -1, 2, -3]), v, k) for v, k in picks])


def test_tail_bound_matches_the_iterative_rule():
    # a linear form's u-term lowers only the dominant variable, by one, so
    # the bound e - lo(v_d) on the box equals what the iterative rule of
    # tests/reference.py reaches.  The boxes come from _fixpoint_boxes over
    # the factor, a point and an E+-like member, in several regions, with
    # and without g
    rng = random.Random(1300)
    regions = [region("z1", "z2", "g"), region("z2", "z1", "g"),
               region("z1", "z2", "z3"), region("z3", "z1", "z2", "g")]
    compared = bounded = opened = 0
    for _ in range(600):
        reg = rng.choice(regions)
        with_g = "g" in reg.order and rng.random() < 0.6
        form = _random_linear_form(rng, reg, with_g)
        e = rng.choice([-3, -2, -1, 1, 2, 3])
        T = rng.randrange(0, 3)
        G = rng.randrange(0, 4) if with_g else 0
        zs = [v for v in reg.order if v != "g"]
        lows = [rng.randrange(-4, 3) for _ in zs]
        target = Window.of(g=(0, G), **{v: (lo, lo + rng.randrange(2, 9))
                                         for v, lo in zip(zs, lows)})
        try:
            info = _FactorInfo(form, e, reg, T, G)
        except NonExpandableFactor:
            continue
        point = tuple((x, x) for x in Monomial.of(
            **{v: rng.randrange(-2, 3) for v in zs}))
        eplus = Window.of(**{rng.choice(zs): (0, 5)}).bounds
        try:
            boxes = _fixpoint_boxes([point, info.support, eplus], target)
        except WindowUnderflow:
            continue
        if boxes is None:
            continue
        start = [u[3] for u in info.uterms]
        ref = tail_bounds(info, boxes[1])
        info.chunk(boxes[1], T)
        assert [u[3] for u in info.uterms] == ref, (form, e, reg, boxes[1])
        compared += 1
        bounded += ref != start
        opened += None in start
    assert compared >= 250 and bounded >= 50 and opened >= 25
