"""Deformed translation generator: gauge values, derivation property,
charge action, and the exponential series."""

import random
from math import comb, factorial, lcm

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


# ---------------------------------------------------------------------------
# e^{gD} in closed form, built with SymFuncP arithmetic only
#
# D = delta + m c(t) p_1 on charge m, with delta the derivation
# p_n -> n (1-t^{n+1})/(1-t^n) p_{n+1}.  exp(g delta) is the ring map
# p_n -> sum_k C(n+k-1, k) g^k (1-t^{n+k})/(1-t^n) p_{n+k}, and
#
#   exp(gD)(f e^{m alpha}) = exp(g delta)(f)
#       * exp(m c(t)/(1-t) sum_n (1-t^n)/n p_n g^n) e^{m alpha}.


def _ratio_row(n, j, T):
    """(1 - t^{n+j})/(1 - t^n) through t^T."""
    geo = [0 if i % n else 1 for i in range(T + 1)]
    return tuple(geo[i] - (geo[i - n - j] if i >= n + j else 0)
                 for i in range(T + 1))


def _gmul(a, b, cap):
    """The product of two g-series [g^0, ..., g^G] of SymFuncP, cut at g^G
    and projected to cap."""
    zero = SymFuncP.zero(a[0].t_order)
    return [sum(((a[i] * b[k - i]).weight_truncate(cap)
                 for i in range(k + 1)), zero) for k in range(len(a))]


def _exp_gD_oracle(f, m, c, G, cap):
    """exp(gD)(f e^{m alpha}) as [g^0, ..., g^G], each coefficient's
    e^{m alpha} component projected to cap."""
    T = f.t_order
    zero, one = SymFuncP.zero(T), SymFuncP.one(T)
    sigma = {}
    for lam in f.num:
        for n in lam:
            sigma[n] = [SymFuncP({Partition((n + j,)): tuple(
                comb(n + j - 1, j) * x for x in _ratio_row(n, j, T))}, 1, T)
                .weight_truncate(cap) for j in range(G + 1)]
    shifted = [zero] * (G + 1)
    for lam, coeff in f.terms.items():
        term = [coeff] + [zero] * G
        for n in lam:
            term = _gmul(term, sigma[n], cap)
        shifted = [x + y for x, y in zip(shifted, term)]
    # Phi = m c(t) sum_n (1 + t + ... + t^{n-1})/n p_n g^n; exp(Phi)
    cs = scalar(c, T)
    phi = [zero] + [(cs * SymFuncP.p(n, T) * scalar(tp(*[1] * n), T))
                    .scale(Rat(m, n)).weight_truncate(cap)
                    for n in range(1, G + 1)]
    power, expo = [one] + [zero] * G, [one] + [zero] * G
    for i in range(1, G + 1):
        power = _gmul(power, phi, cap)
        expo = [x + y.scale(Rat(1, factorial(i)))
                for x, y in zip(expo, power)]
    return _gmul(shifted, expo, cap)


def _random_state(rng, T, cap, charges):
    """A FockVector on the given charges, with rational rows up to weight
    cap + 1 so the projection of the input counts too."""
    comps = {}
    for q in charges:
        lams = rng.sample(list(partitions_up_to(cap + 1)), 4)
        comps[q] = sym({lam: tuple(Rat(rng.randint(-9, 9), rng.choice(
            (1, 2, 3, 5))) for _ in range(rng.randint(1, T + 1)))
            for lam in lams}, T)
    return FockVector(comps, T)


CHARGE_COEFFS = (tp(1, -1), tp(1), tp(Rat(1, 2), Rat(-1, 3)))


@pytest.mark.parametrize("T", range(7))
def test_exp_D_chunk_matches_closed_form(T):
    # exp_D_chunk against the closed form on chunks with powers of g
    # already present: the coefficient at g^j sums e^{gD} of the term at
    # g^b, read at g^(j-b)
    rng = random.Random(2000 + T)
    live = 0
    for c in CHARGE_COEFFS:
        for _ in range(2):
            G, cap = rng.randint(1, 4), rng.randint(2, 7)
            base = {b: _random_state(rng, T, cap,
                                     rng.sample(range(4), rng.randint(1, 2)))
                    for b in range(rng.randint(1, 2))}
            chunk = LaurentChunk({Monomial.var("g", b): v
                                  for b, v in base.items()},
                                 Window.of(g=(0, max(base))),
                                 FockVector.zero(T))
            out = exp_D_chunk(chunk, "g", G, cap, c)
            expect = {j: FockVector.zero(T) for j in range(G + 1)}
            for b, v in base.items():
                for q, f in v.components.items():
                    series = _exp_gD_oracle(f, q, c, G - b, cap)
                    for j, x in enumerate(series):
                        expect[b + j] += FockVector.pure(q, x)
            for j in range(G + 1):
                assert out.get(Monomial.var("g", j)) == expect[j], (c, j)
                live += j > 0 and not expect[j].is_zero()
            assert set(out.terms) <= {Monomial.var("g", j)
                                      for j in range(G + 1)}
    assert live >= 6


# ---------------------------------------------------------------------------
# the packed D step on numerators near 2^80


def _reference_D(v, cap, c):
    """D term by term with SymFuncP products: each part p of lam gives
    m_p(lam) (p (1-t^{p+1})/(1-t^p)) p_{lam - p + (p+1)}, and charge m adds
    m c(t) p_1 p_lam."""
    T = v.t_order
    comps = {}
    for m, f in v.components.items():
        out = SymFuncP.zero(T)
        for lam, coeff in f.terms.items():
            if lam.weight >= cap:
                continue
            for p in set(lam):
                row = tuple(p * x for x in _ratio_row(p, 1, T))
                out += coeff * SymFuncP({lam.replace_part(p, p + 1): row},
                                        1, T).scale(lam.mult(p))
            if m:
                out += (coeff * scalar(c, T) * SymFuncP(
                    {lam.add_part(1): (1,)}, 1, T)).scale(m)
        comps[m] = out
    return FockVector(comps, T)


@pytest.mark.parametrize("T", [0, 1, 6])
def test_D_digit_width_on_big_numerators(T):
    # numerators a little below 2^80 of one sign put every digit of a
    # packed sum near the bound the width comes from: T = 0 makes the L1
    # bounds tight, and a partition with many distinct parts collects one
    # entry from each of several rows; a width without the entry norms of
    # the rows' tables reads wrong rows here
    rng = random.Random(3000 + T)
    cap = 8
    # p_{3,2,1} e^{3 alpha} collects 4x + 2x + 3x from p_{2,2,1}, p_{3,1,1}
    # and p_{3,2}: at T = 0 with x just below 2^80, 9x needs more than the
    # bits of their summed L1 norms 3x plus two
    x = 2 ** 80 - 3
    tight = FockVector.pure(3, SymFuncP({Partition(lam): (x,) for lam in (
        (2, 2, 1), (3, 1, 1), (3, 2))}, 2 ** 61 - 1, T))
    assert apply_D(tight, cap) == _reference_D(tight, cap, tp(1, -1))
    c = tp(Rat(1, 2), Rat(-1, 3))
    lams = list(partitions_up_to(cap - 1))
    for den in (2 ** 61 - 1, 3 ** 30):
        for sign in (1, -1):
            for m in (0, 3):
                rows = {lam: tuple(sign * (2 ** 80 - rng.randint(1, 2 ** 20))
                                   for _ in range(T + 1)) for lam in lams}
                v = FockVector({m: SymFuncP(rows, den, T)}, T)
                assert apply_D(v, cap, c) == _reference_D(v, cap, c)
                mixed = {lam: tuple(rng.choice((-1, 1)) * x for x in row)
                         for lam, row in rows.items()}
                w = FockVector({m: SymFuncP(mixed, den, T),
                                (m + 1) % 4: SymFuncP(rows, 3 * den, T)}, T)
                assert apply_D(w, cap, c) == _reference_D(w, cap, c)
                dw = w
                ed = exp_D(w, "g", 3, cap, c)
                for j in range(1, 4):
                    dw = _reference_D(dw, cap, c).scale(Rat(1, j))
                    assert ed.get(Monomial.var("g", j)) == dw
    # e^{gD} keeps the rows packed over G = 3 steps at one width.  g^3
    # gathers D^3 w_0 / 3!, D^2 w_1 / 2!, D w_2 and w_3, and w_0 over den 1
    # against 2^61 - 1 and 3^30 gives its piece the largest factor
    # D/(den k^3 3!) by far; at T = 0, one sign and c(0) > 0 its digits
    # come near the bound.  A width that leaves out the growth of D^j w_0
    # past the first step, or the factors D/(den k^j j!), reads wrong rows
    ws = [FockVector.pure(3, SymFuncP({Partition(lam): (x,) * (T + 1)}, den,
                                      T))
          for lam, den in (((1,), 1), ((2,), 2 ** 61 - 1),
                           ((1, 1, 1), 3 ** 30), ((2, 2), 2 ** 61 - 1))]
    chain = LaurentChunk({Monomial.var("g", j): w for j, w in enumerate(ws)},
                         Window.of(g=(0, 3)), FockVector.zero(T))
    ed = exp_D_chunk(chain, "g", 3, cap, c)
    pieces = [[w] for w in ws]
    for j in range(4):
        for piece in pieces[:j]:
            piece.append(_reference_D(piece[-1], cap, c).scale(
                Rat(1, len(piece))))
        assert ed.get(Monomial.var("g", j)) == sum(
            (piece[-1] for piece in pieces[:j + 1]), FockVector.zero(T))


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
