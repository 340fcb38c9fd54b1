import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qvertex.engine import jing_Q
from qvertex.fock import FockVector
from qvertex.errors import TooFewVariables, TruncationMismatch
from qvertex.rationals import Rat
from qvertex.scalars import TScalar, tp, tp_mul, tp_trim
from qvertex.symfunc import (Partition, SymFuncP, hl_q_dominant, orbit_sum,
                             p_to_x_dominant, partitions_of, partitions_up_to,
                             scalar, xpoly_monomial_coeffs)
from reference import (b_lambda, dominance_leq, eval_t, hl_p_dominant,
                       hl_p_oracle, hl_q_oracle, p_to_x, schur_bialternant,
                       schur_x, tp_eval, xpoly, xpoly_terms)


def test_partition_basic():
    lam = Partition((3, 1, 1))
    assert lam.weight == 5
    assert lam.length == 3
    assert lam.mult(1) == 2
    assert lam.replace_part(1, 2) == Partition((3, 2, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_counts():
    assert len(list(partitions_of(6))) == 11
    # 29 nonempty partitions of weight 1..6
    assert len(list(partitions_up_to(6))) == 30


def test_dominance():
    assert dominance_leq(Partition((1, 1, 1)), Partition((3,)))
    assert not dominance_leq(Partition((3,)), Partition((1, 1, 1)))


def test_symfunc_ring():
    T = 2
    p1 = SymFuncP.p(1, T)
    p2 = SymFuncP.p(2, T)
    sq = p1 * p1
    assert sq.terms[Partition((1, 1))] == SymFuncP.one(T)
    assert (sq - sq).is_zero()
    assert (p1 * p2).terms[Partition((2, 1))] == SymFuncP.one(T)


def test_symfunc_cap_is_quotient():
    # weight_truncate is the quotient map: it kills p_2 p_2 at cap 3 and
    # commutes with sums and products
    cap, T = 3, 1
    p1, p2 = SymFuncP.p(1, T), SymFuncP.p(2, T)
    assert (p2 * p2).weight_truncate(cap).is_zero()
    f, g = p1 + p2 * p1, p2 - p1 * p1 * p1
    fc, gc = f.weight_truncate(cap), g.weight_truncate(cap)
    assert (f + g).weight_truncate(cap) == fc + gc
    assert (f * g).weight_truncate(cap) == (fc * gc).weight_truncate(cap)


def test_symfunc_config_mismatch():
    a = SymFuncP.p(1, 2)
    b = SymFuncP.p(1, 3)
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * b


def test_p_to_x_examples():
    T = 1
    p1 = SymFuncP.p(1, T)
    p2 = SymFuncP.p(2, T)
    assert p_to_x(p1, 2) == xpoly(2, {(1, 0): tp(1), (0, 1): tp(1)})
    assert p_to_x(p1 * p1 - p2, 2) == xpoly(2, {(1, 1): tp(2)})
    f = p1 * scalar(tp(1, -1), T)
    expect = xpoly(3, {(1, 0, 0): tp(1, -1), (0, 1, 0): tp(1, -1),
                       (0, 0, 1): tp(1, -1)})
    assert p_to_x(f, 3) == expect


def test_hl_p_small():
    assert hl_p_oracle(Partition((1,)), 2) == xpoly(
        2, {(1, 0): tp(1), (0, 1): tp(1)})
    assert hl_p_oracle(Partition((1, 1)), 2) == xpoly(2, {(1, 1): tp(1)})
    assert hl_p_oracle(Partition(), 3) == xpoly(3, {(0, 0, 0): tp(1)})


def test_hl_p_21_leading_coefficient():
    coeffs = xpoly_monomial_coeffs(hl_p_oracle(Partition((2, 1)), 3))
    assert coeffs[Partition((2, 1))] == tp(1)
    # the only other orbit is (1,1,1); classical value (1-t)(2+t)
    assert coeffs[Partition((1, 1, 1))] == tp_mul(tp(1, -1), tp(2, 1))


def test_b_lambda():
    assert b_lambda(Partition((1,))) == tp(1, -1)
    assert b_lambda(Partition((1, 1))) == tp_mul(tp(1, -1), tp(1, 0, -1))
    assert b_lambda(Partition((2, 1))) == tp_mul(tp(1, -1), tp(1, -1))


def test_hl_q_small():
    q1 = hl_q_oracle(Partition((1,)), 2)
    assert q1 == xpoly(2, {(1, 0): tp(1, -1), (0, 1): tp(1, -1)})
    q11 = hl_q_oracle(Partition((1, 1)), 2)
    b = tp_mul(tp(1, -1), tp(1, 0, -1))
    assert q11 == xpoly(2, {(1, 1): b})


def test_hl_q_2_strip_weights_by_hand():
    # the tableaux 11, 22 and 12 of shape (2): the strips (2)/() and
    # (2)/(2) give phi = 1 - t and 1; the strips (1)/() and (2)/(1) give
    # 1 - t each, so Q_(2) = (1-t)(x1^2 + x2^2) + (1-t)^2 x1 x2
    q2 = hl_q_oracle(Partition((2,)), 2)
    assert q2 == xpoly(2, {(2, 0): tp(1, -1), (0, 2): tp(1, -1),
                           (1, 1): tp(1, -2, 1)})


def test_q_is_b_times_p():
    # the phi and psi sums are built independently; Q = b_lambda(t) P
    for lam in partitions_up_to(6):
        b = b_lambda(lam)
        for n in (lam.weight, lam.weight + 1):
            p, q = hl_p_dominant(lam, n), hl_q_dominant(lam, n)
            assert q.num == {e: tp_mul(c, b) for e, c in p.num.items()}, lam
            assert p.den == q.den == 1


def test_hl_q_2_at_t0_is_h2():
    # by hand: s_(2) = h_2 = x1^2 + x1 x2 + x2^2
    q2 = hl_q_oracle(Partition((2,)), 2)
    assert eval_t(q2, 0) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_too_few_variables():
    with pytest.raises(TooFewVariables):
        hl_q_dominant(Partition((1, 1, 1)), 2)
    with pytest.raises(TooFewVariables):
        p_to_x_dominant(SymFuncP.p(1, 0), 0)


def test_triangularity():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        n = max(lam.weight, lam.length)
        coeffs = xpoly_monomial_coeffs(hl_p_oracle(lam, n))
        assert coeffs[lam] == tp(1)
        for mu in coeffs:
            assert dominance_leq(mu, lam)


def test_schur_specialization_at_t0():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        n = max(lam.weight, lam.length)
        p0 = eval_t(hl_p_oracle(lam, n), 0)
        s = {e: tp_eval(c, 1) for e, c in xpoly_terms(schur_bialternant(lam, n)).items()}
        assert p0 == s


def test_branching_vs_bialternant():
    for lam in partitions_up_to(4):
        for n in range(max(1, lam.length), 5):
            lhs = xpoly_terms(schur_x(lam, n))
            rhs = xpoly_terms(schur_bialternant(lam, n))
            assert lhs == rhs


def test_vanishing_at_t1():
    for lam in partitions_up_to(6):
        if not lam:
            continue
        q = hl_q_oracle(lam, lam.weight)
        assert eval_t(q, 1) == {}


def test_stability():
    # setting x_{n+1} = 0 in P_lambda(x_1..x_{n+1}) gives P_lambda(x_1..x_n),
    # up to n + 1 = 8
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for n in range(max(lam.weight, lam.length), 8):
            big = hl_p_oracle(lam, n + 1)
            dropped = {}
            for e, c in xpoly_terms(big).items():
                if e[-1] == 0:
                    dropped[e[:-1]] = c
            assert dropped == xpoly_terms(hl_p_oracle(lam, n))


# ---------------------------------------------------------------------------
# both sides of the Hall-Littlewood comparison, pinned


DATA = Path(__file__).resolve().parent / "data"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_hl_oracle_sides_golden():
    # one line per partition of weight <= 6: lambda, n, then the sha256 of
    # str() of the engine side and of the oracle side at t-order 24
    rows = (DATA / "hl_oracle_sha256.txt").read_text().splitlines()
    assert len(rows) == 30
    for row in rows:
        text, n, lhs_sha, rhs_sha = row.split()
        lam = Partition(() if text == "-" else map(int, text.split(",")))
        n = int(n)
        assert _sha(str(p_to_x(jing_Q(lam, 24), n))) == lhs_sha, lam
        assert _sha(str(hl_q_oracle(lam, n).t_truncate(24))) == rhs_sha, lam


def test_orbit_sum_spreads_each_row_over_distinct_permutations():
    p = xpoly(3, {(2, 1, 1): tp(1, 2), (1, 1, 1): tp(3), (3, 0, 0): tp(5)})
    full = orbit_sum(p)
    assert full == xpoly(3, {
        (2, 1, 1): tp(1, 2), (1, 2, 1): tp(1, 2), (1, 1, 2): tp(1, 2),
        (1, 1, 1): tp(3),
        (3, 0, 0): tp(5), (0, 3, 0): tp(5), (0, 0, 3): tp(5)})


# ---------------------------------------------------------------------------
# p_to_x against a naive rational reference


def _coeffs(c):
    """The T+1 t-coefficients of a weight-0 SymFuncP as Fractions."""
    row = c.num.get(Partition(), ())
    return tuple(Fraction(x, c.den)
                 for x in row + (0,) * (c.t_order + 1 - len(row)))


def _p_to_x_reference(f, nvars):
    """Expand each p_lambda as a sum over all choices of one variable per
    part, accumulating Fraction coefficient lists."""
    out = {}
    for lam, c in f.terms.items():
        coeffs = _coeffs(c)
        for choice in itertools.product(range(nvars), repeat=len(lam)):
            e = [0] * nvars
            for part, i in zip(lam, choice):
                e[i] += part
            row = out.setdefault(tuple(e), [Fraction(0)] * len(coeffs))
            for k, x in enumerate(coeffs):
                row[k] += x
    trimmed = {e: tp_trim(tuple(row)) for e, row in out.items()}
    return {e: row for e, row in trimmed.items() if row}


def _random_symfunc(rng, top, T):
    terms = {}
    for lam in partitions_up_to(top):
        if rng.random() < 0.5:
            continue
        coeffs = []
        for _ in range(T + 1):
            if rng.random() < 0.3:
                coeffs.append(Fraction(0))
            else:
                coeffs.append(Fraction(rng.randint(-9, 9),
                                       rng.choice((1, 2, 3, 4, 6, 7, 12))))
        terms[lam] = TScalar(tuple(coeffs))
    return _sym(terms, T)


@pytest.mark.parametrize("T", [0, 1, 24])
def test_p_to_x_matches_rational_reference(T):
    rng = random.Random(4100 + T)
    p1, p2 = SymFuncP.p(1, T), SymFuncP.p(2, T)
    half = scalar((Rat(1, 2),), T)
    cases = [
        # p_1^2 - p_2 vanishes in one variable and keeps only the mixed
        # monomial 2 x_i x_j in more
        (p1 * p1 - p2, 1), (p1 * p1 - p2, 3),
        ((p1 * p1 - p2) * half, 2),
        (SymFuncP.zero(T), 2),
        (SymFuncP.one(T) * scalar(tp(*[0] * T, 1), T), 4),
    ]
    for _ in range(12):
        cases.append((_random_symfunc(rng, 5, T), rng.randint(1, 6)))
    for f, n in cases:
        got = p_to_x(f, n)
        ref = _p_to_x_reference(f, n)
        # the dominant part holds the weakly decreasing exponent vectors
        assert p_to_x_dominant(f, n) == xpoly(n, {
            e: c for e, c in ref.items() if list(e) == sorted(e)[::-1]})
        assert xpoly_terms(got) == ref
        assert got == xpoly(n, ref)
        assert str(got) == str(xpoly(n, ref))
        # canonical: nonzero trimmed numerators over a reduced denominator
        assert got.den > 0
        assert all(c and c[-1] for c in got.num.values())
        assert math.gcd(got.den, *(x for c in got.num.values()
                                   for x in c)) == 1
    assert p_to_x(p1 * p1 - p2, 1).is_zero()


# ---------------------------------------------------------------------------
# SymFuncP on integer rows against a {partition: TScalar} reference


def _sym(terms, T):
    """The SymFuncP with the TScalar coefficients terms."""
    den = math.lcm(*(c.den for c in terms.values()))
    return SymFuncP({lam: tuple(x * (den // c.den) for x in c.num)
                     for lam, c in terms.items()}, den, T)


def _weight0(c, T):
    """The TScalar c as a weight-0 SymFuncP."""
    return _sym({Partition(): c}, T)


def _ref_clean(terms):
    return {lam: c for lam, c in terms.items() if not c.is_zero()}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for lam, c in b.items():
        c = c if sign == 1 else -c
        out[lam] = out[lam] + c if lam in out else c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for lam, c in a.items():
        for mu, d in b.items():
            nu = Partition(sorted(lam + mu, reverse=True))
            out[nu] = out[nu] + c * d if nu in out else c * d
    return _ref_clean(out)


def _ref_str(terms):
    if not terms:
        return "0"
    return " + ".join(f"({terms[lam]})*{'p' + str(lam) if lam else '1'}"
                      for lam in sorted(terms))


def _random_series(rng, T, dens):
    """A TScalar of random degree <= T, so rows differ in length."""
    deg = rng.randrange(T + 1)
    coeffs = [Fraction(0) if rng.random() < 0.3 else
              Fraction(rng.randint(-9, 9), rng.choice(dens))
              for _ in range(deg + 1)]
    return TScalar(tuple(coeffs) + (Fraction(0),) * (T - deg))


def _random_terms(rng, top, T, dens):
    return {lam: _random_series(rng, T, dens)
            for lam in partitions_up_to(top) if rng.random() < 0.5}


def _assert_matches(f, ref, T):
    """f is canonical, at t-order T, and equals the reference ref."""
    assert f.t_order == T
    assert f.den > 0
    for row in f.num.values():
        assert type(row) is tuple and 0 < len(row) <= T + 1 and row[-1]
        assert all(type(x) is int for x in row)
    assert math.gcd(f.den, *(x for row in f.num.values() for x in row)) == 1
    assert f.terms == {lam: _weight0(c, T) for lam, c in ref.items()}
    vals = {lam: tp_eval(c.coeffs, Rat(1, 3)) for lam, c in ref.items()}
    assert eval_t(f, Rat(1, 3)) == {lam: v for lam, v in vals.items() if v}
    assert f == _sym(ref, T)
    assert str(f) == _ref_str(ref)
    for lam in partitions_up_to(f.max_weight() + 1):
        assert f.terms.get(lam, SymFuncP.zero(T)) \
            == _weight0(ref.get(lam, TScalar.zero(T)), T)


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_symfunc_matches_tscalar_reference(T):
    rng = random.Random(5200 + T)
    top = 5

    def check(f, ref):
        _assert_matches(f, ref, T)

    # (1/2) p_1 + (1/3 + t^T/4) p_2 plus -(1/3 + t^T/4) p_2 cancels to one
    # row over 2, and 1 + t^T added into 1 needs the longer row
    p1, p2 = Partition((1,)), Partition((2,))
    tail = TScalar.t_power(T, T)
    x = {p1: TScalar.from_rat(Rat(1, 2), T),
         p2: TScalar.from_rat(Rat(1, 3), T) + tail.scale(Rat(1, 4))}
    f = _sym(x, T)
    half = f + _sym({p2: -x[p2]}, T)
    check(half, {p1: x[p1]})
    assert half.den == 2
    check(f - f, {})
    one = SymFuncP.p(1, T)
    check(one + _sym({p1: TScalar.one(T) + tail}, T),
          {p1: TScalar.one(T) * 2 + tail})

    # a, b and s draw denominators from different sets, so sums and
    # products bring them over a common one
    for _ in range(6):
        a = _random_terms(rng, top, T, (1, 2, 4, 6))
        b = _random_terms(rng, top, T, (1, 3, 5, 9))
        fa, fb = _sym(a, T), _sym(b, T)
        a, b = _ref_clean(a), _ref_clean(b)
        check(fa, a)
        check(fa + fb, _ref_add(a, b))
        check(fa - fb, _ref_add(a, b, -1))
        check(-fa, {lam: -c for lam, c in a.items()})
        check(fa * fb, _ref_mul(a, b))
        k = rng.choice((-6, -1, 0, 2, 5))
        q = Rat(rng.randint(-9, 9), rng.randint(1, 12))
        s = _random_series(rng, T, (1, 7, 14))
        check(fa.scale(k), _ref_clean({lam: c.scale(k)
                                       for lam, c in a.items()}))
        check(fa.scale(q), _ref_clean({lam: c.scale(q)
                                       for lam, c in a.items()}))
        check(fa * _weight0(s, T),
              _ref_clean({lam: c * s for lam, c in a.items()}))
        cut = rng.randrange(T + 1)
        _assert_matches(fa.t_truncate(cut),
                        _ref_clean({lam: c.truncate(cut)
                                    for lam, c in a.items()}), cut)
        low = rng.randrange(top + 1)
        w = FockVector({0: fa, 2: fb}, T).weight_truncate(low)
        for charge, ref in ((0, a), (2, b)):
            _assert_matches(w.component(charge),
                            {lam: c for lam, c in ref.items()
                             if lam.weight <= low}, T)
        assert (fa == fb) == (a == b)
        assert fa == _sym(a, T) and not fa != _sym(a, T)


@pytest.mark.parametrize("T", [0, 3, 24])
def test_terms_rebuild_the_function(T):
    # each coefficient read through terms is a weight-0 SymFuncP, and
    # sum_lambda terms[lambda] * p_lambda gives the function back
    rng = random.Random(5300 + T)
    for _ in range(8):
        f = _sym(_random_terms(rng, 5, T, (1, 2, 3, 5, 12)), T)
        assert len(f.terms) == len(f.num)
        total = SymFuncP.zero(T)
        for lam in f.terms:
            c = f.terms[lam]
            assert c.t_order == T and set(c.num) <= {Partition()}
            p_lam = SymFuncP.one(T)
            for part in lam:
                p_lam = p_lam * SymFuncP.p(part, T)
            total = total + c * p_lam
        assert total == f
