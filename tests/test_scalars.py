import math
import os
import random

import pytest

from qvertex.engine import evaluate, x2_closed_form
from qvertex.errors import TruncationMismatch, ZeroConstantTerm
from qvertex.laurent import Window, region
from qvertex.rationals import Rat
from qvertex.scalars import (TScalar, tp, tp_add, tp_bracket_factorial,
                             tp_divexact, tp_eval, tp_mul, tp_phi, tp_pow,
                             tp_str, tp_trim, ts_invert)
from qvertex.symfunc import Partition

DATA = os.path.join(os.path.dirname(__file__), "data")


def ts(*coeffs):
    return TScalar(tuple(Rat(c) for c in coeffs))


def test_invert_one_minus_t():
    s = TScalar.from_tpoly(tp(1, -1), 3)
    assert ts_invert(s) == ts(1, 1, 1, 1)


def test_invert_with_half_coefficient():
    # (1 - t/2)^{-1} = 1 + t/2 + t^2/4 + ...
    s = TScalar.from_tpoly(tp(1, Rat(-1, 2)), 4)
    inv = ts_invert(s)
    assert inv == ts(1, Rat(1, 2), Rat(1, 4), Rat(1, 8), Rat(1, 16))


def test_invert_multiply_back():
    s = TScalar.from_tpoly(tp(2, 3, -1, 5), 6)
    assert ts_invert(s) * s == TScalar.one(6)


def test_invert_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        ts_invert(TScalar.from_tpoly(tp(0, 1), 3))


def test_invert_random_units():
    rng = random.Random(20240817)
    for _ in range(200):
        T = rng.randrange(0, 9)
        coeffs = [rng.randrange(-9, 10) for _ in range(T + 1)]
        coeffs[0] = rng.choice([c for c in range(-9, 10) if c])
        s = TScalar(tuple(Rat(c) for c in coeffs))
        assert s * ts_invert(s) == TScalar.one(T)


def test_truncation_mismatch_rejected():
    a = TScalar.one(3)
    b = TScalar.one(4)
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * b
    with pytest.raises(TruncationMismatch):
        a == b


def test_quotient_ring_closure():
    # t^3 * t^3 = 0 in Q[t]/(t^5)
    a = TScalar.t_power(3, 4)
    assert (a * a).is_zero()


def test_truncate_is_ring_map():
    rng = random.Random(7)
    for _ in range(50):
        a = TScalar(tuple(Rat(rng.randrange(-5, 6)) for _ in range(7)))
        b = TScalar(tuple(Rat(rng.randrange(-5, 6)) for _ in range(7)))
        assert (a * b).truncate(3) == a.truncate(3) * b.truncate(3)
        assert (a + b).truncate(3) == a.truncate(3) + b.truncate(3)


def test_scalar_coercion():
    a = TScalar.from_tpoly(tp(1, 1), 2)
    assert a + 1 == ts(2, 1, 0)
    assert 2 * a == ts(2, 2, 0)
    assert a - Rat(1, 2) == ts(Rat(1, 2), 1, 0)


def test_tpoly_roundtrip():
    a = tp(1, 0, -2)
    b = tp(0, 3)
    assert tp_mul(a, b) == tp(0, 3, 0, -6)
    assert tp_add(a, tp(-1, 0, 2)) == ()
    assert tp_eval(tp_pow(tp(1, 1), 3), 1) == 8


def test_tpoly_divexact():
    num = tp_mul(tp(1, -1), tp(1, 1, 1))
    assert tp_divexact(num, tp(1, -1)) == tp(1, 1, 1)
    with pytest.raises(ValueError):
        tp_divexact(tp(1, 1), tp(1, -1))


def test_tpoly_keeps_integers():
    # the Hall-Littlewood oracle relies on these staying in Z[t]
    for p in (tp_mul((1, 0, -1), (2, 3)), tp_phi(3), tp_bracket_factorial(4),
              tp_divexact((1, 0, -1), (1, 1)), tp_divexact((), (1, 1))):
        assert all(type(c) is int for c in p)
    assert tp_divexact((1, 0, -1), (1, 1)) == (1, -1)
    assert tp_bracket_factorial(4)[-1] == 1
    with pytest.raises(ValueError, match="inexact"):
        tp_divexact((1, 0, 1), (1, 1))
    with pytest.raises(ZeroDivisionError):
        tp_divexact((1,), ())


def test_phi_and_bracket_factorial():
    # phi_2 = (1-t)(1-t^2), [3]_t! = (1+t)(1+t+t^2)
    assert tp_phi(2) == tp(1, -1, -1, 1)
    assert tp_bracket_factorial(3) == tp_mul(tp(1, 1), tp(1, 1, 1))
    assert tp_eval(tp_phi(3), 1) == 0


def test_str_rendering():
    assert tp_str(tp(1, -1)) == "1 - t"
    assert str(TScalar.from_tpoly(tp(0, 0, Rat(3, 2)), 4)) == "3/2*t^2"


# ---------------------------------------------------------------------------
# differential test: TScalar against tuples of exact rationals


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b):
    n = len(a)
    out = [Rat(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def ref_invert(a):
    n = len(a)
    b = [Rat(0)] * n
    b[0] = 1 / a[0]
    for k in range(1, n):
        b[k] = -sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0]
    return tuple(b)


def random_series(rng, n):
    """Mixed denominators, a share of zero coefficients and of series that
    are polynomials of low degree or zero."""
    dens = (1, 1, 2, 3, 4, 6, 7, 9, 12, 25, 2 ** 40)
    shape = rng.random()
    if shape < 0.05:
        return (Rat(0),) * n
    deg = n if shape < 0.6 else rng.randrange(1, n + 1)
    out = []
    for k in range(n):
        if k >= deg or rng.random() < 0.3:
            out.append(Rat(0))
        else:
            out.append(Rat(rng.randrange(-30, 31), rng.choice(dens)))
    return tuple(out)


def assert_matches(s, ref):
    """s is canonical and equals the rational tuple ref."""
    assert len(s.num) == len(ref)
    assert s.den > 0
    assert math.gcd(s.den, *s.num) == 1
    assert all(isinstance(x, int) for x in s.num)
    assert s.coeffs == ref
    assert all(type(c) is Rat for c in s.coeffs)
    assert s == TScalar(ref)
    assert str(s) == tp_str(tp_trim(ref))


@pytest.mark.parametrize("T", [0, 1, 8, 24])
def test_tscalar_matches_rational_reference(T):
    rng = random.Random(1000 + T)
    n = T + 1
    for _ in range(150):
        a, b = random_series(rng, n), random_series(rng, n)
        sa, sb = TScalar(a), TScalar(b)
        assert_matches(sa, a)
        assert_matches(sa + sb, ref_add(a, b))
        assert_matches(sa - sb, ref_sub(a, b))
        assert_matches(sa - sa, (Rat(0),) * n)
        assert_matches(-sa, tuple(-x for x in a))
        assert_matches(sa * sb, ref_mul(a, b))
        k = rng.randrange(-6, 7)
        q = Rat(rng.randrange(-9, 10), rng.randrange(1, 13))
        assert_matches(sa.scale(k), tuple(x * k for x in a))
        assert_matches(sa.scale(q), tuple(x * q for x in a))
        assert_matches(k * sa, tuple(x * k for x in a))
        assert_matches(sa * q, tuple(x * q for x in a))
        assert_matches(sa + q, (a[0] + q,) + a[1:])
        assert_matches(q - sa, (q - a[0],) + tuple(-x for x in a[1:]))
        cut = rng.randrange(0, n)
        assert_matches(sa.truncate(cut), a[: cut + 1])
        assert (sa == sb) == (a == b)
        assert sa == TScalar(a) and not sa != TScalar(a)
        assert sa.is_zero() == (not any(a))
        assert sa.constant_term() == a[0]
        if a[0]:
            assert_matches(ts_invert(sa), ref_invert(a))


def test_tscalar_constructors_are_canonical():
    for T in (0, 3):
        for s, ref in ((TScalar.zero(T), (0,) + (0,) * T),
                       (TScalar.one(T), (1,) + (0,) * T),
                       (TScalar.from_rat(Rat(-4, 6), T),
                        (Rat(-2, 3),) + (0,) * T),
                       (TScalar.from_tpoly(tp(Rat(1, 2), 0, 3, 5, 7), T),
                        (Rat(1, 2), 0, 3, 5, 7)[: T + 1]
                        + (0,) * max(0, T - 4)),
                       (TScalar.t_power(T, T), (0,) * T + (1,))):
            assert_matches(s, tuple(Rat(c) for c in ref))


def test_evaluate_t24_golden():
    # every coefficient of X(2 x 1) at T=24, cap 8, |e| <= 5, printed as
    # its t-polynomial; recorded as str() of the tuple-of-rationals TScalar
    with open(os.path.join(DATA, "evaluate_x2_charges21_t24.txt")) as fh:
        expect = fh.read().splitlines()
    ch = evaluate(x2_closed_form(2, 1), region("z1", "z2", "g"),
                  Window.of(z1=(-5, 5), z2=(-5, 5)), 8, 24)
    got = []
    for m in sorted(ch.terms):
        v = ch.terms[m]
        for q in sorted(v.components):
            f = v.components[q]
            for lam in sorted(f.terms):
                c = f.terms[lam]
                row = tuple(Rat(x, c.den) for x in c.num[Partition()])
                got.append(f"{tuple(m)} {q} {list(lam)}: {tp_str(row)}")
    assert got == expect
