"""Acceptance gate.

Each criterion is pinned to explicit truncation parameters, compares exact
rational coefficients (tolerance zero), and prints one verdict line.  Run
with -s to see the verdicts as they happen.
"""

import functools

from qvertex.engine import (evaluate, jing_Q, r_factor, s_gamma, s_tau,
                            x2_closed_form, y_apply)
from qvertex.fock import FockVector, exp_D
from qvertex.laurent import (FactorProduct, Monomial, Window,
                             binom_expansion_terms, lform, region)
from qvertex.rationals import Rat
from qvertex.scalars import TScalar, tp, ts_invert
from qvertex.symfunc import p_to_x, partitions_up_to, schur_bialternant
from qvertex.verifier import (check_braided_commutativity,
                              check_braided_jacobi,
                              check_expansion_consistency,
                              check_hl_against_oracle,
                              check_translation_covariance, check_vacuum)

REG12 = region("z1", "z2", "g")
REG21 = region("z2", "z1", "g")


def acceptance(ac_id):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"{ac_id}: FAIL ({type(exc).__name__}: {exc})")
                raise
            print(f"{ac_id}: PASS ({detail})")
        return wrapper
    return deco


@acceptance("AC-1")
def test_ac01_hall_littlewood_oracle():
    r = check_hl_against_oracle(max_weight=6, t_order=24)
    assert r.passed and r.first_mismatch is None
    assert r.compared == 30
    assert r.elapsed < 60
    return f"30 partitions against the classical oracle, {r.elapsed:.2f}s"


@acceptance("AC-2")
def test_ac02_schur_degeneration():
    count = 0
    for lam in partitions_up_to(5):
        n = max(lam.weight, 1)
        assert p_to_x(jing_Q(lam, 0), n) == schur_bialternant(lam, n)
        count += 1
    assert count == 19
    return f"t=0 slice equals bialternant Schur for {count} partitions"


@acceptance("AC-3")
def test_ac03_t_one_vanishing():
    count = 0
    for lam in partitions_up_to(6):
        if lam.weight == 0:
            continue
        # degree of any coefficient is under n(lam)+|lam| <= 21 < 24, so the
        # truncated polynomials are the true ones and t=1 is an exact slice
        assert jing_Q(lam, 24).eval_t(Rat(1)) == {}
        count += 1
    assert count == 29
    return f"Q_lambda vanishes at t=1 for all {count} nonempty partitions"


@acceptance("AC-4")
def test_ac04_braided_commutativity():
    r = check_braided_commutativity(1, 1, t_order=4, window=6, degree_cap=8)
    assert r.passed and r.first_mismatch is None
    assert r.compared >= 100
    assert r.elapsed < 60
    return f"{r.compared} monomials at T=4, window 6, {r.elapsed:.2f}s"


@acceptance("AC-5")
def test_ac05_translation_covariance():
    r = check_translation_covariance(1, 1, t_order=3, g_order=3, window=5,
                                     degree_cap=9)
    assert r.passed and r.first_mismatch is None
    assert r.elapsed < 120
    # the scalar itself is the ratio of shifted prefactors
    lhs = s_gamma(1, 1).mul(r_factor("z1", "z2"))
    rhs = r_factor("z1", "z2").substitute(
        {"z1": ("z1", "g"), "z2": ("z2", "g")})
    win = Window.of(z1=(-6, 6), z2=(-6, 6), g=(0, 6))
    assert lhs.expand(REG12, win, 6).terms == rhs.expand(REG12, win, 6).terms
    return (f"{r.compared} monomials at T=3, G=3 and the shifted-prefactor "
            f"ratio at order 6, {r.elapsed:.2f}s")


@acceptance("AC-6")
def test_ac06_braided_jacobi():
    r = check_braided_jacobi(t_order=3, window=5, degree_cap=9)
    assert r.passed and r.first_mismatch is None
    assert r.compared >= 200
    assert r.elapsed < 300
    r0 = check_braided_jacobi(t_order=0, window=5, degree_cap=9)
    assert r0.passed
    return (f"{r.compared} monomials at T=3 and the classical t=0 slice, "
            f"{r.elapsed:.2f}s")


@acceptance("AC-7")
def test_ac07_vacuum_dictionary():
    r = check_vacuum()
    assert r.passed and r.first_mismatch is None
    cap, T = 8, 4
    ea = FockVector.exponential(1, T)
    lhs = exp_D(ea, "z1", 6, cap)
    rhs = y_apply(1, "z1", FockVector.vacuum(T), (0, 6), cap)
    for k in range(7):
        m = Monomial.var("z1", k)
        assert lhs.get(m) == rhs.get(m)
        assert not lhs.get(m).is_zero()
    return (f"vacuum axioms over {r.compared} monomials and "
            f"e^{{zD}}e^a = Y(e^a,z)1 through z^6 at T=4")


@acceptance("AC-8")
def test_ac08_expansion_dictionary():
    r = check_expansion_consistency(t_order=3, window=5, degree_cap=9)
    assert r.passed and r.first_mismatch is None
    return f"three-line region dictionary over {r.compared} monomials at T=3"


@acceptance("AC-9")
def test_ac09_infrastructure_properties():
    # delta as the difference of the two expansions of (x-y)^{-1}
    N = 8
    first = {(-1 - k, k): c for k, c in binom_expansion_terms(-1, Rat(-1), N)}
    second = {(k, -1 - k): -c
              for k, c in binom_expansion_terms(-1, Rat(-1), N)}
    delta = dict(first)
    for e, c in second.items():
        delta[e] = delta.get(e, Rat(0)) - c
    delta = {e: c for e, c in delta.items() if c}
    assert delta == {(-n - 1, n): Rat(1) for n in range(-N - 1, N + 1)}
    for m in range(-3, 4):
        residue = {e[1]: c for e, c in delta.items() if e[0] + m == -1}
        assert residue == {m: Rat(1)}

    # polynomials expand identically in either region order
    poly = FactorProduct.of(factors=(
        (lform((1, "z1"), (-1, "z2")), 2),
        (lform((1, "z1"), (-1, "z2", 1)), 1),
        (lform((2, "z2"), (1, "z1", 2)), 1)))
    win = Window.of(z1=(-6, 6), z2=(-6, 6))
    a = poly.expand(REG12, win, 4)
    b = poly.expand(REG21, win, 4)
    assert a.terms and a.terms == b.terms

    # unit inversion multiplies back to one
    for coeffs in ((1,), (1, -1), (2, 3, 0, 5), (-1, 0, 0, 7)):
        s = TScalar.from_tpoly(tp(*coeffs), 6)
        assert ts_invert(s) * s == TScalar.one(6)

    # the braided-commutativity material at T=2 is the t-prefix of T=4
    target = Window.of(z1=(-6, 6), z2=(-6, 6))
    form = x2_closed_form(1, 1)
    deep = evaluate(form, REG12, target, 8, 4)
    shallow = evaluate(form, REG12, target, 8, 2)
    assert len(deep.terms) >= 50
    for m, v in deep.terms.items():
        assert v.t_truncate(2) == shallow.get(m)
    for m, v in shallow.terms.items():
        assert deep.get(m).t_truncate(2) == v
    swin = Window.of(z1=(-8, 8), z2=(-8, 8))
    sc_deep = s_tau(1, 1, "z2", "z1").expand(REG12, swin, 4)
    sc_shallow = s_tau(1, 1, "z2", "z1").expand(REG12, swin, 2)
    for m, c in sc_deep.terms.items():
        assert c.t_truncate(2) == sc_shallow.get(m)
    r2 = check_braided_commutativity(1, 1, t_order=2, window=6, degree_cap=8)
    assert r2.passed
    return ("delta residue, region-independent polynomials, unit inversion, "
            "monotone t-prefix stability")


@acceptance("AC-10")
def test_ac10_mutation_sensitivity():
    broken = (
        check_braided_commutativity(1, 1, t_order=2, window=4, degree_cap=8,
                                    mutate_sign=True),
        check_braided_jacobi(t_order=2, window=3, degree_cap=8,
                             drop_s_gamma=True),
        check_vacuum(t_order=3, window=6, degree_cap=8, d_charge_coeff=tp(1)),
    )
    for r in broken:
        assert not r.passed
        assert "mutation" in r.params
        assert r.first_mismatch is not None
        _, lhs, rhs = r.first_mismatch
        assert lhs != rhs
    return ("s-tau sign flip, dropped translation scalar, perturbed D "
            "coefficient each fail with a recorded witness")
