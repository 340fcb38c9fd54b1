"""Identity checks: pass at modest orders, fail under shipped mutations,
and report deterministically."""

import pytest

from qvertex import verifier
from qvertex.engine import jing_Q
from qvertex.errors import (DegreeCapUnderflow, EmptyComparison,
                            TruncationMismatch)
from qvertex.rationals import Rat
from qvertex.scalars import TScalar, tp
from qvertex.symfunc import Partition, SymFuncP
from qvertex.verifier import (CHECK_IDS, CheckReport, _Comparator,
                              check_braided_commutativity,
                              check_braided_jacobi, check_classical_limit,
                              check_expansion_consistency,
                              check_hl_against_oracle,
                              check_translation_covariance, check_vacuum,
                              run_check)


def _strip(report):
    d = report.as_dict()
    d.pop("elapsed")
    return d


# ---------------------------------------------------------------------------
# each check passes


def test_vacuum_passes():
    r = check_vacuum(t_order=3, window=6, degree_cap=8)
    assert r.passed and r.first_mismatch is None
    assert r.compared >= 7
    assert r.check_id == "vacuum"


def test_commutativity_passes():
    r = check_braided_commutativity(1, 1, t_order=2, window=4, degree_cap=8)
    assert r.passed
    assert r.compared == 81


def test_commutativity_charge_pairs():
    for a, b in [(1, 0), (0, 1), (2, 1)]:
        r = check_braided_commutativity(a, b, t_order=2, window=3,
                                        degree_cap=8)
        assert r.passed, (a, b)


def test_commutativity_classical_slice():
    # t = 0 braiding scalar is -1: exact anticommutativity
    r = check_braided_commutativity(1, 1, t_order=0, window=4, degree_cap=8)
    assert r.passed


def test_translation_passes():
    r = check_translation_covariance(1, 1, t_order=2, g_order=2, window=3,
                                     degree_cap=8)
    assert r.passed
    assert r.params["G"] == 2


def test_translation_classical_slice():
    r = check_translation_covariance(1, 1, t_order=0, g_order=3, window=3,
                                     degree_cap=8)
    assert r.passed


def test_expansion_passes():
    r = check_expansion_consistency(t_order=2, window=3, degree_cap=8)
    assert r.passed


def test_expansion_classical_slice():
    r = check_expansion_consistency(t_order=0, window=3, degree_cap=8)
    assert r.passed


def test_expansion_deep_t_order():
    # t-order past degree_cap - window: the swapped operator product needs
    # intermediates above the comparison cap (contraction leaks them back)
    r = check_expansion_consistency(t_order=8, window=5, degree_cap=9)
    assert r.passed


def test_jacobi_passes():
    r = check_braided_jacobi(t_order=2, window=3, degree_cap=8)
    assert r.passed
    assert r.compared == 343


def test_jacobi_classical_slice():
    r = check_braided_jacobi(t_order=0, window=3, degree_cap=8)
    assert r.passed


def test_classical_limit_passes():
    r = check_classical_limit(window=4, degree_cap=8)
    assert r.passed


def test_classical_limit_cap_bound():
    # passes exactly where degree_cap >= max(2, window + 1); below that it
    # gave a false FAIL before the guard, so the check refuses to run
    for W in range(9):
        for cap in range(max(10, W + 4)):
            if cap >= max(2, W + 1):
                assert check_classical_limit(window=W,
                                             degree_cap=cap).passed
            else:
                with pytest.raises(DegreeCapUnderflow,
                                   match=f">= {max(2, W + 1)}"):
                    check_classical_limit(window=W, degree_cap=cap)


def test_hl_oracle_passes():
    r = check_hl_against_oracle(max_weight=4, t_order=24)
    assert r.passed
    # partitions of 0..4 inclusive
    assert r.compared == 12


def test_hl_oracle_needs_deep_truncation():
    with pytest.raises(TruncationMismatch):
        check_hl_against_oracle(max_weight=3, t_order=8)


# ---------------------------------------------------------------------------
# mutation sensitivity


def test_mutated_braiding_sign_fails():
    r = check_braided_commutativity(1, 1, t_order=2, window=4, degree_cap=8,
                                    mutate_sign=True)
    assert not r.passed
    m, lhs, rhs = r.first_mismatch
    assert lhs != rhs
    assert r.params["mutation"] == "s-tau-sign"


def test_mutated_jacobi_without_translation_scalar_fails():
    r = check_braided_jacobi(t_order=2, window=3, degree_cap=8,
                             drop_s_gamma=True)
    assert not r.passed
    assert r.first_mismatch is not None
    # the dropped factor is invisible at t = 0, so the identity still
    # holds on the classical slice
    r0 = check_braided_jacobi(t_order=0, window=3, degree_cap=8,
                              drop_s_gamma=True)
    assert r0.passed


def test_mutated_charge_term_of_D_fails():
    r = check_vacuum(t_order=3, window=6, degree_cap=8,
                     d_charge_coeff=tp(1))
    assert not r.passed
    assert r.first_mismatch[0] == "z1^1"


def test_mutated_translation_fails():
    r = check_translation_covariance(1, 1, t_order=2, g_order=2, window=3,
                                     degree_cap=8, d_charge_coeff=tp(1))
    assert not r.passed


@pytest.mark.parametrize("lam, mu, k, den", [
    ((2, 1), (3,), 24, 7),     # top t-order, rational bump
    ((1, 1), (1, 1), 0, 1),
    ((3,), (2, 1), 5, 1),      # same support and denominator
])
def test_hl_oracle_detects_perturbed_coefficient(monkeypatch, lam, mu, k,
                                                 den):
    def perturbed(partition, t_order):
        f = jing_Q(partition, t_order)
        if tuple(partition) != lam:
            return f
        bump = TScalar.t_power(k, t_order).scale(Rat(1, den))
        terms = dict(f.terms)
        terms[Partition(mu)] = f.coefficient(Partition(mu)) + bump
        return SymFuncP(terms, f.degree_cap, f.t_order)

    monkeypatch.setattr(verifier, "jing_Q", perturbed)
    r = check_hl_against_oracle(max_weight=3, t_order=24)
    assert not r.passed
    label, lhs, rhs = r.first_mismatch
    assert label == f"Q_{lam}"
    assert lhs != rhs


# Exact mutation reports, pinned byte for byte: together they exercise the
# single-variable E+ slots, the (z2, z3) slot of the Jacobi translate and
# the (z1, g) / (z2, g) slots of the translation check.
GOLDEN_MUTATIONS = {
    "s-tau-sign": (
        lambda: check_braided_commutativity(1, 1, t_order=2, window=4,
                                            degree_cap=8, mutate_sign=True),
        {"check_id": "braided-commutativity",
         "params": {"T": 2, "window": 4, "degree_cap": 8, "charges": [1, 1],
                    "mutation": "s-tau-sign"},
         "compared": 81, "passed": False,
         "first_mismatch": {"monomial": "z1^-2 z2^3",
                            "lhs": "[(-t^2)*1] * e^2a",
                            "rhs": "[(t^2)*1] * e^2a"}}),
    "jacobi-drop-s-gamma": (
        lambda: check_braided_jacobi(t_order=2, window=3, degree_cap=8,
                                     drop_s_gamma=True),
        {"check_id": "jacobi",
         "params": {"T": 2, "window": 3, "degree_cap": 8,
                    "mutation": "jacobi-drop-s-gamma"},
         "compared": 343, "passed": False,
         "first_mismatch": {"monomial": "z1^-3 z2^2 z3^3",
                            "lhs": "[(3 + t)*1] * e^3a",
                            "rhs": "[(3)*1] * e^3a"}}),
    "vacuum-d-charge": (
        lambda: check_vacuum(t_order=3, window=6, degree_cap=8,
                             d_charge_coeff=tp(1)),
        {"check_id": "vacuum",
         "params": {"T": 3, "window": 6, "degree_cap": 8,
                    "charges": [[1, 0], [0, 1], [0, 0]],
                    "mutation": "d-charge-coeff"},
         "compared": 22, "passed": False,
         "first_mismatch": {"monomial": "z1^1",
                            "lhs": "[(1 - t)*p[1]] * e^1a",
                            "rhs": "[(1)*p[1]] * e^1a"}}),
    "translation-d-charge": (
        lambda: check_translation_covariance(
            1, 1, t_order=2, g_order=2, window=3, degree_cap=6,
            d_charge_coeff=tp(1, -2)),
        {"check_id": "translation",
         "params": {"T": 2, "G": 2, "window": 3, "degree_cap": 6,
                    "charges": [1, 1], "mutation": "d-charge-coeff"},
         "compared": 147, "passed": False,
         "first_mismatch": {"monomial": "z1^-2 z2^2 g^2",
                            "lhs": "[(3*t - 11*t^2)*p[1]] * e^2a",
                            "rhs": "[(3*t - 9*t^2)*p[1]] * e^2a"}}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MUTATIONS))
def test_mutation_report_golden(name):
    run, expected = GOLDEN_MUTATIONS[name]
    assert _strip(run()) == expected


# ---------------------------------------------------------------------------
# report contract


def test_reports_are_deterministic():
    a = check_braided_commutativity(1, 1, t_order=2, window=3, degree_cap=8)
    b = check_braided_commutativity(1, 1, t_order=2, window=3, degree_cap=8)
    assert _strip(a) == _strip(b)


def test_report_dict_shape():
    r = check_vacuum(t_order=2, window=3, degree_cap=6)
    d = r.as_dict()
    assert set(d) == {"check_id", "params", "compared", "passed",
                      "first_mismatch", "elapsed"}
    assert d["first_mismatch"] is None
    bad = check_vacuum(t_order=2, window=3, degree_cap=6,
                       d_charge_coeff=tp(1))
    fm = bad.as_dict()["first_mismatch"]
    assert set(fm) == {"monomial", "lhs", "rhs"}


def test_empty_comparison_is_an_error():
    c = _Comparator()
    with pytest.raises(EmptyComparison):
        c.report("nothing", {}, 0.0)
    from qvertex.fock import FockVector
    z = FockVector.zero(4, 2)
    c2 = _Comparator()
    c2.take("x", z, z)
    with pytest.raises(EmptyComparison):
        c2.report("all-zero", {}, 0.0)


def test_run_check_dispatch():
    for cid in CHECK_IDS:
        if cid in ("hl-oracle",):
            continue
        r = run_check(cid, t_order=2, g_order=2, degree_cap=8, window=3)
        assert isinstance(r, CheckReport)
        assert r.check_id == cid
        assert r.passed
    with pytest.raises(ValueError):
        run_check("bogus")


def test_monotone_window_restriction():
    # passing at (T, W) implies passing at smaller T and W
    for T, W in [(0, 2), (1, 2), (2, 2), (2, 3)]:
        assert check_braided_jacobi(t_order=T, window=W,
                                    degree_cap=8).passed
