"""Identity checks: pass at modest orders, fail under shipped mutations,
and report deterministically."""

import json
import random
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from qvertex import verifier
from qvertex.engine import jing_Q
from qvertex.errors import (EmptyComparison, TruncationMismatch,
                            WindowUnderflow)
from qvertex.fock import FockVector
from qvertex.laurent import LaurentChunk, Monomial, Window
from qvertex.rationals import Rat
from qvertex.scalars import tp
from qvertex.symfunc import Partition, SymFuncP, partitions_up_to
from qvertex.verifier import (CHECK_IDS, CheckReport, _Comparator,
                              check_braided_commutativity,
                              check_braided_jacobi, check_classical_limit,
                              check_expansion_consistency,
                              check_hl_against_oracle,
                              check_translation_covariance, check_vacuum,
                              run_check)


DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("W,cap,T", [(6, 4, 2), (5, 3, 2), (4, 3, 2)])
def test_expansion_passes_at_caps_below_the_window(W, cap, T):
    # line 1 needs its intermediate state at weight W - 1, above the cap
    r = run_check("expansion", t_order=T, window=W, degree_cap=cap)
    assert r.passed, r.first_mismatch


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
    # y_product keeps its states exact at working caps and the check
    # projects what it compares, so no cap is too small (below
    # max(2, W + 1) the check used to give a false FAIL)
    for W in range(9):
        for cap in range(max(10, W + 4)):
            assert check_classical_limit(window=W, degree_cap=cap).passed


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
        # t^k / den at p_mu
        bump = SymFuncP({Partition(mu): (0,) * k + (1,)}, den, t_order)
        return f + bump

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
    z = FockVector.zero(2)
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


# ---------------------------------------------------------------------------
# the Jacobi delta-convolution on integer rows


JACOBI_GOLDEN = (DATA / "jacobi_reports.jsonl").read_text().splitlines()


def _golden_id(line):
    p = json.loads(line)["params"]
    return (f"T{p['T']}-W{p['window']}-cap{p['degree_cap']}"
            + ("-drop-s-gamma" if "mutation" in p else ""))


@pytest.mark.parametrize("line", JACOBI_GOLDEN, ids=_golden_id)
def test_jacobi_reports_golden(line):
    p = json.loads(line)["params"]
    r = check_braided_jacobi(t_order=p["T"], window=p["window"],
                             degree_cap=p["degree_cap"],
                             drop_s_gamma="mutation" in p)
    assert json.dumps(_strip(r)) == line


# ---------------------------------------------------------------------------
# the two-point checks at charges other than (1, 1)


CHARGED_GOLDEN = (DATA / "charged_reports.jsonl").read_text().splitlines()


def _charged_id(line):
    d = json.loads(line)
    p = d["params"]
    a, b = p["charges"]
    return (f"{d['check_id']}-{a}{b}-T{p['T']}-W{p['window']}"
            f"-cap{p['degree_cap']}")


@pytest.mark.parametrize("line", CHARGED_GOLDEN, ids=_charged_id)
def test_charged_reports_golden(line):
    # the first four lines are run_check at the CLI defaults
    d = json.loads(line)
    p = d["params"]
    r = run_check(d["check_id"], t_order=p["T"], g_order=p.get("G", 3),
                  degree_cap=p["degree_cap"], window=p["window"],
                  charges=tuple(p["charges"]))
    assert json.dumps(_strip(r)) == line


# ---------------------------------------------------------------------------
# the sign-mutation witnesses on the deep-t path


DEEP_T_GOLDEN = (DATA / "deep_t_mutation_reports.jsonl").read_text() \
    .splitlines()


@pytest.mark.parametrize("line", DEEP_T_GOLDEN, ids=_charged_id)
def test_deep_t_mutation_reports_golden(line):
    # a failing report prints exact T=24 coefficients, where a passing one
    # pins only the count
    p = json.loads(line)["params"]
    r = check_braided_commutativity(*p["charges"], t_order=p["T"],
                                    window=p["window"],
                                    degree_cap=p["degree_cap"],
                                    mutate_sign=True)
    assert json.dumps(_strip(r)) == line


def _fraction_binom(e, s, kmax):
    """(k, C(e, k) s^k) for k = 0..kmax, from Fraction steps."""
    out, c = [], Fraction(1)
    for k in range(kmax + 1):
        if e >= 0 and k > e:
            break
        out.append((k, c * Fraction(s) ** k))
        c *= Fraction(e - k, k + 1)
    return out


def _probe(chunk, m):
    if chunk.window.contains(m):
        return chunk.get(m)
    if any(m[i] < lo or m[i] > hi for i, (lo, hi) in enumerate(chunk.support)):
        return chunk.zero
    raise WindowUnderflow(str(m))


def _reference_sides(xp1, xp2, xp3, W):
    """The delta-convolutions summed with FockVector + and scale."""
    f1, f2, f3 = xp2.support[0][0], xp1.support[1][0], xp3.support[2][0]
    for e1, e2, e3 in product(range(-W, W + 1), repeat=3):
        lhs = rhs = xp1.zero
        for k, c in _fraction_binom(-e3 - 1, -1, e2 - f2):
            v = _probe(xp1, Monomial(z1=e1 + e3 + 1 + k, z2=e2 - k))
            lhs = lhs + v.scale(c)
        sgn = 1 if e3 % 2 else -1
        for k, c in _fraction_binom(-e3 - 1, -1, e1 - f1):
            v = _probe(xp2, Monomial(z1=e1 - k, z2=e2 + e3 + 1 + k))
            lhs = lhs - v.scale(sgn * c)
        for k, c in _fraction_binom(-e1 - 1, 1, e3 - f3):
            v = _probe(xp3, Monomial(z2=e1 + e2 + 1 + k, z3=e3 - k))
            rhs = rhs + v.scale(c)
        yield Monomial(e1, e2, e3), lhs, rhs


def _random_chunk(rng, window, cap, T, dens):
    """Random FockVector coefficients on about half the window, with
    numerators in [-4, 4] over denominators drawn from dens."""
    parts = list(partitions_up_to(cap))
    terms = {}
    for m in verifier._box(window):
        if rng.random() < 0.5:
            comps = {}
            for q in rng.sample(range(4), rng.randint(1, 2)):
                rows = {lam: tuple(Rat(rng.randint(-4, 4), rng.choice(dens))
                                   for _ in range(T + 1))
                        for lam in rng.sample(parts, rng.randint(1, 3))}
                den = lcm(*(x.denominator for row in rows.values()
                            for x in row))
                comps[q] = SymFuncP({lam: tuple(int(x * den) for x in row)
                                     for lam, row in rows.items()}, den, T)
            terms[m] = FockVector(comps, T)
    return LaurentChunk(terms, window, FockVector.zero(T))


def _convolution_matches_reference(rng, W, T, cap, dens1, dens2, dens3):
    lo = [rng.randint(-1, 1) for _ in range(3)]
    xp1 = _random_chunk(rng, Window.of(z1=(-T - 1, 3 * W),
                                       z2=(lo[0], W)), cap, T, dens1)
    xp2 = _random_chunk(rng, Window.of(z1=(lo[1] - T, W),
                                       z2=(0, 3 * W + T)), cap, T, dens2)
    xp3 = _random_chunk(rng, Window.of(z2=(-2 * W, 3 * W),
                                       z3=(lo[2], W)), cap, T, dens3)
    x1, x2 = verifier._int_rows(xp1, xp2)
    x3, = verifier._int_rows(xp3)
    got = verifier._jacobi_sides(x1, x2, x3, W, xp1.zero)
    live = 0
    for (m, lhs, rhs), (rm, rlhs, rrhs) in zip(
            got, _reference_sides(xp1, xp2, xp3, W), strict=True):
        assert m == rm
        assert lhs == rlhs, (m, "lhs")
        assert rhs == rrhs, (m, "rhs")
        live += not lhs.is_zero()
        live += not rhs.is_zero()
    assert live > (2 * W + 1) ** 3 // 2
    return x1.den, x3.den


@pytest.mark.parametrize("W, T, cap", [(2, 0, 4), (2, 3, 7), (3, 1, 5),
                                       (3, 2, 6), (4, 0, 6), (4, 3, 5)])
def test_jacobi_convolution_matches_fraction_reference(W, T, cap):
    rng = random.Random(100 * W + 10 * T + cap)
    _convolution_matches_reference(rng, W, T, cap, (1, 2), (1, 2), (1, 2))


def test_jacobi_convolution_with_distinct_denominators():
    rng = random.Random(7)
    den12, den3 = _convolution_matches_reference(rng, 2, 2, 5, (3, 9),
                                                 (4,), (5, 10))
    assert (den12, den3) == (36, 10)


def test_jacobi_probe_raises_inside_support():
    # a chunk stored on z1 <= 2 whose support reaches z1 = 5: a probe at
    # z1 = 3..5 is unknown, not zero
    T = 1
    zero = FockVector.zero(T)
    v = FockVector.exponential(1, T)
    support = ((0, 5), (0, 2), (0, 0), (0, 0))
    full = LaurentChunk(
        {Monomial(a, b): v for a in range(6) for b in range(3)},
        Window.of(z1=(0, 5), z2=(0, 2)), zero)
    cut_window = Window.of(z1=(0, 2), z2=(0, 2))
    cut = LaurentChunk(
        {m: c for m, c in full.terms.items() if cut_window.contains(m)},
        cut_window, zero, support)
    other = LaurentChunk({Monomial(0, 0): v}, Window.of(), zero)

    rows, = verifier._int_rows(cut)
    assert rows.probe((1, 1, 0, 0)) != ()
    assert rows.probe((1, 3, 0, 0)) == ()
    assert rows.probe((6, 1, 0, 0)) == ()
    for a in (3, 4, 5):
        with pytest.raises(WindowUnderflow):
            rows.probe((a, 1, 0, 0))

    x3, = verifier._int_rows(other)
    x1, x2 = verifier._int_rows(full, other)
    assert len(list(verifier._jacobi_sides(x1, x2, x3, 1, zero))) == 27
    x1, x2 = verifier._int_rows(cut, other)
    with pytest.raises(WindowUnderflow):
        list(verifier._jacobi_sides(x1, x2, x3, 1, zero))
