"""Identity checks: pass at modest orders, fail under shipped mutations,
and report deterministically."""

import hashlib
import json
import pickle
import random
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from qvertex import engine, verifier
from qvertex.engine import (evaluate, jing_Q, s_gamma, s_tau,
                            x2_closed_form, x120_closed_form, y_apply,
                            y_product)
from qvertex.errors import (EmptyComparison, TruncationMismatch,
                            WindowUnderflow)
from qvertex.fock import FockVector, exp_D_chunk
from qvertex.laurent import (FactorProduct, LaurentChunk, Monomial, Window,
                             _expand, lform)
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
from reference import laurent_mul


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


@pytest.mark.parametrize("T", [0, 3, 8, 24])
def test_braiding_scalar_times_its_inverse_is_one(T):
    # expansion line 2 moves S_tau to the closed-form side as its inverse;
    # the two region-(z2, z1) expansions multiply to exactly 1.  Each is
    # expanded on a box that holds its whole support, so laurent_mul's
    # guard passes on any target
    box = Window.of(z1=(-T - 2, T + 2), z2=(-T - 2, T + 2))
    s, inv = (s_tau(1, 1, *vs).expand(verifier.REG21, box, T)
              for vs in (("z2", "z1"), ("z1", "z2")))
    for sc in (s, inv):
        assert all(b[0] <= lo and hi <= b[1] for (lo, hi), b
                   in zip(sc.support, box.bounds))
    target = Window.of(z1=(-4, 4), z2=(-4, 4))
    one = laurent_mul(s, inv, target)
    assert list(one.terms) == [Monomial()]
    assert one.get(Monomial()) == SymFuncP.one(T)


@pytest.mark.parametrize("factor", [(-1,), (1, 1)])
def test_expansion_line2_catches_a_wrong_braiding_scalar(monkeypatch,
                                                         factor):
    # S_tau times -1 or times (1 + t): lines 1 and 3 do not use it, so the
    # first mismatch is on line 2
    def wrong(*args):
        return s_tau(*args).mul(FactorProduct.of(coeff=factor))

    monkeypatch.setattr(verifier, "s_tau", wrong)
    r = check_expansion_consistency(t_order=3, window=3, degree_cap=8)
    assert r.passed is False
    assert r.compared == 126
    assert r.first_mismatch[0].startswith("line2 ")


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


def test_hl_oracle_passes_at_the_cli_weight_limit():
    # weight 8 is cli.HL_MAX_WEIGHT; the oracle then runs in up to 8
    # variables
    r = check_hl_against_oracle(max_weight=8, t_order=24)
    assert r.passed
    # partitions of 0..8 inclusive
    assert r.compared == 67


def test_hl_oracle_needs_deep_truncation():
    with pytest.raises(TruncationMismatch):
        check_hl_against_oracle(max_weight=3, t_order=8)


def test_hl_oracle_applies_one_mode_per_distinct_suffix(monkeypatch):
    # Q_lambda is B_{l1} applied to the kept Q of (l2, ...), so each
    # distinct nonempty suffix costs one mode; the suffixes of the
    # partitions of weight <= 6 are those partitions: 29 modes, where
    # applying every part of every partition takes 77
    modes = []
    real = engine.heis_mode

    def counted(power, f):
        modes.append(power)
        return real(power, f)

    monkeypatch.setattr(engine, "heis_mode", counted)
    engine._jing_Q.cache_clear()
    assert check_hl_against_oracle().passed
    assert len(modes) == sum(1 for lam in partitions_up_to(6) if lam) == 29


# ---------------------------------------------------------------------------
# mutation sensitivity


def test_mutated_braiding_sign_fails():
    r = check_braided_commutativity(1, 1, t_order=2, window=4, degree_cap=8,
                                    mutate_sign=True)
    assert not r.passed
    m, lhs, rhs = r.first_mismatch
    assert lhs != rhs
    assert r.params["mutation"] == "s-tau-sign"


def test_braiding_scalar_factors_stay_members_of_their_own(monkeypatch):
    # the braided right-hand side is one chain whose prefactor carries
    # both (z2 - t z1)^{-1} of the swapped closed form and (z2 - t z1)^{+1}
    # of S_tau: merged, they would cancel and the check would compare a
    # series with itself
    import qvertex.engine as engine
    import qvertex.laurent as laurent
    chain, seen = laurent._chain, []

    def recorded(fp, *args):
        seen.append(fp.factors)
        return chain(fp, *args)

    monkeypatch.setattr(engine, "_chain", recorded)
    monkeypatch.setattr(laurent, "_chain", recorded)
    assert check_braided_commutativity(a=1, b=1, t_order=3, window=3,
                                       degree_cap=6).passed
    form = lform((1, "z2"), (-1, "z1", 1))
    assert any((form, 1) in fs and (form, -1) in fs for fs in seen)


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
    r = _perturbed_hl_report(monkeypatch, lam, mu, k, den)
    assert not r.passed
    label, lhs, rhs = r.first_mismatch
    assert label == f"Q_{lam}"
    assert lhs != rhs


def _perturbed_hl_report(monkeypatch, lam, mu, k, den):
    """The hl-oracle report at weight <= 3 with t^k / den added at p_mu of
    the engine's Q_lam."""
    def perturbed(partition, t_order):
        f = jing_Q(partition, t_order)
        if tuple(partition) != lam:
            return f
        bump = SymFuncP({Partition(mu): (0,) * k + (1,)}, den, t_order)
        return f + bump

    monkeypatch.setattr(verifier, "jing_Q", perturbed)
    return check_hl_against_oracle(max_weight=3, t_order=24)


def test_hl_oracle_perturbed_report_golden(monkeypatch):
    # the check compares monomial coefficients but reports the first
    # mismatch as the two full polynomials, byte for byte
    r = _perturbed_hl_report(monkeypatch, (3,), (2, 1), 5, 1)
    golden = json.loads((DATA / "hl_oracle_perturbed_report.json")
                        .read_text())
    assert _strip(r) == golden


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


def test_report_survives_pickling():
    # a forked worker sends its reports to the command's process pickled
    for report in (run_check("vacuum", t_order=1, window=1, degree_cap=2),
                   CheckReport("jacobi", {"T": 1}, 3, False,
                               ("z1", "1", "2"), 0.5)):
        back = pickle.loads(pickle.dumps(report))
        assert type(back) is CheckReport
        assert back == report
        assert list(back.as_dict()) == ["check_id", "params", "compared",
                                        "passed", "first_mismatch",
                                        "elapsed"]
        assert back.as_dict() == report.as_dict()
    with pytest.raises(AttributeError):
        report.passed = True


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


def _decoded_sides(sides):
    """The kernel's sides as FockVectors, lhs over den12 and rhs over den3."""
    for m, lhs, rhs in sides:
        yield m, sides.fock(lhs, sides.den12), sides.fock(rhs, sides.den3)


def _matches_reference(xp1, xp2, xp3, W):
    """The decoded sides equal the FockVector reference at every monomial;
    returns the kernel."""
    sides = verifier._JacobiSides(xp1, xp2, xp3, W)
    live = 0
    for (m, lhs, rhs), (rm, rlhs, rrhs) in zip(
            _decoded_sides(sides), _reference_sides(xp1, xp2, xp3, W),
            strict=True):
        assert m == rm
        assert lhs == rlhs, (m, "lhs")
        assert rhs == rrhs, (m, "rhs")
        live += not lhs.is_zero()
        live += not rhs.is_zero()
    assert live > (2 * W + 1) ** 3 // 2
    return sides


def _convolution_matches_reference(rng, W, T, cap, dens1, dens2, dens3):
    lo = [rng.randint(-1, 1) for _ in range(3)]
    xp1 = _random_chunk(rng, Window.of(z1=(-T - 1, 3 * W),
                                       z2=(lo[0], W)), cap, T, dens1)
    xp2 = _random_chunk(rng, Window.of(z1=(lo[1] - T, W),
                                       z2=(0, 3 * W + T)), cap, T, dens2)
    xp3 = _random_chunk(rng, Window.of(z2=(-2 * W, 3 * W),
                                       z3=(lo[2], W)), cap, T, dens3)
    sides = _matches_reference(xp1, xp2, xp3, W)
    return sides.den12, sides.den3


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

    rows = verifier._JacobiSides(cut, other, other, 1).x[0]
    assert rows[1, 1, 0, 0] != ()
    assert rows[1, 3, 0, 0] == ()
    assert rows[6, 1, 0, 0] == ()
    for a in (3, 4, 5):
        with pytest.raises(WindowUnderflow):
            rows[a, 1, 0, 0]

    assert len(list(verifier._JacobiSides(full, other, other, 1))) == 27
    with pytest.raises(WindowUnderflow):
        list(verifier._JacobiSides(cut, other, other, 1))


def _big_chunk(rng, window, cap, T, den, sign):
    """FockVector coefficients on most of the window: numerators near
    sign(m) * 2^80 over den, at weights up to cap mixed in one
    coefficient."""
    parts = list(partitions_up_to(cap))
    terms = {}
    for m in verifier._box(window):
        if rng.random() < 0.8:
            s = sign(m)
            rows = {lam: tuple(s * (2 ** 80 - rng.randrange(2 ** 40))
                               for _ in range(T + 1))
                    for lam in rng.sample(parts, rng.randint(2, 5))}
            terms[m] = FockVector({rng.randrange(4): SymFuncP(rows, den, T)},
                                  T)
    return LaurentChunk(terms, window, FockVector.zero(T))


def _max_digit(sides, xp1, xp2, xp3, W):
    """The largest |digit| of lhs * den3 - rhs * den12, from the reference."""
    scale = sides.den12 * sides.den3
    top = 0
    for _, lhs, rhs in _reference_sides(xp1, xp2, xp3, W):
        for f in (lhs - rhs).components.values():
            for row in f.num.values():
                top = max(top, max(map(abs, row)) * (scale // f.den))
    return top


@pytest.mark.parametrize("den12, den3", [(2 ** 61 - 1, 3 ** 30), (1, 1)],
                         ids=["mersenne-61-3^30", "integer"])
def test_jacobi_digit_width_holds_every_digit(den12, den3):
    # the signs line every binomial term up at e1 = e3 = W (W even), so
    # the sums come close to the bound that B is derived from
    W, T, cap = 2, 1, 6
    rng = random.Random(den12 + den3)
    xp1 = _big_chunk(rng, Window.of(z1=(-T - 1, 3 * W), z2=(-1, W)), cap,
                     T, den12, lambda m: 1)
    xp2 = _big_chunk(rng, Window.of(z1=(-1 - T, W), z2=(0, 3 * W + T)),
                     cap, T, den12, lambda m: 1)
    xp3 = _big_chunk(rng, Window.of(z2=(-2 * W, 3 * W), z3=(-1, W)), cap,
                     T, den3, lambda m: (-1) ** (W + 1 + m[2]))
    sides = _matches_reference(xp1, xp2, xp3, W)
    assert (sides.den12, sides.den3) == (den12, den3)
    assert _max_digit(sides, xp1, xp2, xp3, W) < 2 ** (sides.B - 1)


def _jacobi_chunks(T, W, cap):
    form = x120_closed_form(1, 1, 1)
    sub = form.substitute({"z1": ("z2", "z3")})
    return (evaluate(form, verifier.REG12,
                     Window.of(z1=(-T, 3 * W), z2=(0, W)), cap, T),
            evaluate(form, verifier.REG21,
                     Window.of(z1=(-T, W), z2=(0, 3 * W + T)), cap, T),
            evaluate(sub, verifier.REG23,
                     Window.of(z2=(-2 * W, 3 * W), z3=(0, W)), cap, T))


JACOBI_GOLDEN = (DATA / "jacobi_evaluate_sha256.txt").read_text() \
    .splitlines()


def test_jacobi_evaluate_golden():
    # the Jacobi check's three evaluate calls, each a fold of three chunks,
    # at the wide-window parameters (T=1, W=6, cap 11): one line per
    # monomial of each window, in the layout of the T=8 golden: region,
    # charges, exponents of z1, z2 and z3, then the sha256 of str() of the
    # coefficient
    got = [f"{kind} 1,1,1 {m[0]},{m[1]},{m[2]} {_sha(str(ch.get(m)))}"
           for kind, ch in zip(("REG12", "REG21", "REG23"),
                               _jacobi_chunks(1, 6, 11))
           for m in verifier._box(ch.window)]
    assert len(got) == 140 + 160 + 217
    assert got == JACOBI_GOLDEN


def test_jacobi_one_unit_mismatch_reported_like_fockvectors(monkeypatch):
    # the three expansions times one big rational satisfy the identity;
    # one unit in the top digit of the highest-index partition that the
    # rhs probes in x3 must then show up where the FockVector route sees it
    T, W, cap = 1, 3, 6
    c = Rat(2 ** 80 + 1, 3 ** 30)
    xp1, xp2, xp3 = (LaurentChunk({m: v.scale(c) for m, v in ch.terms.items()},
                                  ch.window, ch.zero, ch.support)
                     for ch in _jacobi_chunks(T, W, cap))
    index = verifier._JacobiSides(xp1, xp2, xp3, W).index
    probed = {Monomial(z2=e1 + e2 + 1 + k, z3=e3 - k)
              for e1, e2, e3 in product(range(-W, W + 1), repeat=3)
              for k in range(e3 - xp3.support[2][0] + 1)}
    _, m, lam = max((index[lam.weight][lam], m, lam)
                    for m in probed & xp3.terms.keys()
                    for f in xp3.terms[m].components.values()
                    for lam in f.num)
    assert index[lam.weight][lam] == len(index[lam.weight]) - 1 > 5
    (q, f), = xp3.terms[m].components.items()
    num = dict(f.num)
    row = num[lam] = list(num[lam]) + [0] * (T + 1 - len(num[lam]))
    row[T] += 1
    terms = dict(xp3.terms)
    terms[m] = FockVector({q: SymFuncP(num, f.den, T)}, T)
    bad = LaurentChunk(terms, xp3.window, xp3.zero, xp3.support)

    for x3, passed in ((xp3, True), (bad, False)):
        chunks = iter((xp1, xp2, x3))
        monkeypatch.setattr(verifier, "evaluate", lambda *a: next(chunks))
        got = check_braided_jacobi(t_order=T, window=W, degree_cap=cap)
        ref = verifier._Comparator()
        for label, lhs, rhs in _reference_sides(xp1, xp2, x3, W):
            ref.take(label, lhs, rhs)
        assert (got.compared, got.first_mismatch) == (ref.compared, ref.first)
        assert got.passed == passed


# ---------------------------------------------------------------------------
# the series under a braiding or translation scalar, at deep t


def test_deep_t_braided_chains_fold_fewest_partitions_first(monkeypatch):
    # every product of the T=24 braided check folds its members after the
    # point chunk in nondecreasing partition count: the one-partition
    # braiding scalar and prefactor factors before the E+ chunks
    import qvertex.laurent as laurent
    product, counts = laurent._product, []

    def recorded(chunks, windows, degree_cap=None):
        counts.append([len({lam for c in ch.terms.values()
                            for _, num, _ in c.charge_rows() for lam in num})
                       for ch in chunks])
        return product(chunks, windows, degree_cap)

    monkeypatch.setattr(laurent, "_product", recorded)
    assert check_braided_commutativity(a=1, b=1, t_order=24, window=4,
                                       degree_cap=8).passed
    assert max(map(len, counts)) >= 5
    assert any(1 in c[1:] and max(c) > 1 for c in counts)
    for c in counts:
        assert c[1:] == sorted(c[1:]), c


SCALED_GOLDEN = (DATA / "scaled_products_sha256.txt").read_text() \
    .splitlines()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _scaled_product(kind, a, b):
    """A series under a scalar as the checks form it, with its target: the
    braided right-hand side (T=24, W=4, cap 8, or cap 6 for
    braided-cap6), the translation product (T=16, G=3, W=3, cap 7), or
    expansion line 2's inverse braiding scalar times the region (z2, z1)
    expansion at the CLI defaults (T=8, W=5, cap 9) or at the wide-window
    parameters (T=1, W=7, cap 10)."""
    reg = verifier.REG12
    if kind.startswith("braided"):
        T, W, cap = 24, 4, 6 if kind == "braided-cap6" else 8
        target = Window.of(z1=(-W, W), z2=(-W, W))
        sc = s_tau(a, b, "z2", "z1")
        cf = x2_closed_form(b, a).substitute({"z1": ("z2",), "z2": ("z1",)})
    elif kind == "translation":
        T, G, W, cap = 16, 3, 3, 7
        target = Window.of(z1=(-W, W), z2=(-W, W), g=(0, G))
        sc = s_gamma(a, b)
        cf = x2_closed_form(a, b)
    else:
        T, W, cap = {"line2-defaults": (8, 5, 9),
                     "line2-wide": (1, 7, 10)}[kind]
        target = Window.of(z1=(-W, W), z2=(-W, W))
        reg = verifier.REG21
        sc = s_tau(1, 1, "z1", "z2")
        cf = x120_closed_form(1, 1, 1)
    return evaluate(cf, reg, target, cap, T, sc), target


@pytest.mark.parametrize("pair, kind", [
    *((pair, kind) for pair in ("1,1", "1,2", "2,1")
      for kind in ("braided", "translation")),
    ("2,1", "braided-cap6"), ("1,1", "line2-defaults"),
    ("1,1", "line2-wide")])
def test_scaled_products_golden(pair, kind):
    # one line per target monomial: kind, charges, exponents of z1, z2 and
    # g, then the sha256 of str() of the coefficient
    want = {tuple(row.split()[2].split(",")): row.split()[3]
            for row in SCALED_GOLDEN if row.startswith(f"{kind} {pair} ")}
    prod, target = _scaled_product(kind, *map(int, pair.split(",")))
    got = {(str(m[0]), str(m[1]), str(m[3])): _sha(str(prod.get(m)))
           for m in verifier._box(target)}
    assert len(got) == {"braided": 81, "braided-cap6": 81, "translation": 196,
                        "line2-defaults": 121, "line2-wide": 225}[kind]
    for key in sorted(got, key=lambda k: tuple(map(int, k))):
        assert got[key] == want[key], key
    assert set(want) == set(got)


EXP_D_GOLDEN = (DATA / "exp_D_sha256.txt").read_text().splitlines()


def _exp_D_product(kind, pair):
    """e^{gD} of the deep-t translation product (T=16, G=3, W=3, cap 7),
    or e^{z2 D} of expansion line 3's Y(z3)e^a at the wide-window
    parameters (T=1, W=7, cap 10, order 10)."""
    if kind == "translation":
        prod, target = _scaled_product(kind, *map(int, pair.split(",")))
        return exp_D_chunk(prod, "g", 3, 7)
    T, W, cap = 1, 7, 10
    ych = y_apply(1, "z3", FockVector.exponential(1, T), (1, W), cap)
    return exp_D_chunk(ych, "z2", cap, cap)


@pytest.mark.parametrize("kind, pair", [("translation", "1,1"),
                                        ("translation", "1,2"),
                                        ("translation", "2,1"),
                                        ("line3", "1,1")])
def test_exp_D_chunk_golden(kind, pair):
    # one line per monomial of the output window: kind, charges, all four
    # exponents, then the sha256 of str() of the coefficient
    want = {row.split()[2]: row.split()[3]
            for row in EXP_D_GOLDEN if row.startswith(f"{kind} {pair} ")}
    ed = _exp_D_product(kind, pair)
    got = {",".join(map(str, m)): _sha(str(ed.get(m)))
           for m in verifier._box(ed.window)}
    assert len(got) == {"translation": 196, "line3": 77}[kind]
    assert got == want


LINE3_GOLDEN = (DATA / "line3_products_sha256.txt").read_text().splitlines()


@pytest.mark.parametrize("params", ["8,5,9", "1,7,10", "24,4,8"])
def test_expansion_line3_product_golden(params):
    # expansion line 3's right-hand side, the translation scalar
    # S_gamma(z3, 0; gamma = z2) in region (z2, z3) times e^{z2 D} Y(z3)e^a,
    # at the CLI defaults, the wide-window parameters and T=24: one line
    # per monomial of the target z2 in [-W, W], z3 in [0, W]: T, W and the
    # cap, exponents of z2 and z3, then the sha256 of str() of the
    # coefficient.  Recorded when the scalar was expanded on its own and
    # multiplied by laurent_mul
    T, W, cap = map(int, params.split(","))
    target = Window.of(z2=(-W, W), z3=(0, W))
    ych = y_apply(1, "z3", FockVector.exponential(1, T), (1, W), cap)
    ed = exp_D_chunk(ych, "z2", cap, cap)
    rhs3 = _expand(s_gamma(1, 1, "z3", None, "z2"), verifier.REG23, target,
                   T, (ed,))
    got = [f"{params} {m[1]},{m[2]} {_sha(str(rhs3.get(m)))}"
           for m in verifier._box(target)]
    assert len(got) == (2 * W + 1) * (W + 1)
    assert got == [row for row in LINE3_GOLDEN
                   if row.startswith(f"{params} ")]


@pytest.mark.parametrize("pair", ["1,1", "1,2", "2,1"])
def test_translation_charge_term_mutation_golden(pair):
    # the d_charge_coeff = tp(1) witness at the deep-t translation
    # parameters, pinned by the sha256 of its report minus elapsed
    a, b = map(int, pair.split(","))
    r = _strip(check_translation_covariance(
        a, b, t_order=16, g_order=3, window=3, degree_cap=7,
        d_charge_coeff=tp(1)))
    assert r["compared"] == 196 and not r["passed"]
    assert r["first_mismatch"] is not None
    assert f"d-charge-report {pair} {_sha(json.dumps(r))}" in SCALED_GOLDEN


# ---------------------------------------------------------------------------
# the products of expansion and translation at the CLI defaults


T8_GOLDEN = (DATA / "products_t8_sha256.txt").read_text().splitlines()


def _t8_product(kind, a, b):
    """Expansion line 1's Y(z1)Y(z2)e^a, or translation's e^{gD} of the
    scaled series, at the CLI defaults (T=8, G=3, W=5, cap 9), with its
    target."""
    T, G, W, cap = 8, 3, 5, 9
    if kind == "y-product":
        target = Window.of(z1=(-W, W), z2=(-W, W))
        prod = y_product(((a, "z1"), (b, "z2")), FockVector.exponential(1, T),
                         {"z1": (-W, W), "z2": (-W, W)}, cap)
        return prod, target
    target = Window.of(z1=(-W, W), z2=(-W, W), g=(0, G))
    prod = evaluate(x2_closed_form(a, b), verifier.REG12, target, cap, T,
                    s_gamma(a, b))
    return exp_D_chunk(prod, "g", G, cap), target


@pytest.mark.parametrize("kind, pair", [("y-product", "1,1"),
                                        ("translation", "1,1"),
                                        ("translation", "1,2"),
                                        ("translation", "2,1")])
def test_t8_products_golden(kind, pair):
    # one line per target monomial, in the layout of the deep-t golden:
    # kind, charges, exponents of z1, z2 and g, then the sha256 of str()
    # of the coefficient
    want = {tuple(row.split()[2].split(",")): row.split()[3]
            for row in T8_GOLDEN if row.startswith(f"{kind} {pair} ")}
    prod, target = _t8_product(kind, *map(int, pair.split(",")))
    got = {(str(m[0]), str(m[1]), str(m[3])): _sha(str(prod.get(m)))
           for m in verifier._box(target)}
    assert len(got) == {"y-product": 121, "translation": 484}[kind]
    for key in sorted(got, key=lambda k: tuple(map(int, k))):
        assert got[key] == want[key], key
    assert set(want) == set(got)
