"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest qvbench -q
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    {"fn": "check_braided_commutativity",
     "kwargs": {"a": 1, "b": 2, "t_order": 2, "window": 3,
                "degree_cap": 6},
     "expect": [["braided-commutativity", 49, True]]},
    {"fn": "check_expansion_consistency",
     "kwargs": {"t_order": 1, "window": 3, "degree_cap": 7},
     "expect": [["expansion", 126, True]]},
    {"argv": ["verify", "vacuum", "classical"],
     "expect": [["classical", 211, True], ["vacuum", 22, True]]},
]


def _without_elapsed(reports):
    return [{k: v for k, v in r.items() if k != "elapsed"} for r in reports]


def test_traced_reports_equal_untraced(tmp_path):
    spans_path = tmp_path / "spans.json"
    plain = run.run_child(SMALL)
    traced = run.run_child(SMALL, trace=True, spans=str(spans_path))
    assert run.wrong_verdicts(SMALL, plain) == (4, 0)
    assert run.wrong_verdicts(SMALL, traced) == (4, 0)
    assert _without_elapsed(plain["reports"]) == \
        _without_elapsed(traced["reports"])

    layers = traced["layers"]
    assert layers["verifier.compared"] == 49 + 126 + 211 + 22
    assert layers["cli.self_s"] > 0
    assert layers["verifier.check_s.expansion"] > 0
    assert layers["verifier.check_s.jacobi"] == 0
    assert layers["scalars.mul.calls"] > 0
    assert 0 < layers["laurent.mul_raw.kept_ratio"] <= 1

    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    names = {s[0] for s in spans}
    assert {"cli.main", "verifier.check_braided_commutativity",
            "engine.evaluate", "laurent.mul_raw"} <= names
    # the hot arithmetic is aggregated, never one span per call
    assert not any(".TScalar." in n for n in names)
    assert dump["stats"]["scalars.TScalar.__mul__"][0] > len(spans)
    for i, (_, t0, t1, parent) in enumerate(spans):
        assert t0 <= t1 and parent < i
        if parent >= 0:
            assert spans[parent][1] <= t0 and t1 <= spans[parent][2]


def _run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("compared, wrong", [(49, False), (48, True)])
def test_wrong_verdict_is_counted_and_fails_the_command(monkeypatch,
                                                        compared, wrong):
    tiny = (("check_braided_commutativity",
             {"t_order": 2, "window": 3, "degree_cap": 6}, "pair",
             "braided-commutativity", compared),)
    monkeypatch.setattr(workloads, "DEEP_T", tiny)
    code, out = _run_main(["--workload", "deep-t", "--seed", "5",
                           "--seconds", "0"])
    # three mutation verdicts plus the two repetitions the run always makes
    assert out["attempted"] == 3 + run.MIN_REPS
    assert out["failed"] == (run.MIN_REPS if wrong else 0)
    assert out["correct"] is not wrong
    share = out["metrics"]["verdict_ok_share"]["value"]
    assert (share < 1) is wrong
    assert (code != 0) is wrong


def test_mutation_without_witness_is_a_wrong_verdict():
    call = dict(workloads.MUTATIONS[0])
    result = run.run_child([call])
    assert run.wrong_verdicts([call], result) == (1, 0)
    result["reports"][0]["first_mismatch"] = None
    assert run.wrong_verdicts([call], result) == (1, 1)
    result["reports"][0]["passed"] = True
    assert run.wrong_verdicts([call], result) == (1, 1)


def test_raising_check_is_a_wrong_verdict():
    call = {"fn": "check_hl_against_oracle", "kwargs": {"t_order": 3},
            "expect": [["hl-oracle", 30, True]]}
    result = run.run_child([call])
    assert "TruncationMismatch" in result["error"]
    assert run.wrong_verdicts([call], result) == (1, 1)


def test_seed_plans():
    default = workloads.Plan("deep-t", workloads.DEFAULT_SEED)
    rep0 = default.calls(0)
    assert [c["fn"] for c in rep0] == [row[0] for row in workloads.DEEP_T]
    assert rep0[0]["kwargs"]["a"] == 1 and rep0[0]["kwargs"]["b"] == 1
    assert workloads.Plan("suite-default", 0).calls(0)[0]["argv"] == \
        ["verify", "all"]
    for seed in (1, 2, 3, 17):
        plan = workloads.Plan("deep-t", seed)
        assert plan.calls(4) == workloads.Plan("deep-t", seed).calls(4)
        assert sorted(plan.pairs) == sorted(workloads.CHARGE_PAIRS)
        used = {(c["kwargs"]["a"], c["kwargs"]["b"])
                for k in range(3) for c in plan.calls(k)
                if c["fn"] == "check_translation_covariance"}
        assert used == set(workloads.CHARGE_PAIRS)


def test_refuses_without_sources(tmp_path):
    bench = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(bench, tmp_path / "qvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(bench), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "qvbench/run.py", "--workload", "deep-t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_rat_backends():
    def record(backend, value):
        return {"meta": {"rat_backend": [backend]},
                "records": [{"workload": "deep-t", "metrics": {
                    "verdict_s": {"value": value, "unit": "s"}}}]}
    rows = compare.compare(record("fractions", 2.0),
                           record("fractions", 1.0))
    assert rows == [("deep-t", "verdict_s", "s", 2.0, 1.0, 0.5)]
    with pytest.raises(ValueError, match="Rat backends differ"):
        compare.compare(record("fractions", 2.0), record("gmpy2", 1.0))
