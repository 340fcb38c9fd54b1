"""Time-to-verdict benchmark for qvertex.

    python3 qvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is suite-default, deep-t, wide-window, or all.  Every repetition
runs in a fresh single-threaded interpreter (child.py); repetitions follow
one another (a closed loop with one client) until the next one would end
past S seconds, with at least two.  Every verdict is checked against its
known answer, and so is the AC-10 mutation trio, which runs once per
invocation before the timed repetitions.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the repetitions); with ``--trace 1``
it holds the per-layer metrics of traced repetitions, each paired with an
untraced one so that the tracing overhead is measured too.  The exit code
is 0 only if every verdict was right.  ``--out FILE`` also writes the full
record (run metadata, every repetition) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(ROOT, ".qvbench-out")
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, MUTATIONS, WORKLOADS, Plan  # noqa: E402

MIN_REPS = 2
SETUP_CHILDREN = 8
CHILD_TIMEOUT_S = 170

END_TO_END = (("verdict_s", "s"), ("compared_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("verdict_ok_share", "ratio"))


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a wrong verdict)."""


def run_child(calls, trace=False, spans=None) -> dict:
    spec = json.dumps({"calls": calls, "trace": trace, "spans": spans})
    proc = subprocess.run([sys.executable, "-I", CHILD, spec], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def wrong_verdicts(calls, result) -> tuple:
    """(verdicts attempted, verdicts that differ from the known answer or
    raised) for one child's result."""
    expected = [e for call in calls for e in call["expect"]]
    reports = result["reports"]
    bad = 0
    for i, (cid, compared, passed) in enumerate(expected):
        r = reports[i] if i < len(reports) else None
        if r is None or r["check_id"] != cid or r["compared"] != compared \
                or r["passed"] != passed:
            bad += 1
        elif not passed and not _has_witness(r):
            bad += 1
    bad += max(0, len(reports) - len(expected))
    exit_ok = all(code in (None, 0) for code in result["exit_codes"])
    if result["error"] is not None or not exit_ok:
        bad = max(bad, 1)
    return len(expected), min(bad, len(expected))


def _has_witness(report) -> bool:
    fm = report["first_mismatch"]
    return ("mutation" in report["params"] and fm is not None
            and fm["lhs"] != fm["rhs"])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return its record."""
    plan = Plan(name, seed)
    load_start = os.getloadavg()
    run_child([])   # fills the bytecode cache; not a set-up sample
    setup = []

    def child(calls, **kw):
        res = run_child(calls, **kw)
        setup.append(res["setup_s"])
        return res

    for _ in range(SETUP_CHILDREN):
        child([])
    attempted = failed = 0
    errors = []
    mut = child(list(MUTATIONS))
    n, bad = wrong_verdicts(MUTATIONS, mut)
    attempted, failed = attempted + n, failed + bad
    if bad:
        errors.append({"rep": "mutations", "error": mut["error"]})

    reps, backends = [], {mut["rat_backend"]}
    t_start = time.perf_counter()
    k = 0
    while True:
        calls = plan.calls(k)
        modes = (False, True) if trace else (False,)
        rep = {"rep": k, "calls": [{key: c[key] for key in c
                                    if key != "expect"} for c in calls]}
        for traced in modes:
            spans = None
            if traced:
                os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
                spans = os.path.join(OUT_DIR, "spans",
                                     f"{name}-seed{seed}-rep{k}.json")
            res = child(calls, trace=traced, spans=spans)
            backends.add(res["rat_backend"])
            n, bad = wrong_verdicts(calls, res)
            attempted, failed = attempted + n, failed + bad
            if bad:
                errors.append({"rep": k, "traced": traced,
                               "error": res["error"],
                               "reports": res["reports"]})
            compared = sum(r["compared"] for r in res["reports"])
            tag = "traced" if traced else "plain"
            rep[tag] = {"verdict_s": res["verdict_s"],
                        "compared": compared,
                        "peak_rss_mb": res["peak_rss_mb"],
                        "reports": res["reports"]}
            if traced:
                rep[tag]["layers"] = res["layers"]
        reps.append(rep)
        k += 1
        elapsed = time.perf_counter() - t_start
        if k >= (1 if trace else MIN_REPS) and \
                elapsed + elapsed / k > seconds:
            break
    if len(backends) != 1:
        raise BenchError(f"children used different Rat backends: {backends}")
    return {"workload": name, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": failed, "errors": errors,
            "setup_samples": setup, "reps": reps,
            "rat_backend": backends.pop(),
            "load_start": load_start, "load_end": os.getloadavg(),
            "metrics": summarize(reps, setup, attempted, failed, trace)}


def summarize(reps, setup, attempted, failed, trace) -> dict:
    """The run's metrics: medians over its repetitions."""
    med = statistics.median
    if not trace:
        plain = [r["plain"] for r in reps]
        values = {
            "verdict_s": med(p["verdict_s"] for p in plain),
            "compared_per_s": med(p["compared"] / p["verdict_s"]
                                  for p in plain),
            "setup_s": med(setup),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "verdict_ok_share": 1.0 - failed / attempted,
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    layers = [r["traced"]["layers"] for r in reps]
    out = {}
    for key in layers[0]:
        out[key] = {"value": med(x[key] for x in layers),
                    "unit": layer_unit(key)}
    out["trace.overhead_ratio"] = {
        "value": med(r["traced"]["verdict_s"] / r["plain"]["verdict_s"] - 1
                     for r in reps),
        "unit": "ratio"}
    return out


def layer_unit(key: str) -> str:
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_s") or key.endswith(".s") or ".check_s." in key:
        return "s"
    return "count"


def metadata(seconds, records) -> dict:
    return {"python": platform.python_version(),
            "rat_backend": sorted({r["rat_backend"] for r in records}),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "run_seconds": seconds}


def print_table(rec):
    print(f"# {rec['workload']} seed={rec['seed']} reps={len(rec['reps'])} "
          f"verdicts={rec['attempted']} wrong={rec['failed']} "
          f"load={rec['load_start'][0]:.2f}->{rec['load_end'][0]:.2f}")
    for key, m in rec["metrics"].items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="also write the full record to this file")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "qvertex",
                                       "__init__.py")):
        print(f"error: no qvertex sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = metadata(args.seconds, records)
    for rec in records:
        print_table(rec)
        for err in rec["errors"]:
            print(f"  wrong verdict: {json.dumps(err)[:2000]}",
                  file=sys.stderr)
    print("# meta " + json.dumps(meta))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "records": records}, fh, indent=1)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
