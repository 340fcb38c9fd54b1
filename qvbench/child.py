"""One repetition of a benchmark workload, in a fresh interpreter.

Run by run.py as ``python3 -I child.py SPEC``, where SPEC is a JSON object
``{"calls": [...], "trace": bool, "spans": path or null}``.  The child
times ``import qvertex, qvertex.cli`` (the set-up time), runs the calls in
order (the verdict time), and prints one JSON line with both times, its
own peak RSS, and every report.  With ``trace`` set, the outside-in tracer
is installed after the import and before the first call, its per-layer
metrics go in the result, and its spans are written to ``spans``.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC, BENCH_DIR]

_t0 = time.perf_counter()
import qvertex  # noqa: E402
import qvertex.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _run_call(call) -> tuple:
    """Run one call; return (reports, exit code or None)."""
    if "argv" in call:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qvertex.cli.main(call["argv"])
        reports = [json.loads(line) for line in buf.getvalue().splitlines()
                   if line.strip()]
        return reports, code
    kwargs = dict(call["kwargs"])
    if "d_charge_coeff" in kwargs:
        kwargs["d_charge_coeff"] = qvertex.scalars.tp(
            *kwargs["d_charge_coeff"])
    report = getattr(qvertex.verifier, call["fn"])(**kwargs)
    return [report.as_dict()], None


def main(spec: dict) -> dict:
    if not os.path.abspath(qvertex.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"qvertex imported from {qvertex.__file__}, "
                           f"not from {SRC}")
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    reports, codes, error = [], [], None
    start = time.perf_counter()
    try:
        for call in spec["calls"]:
            got, code = _run_call(call)
            reports.extend(got)
            codes.append(code)
    except Exception:  # a raising check is a wrong verdict, not a crash
        error = traceback.format_exc()
    verdict_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"setup_s": SETUP_S, "verdict_s": verdict_s,
           "peak_rss_mb": peak_kb / 1024.0, "reports": reports,
           "exit_codes": codes, "error": error,
           "rat_backend": qvertex.rationals.Rat.__module__}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if spec.get("spans"):
            with open(spec["spans"], "w") as fh:
                json.dump(tracer.dump(), fh)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
