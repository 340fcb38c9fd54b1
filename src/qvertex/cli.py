"""Command-line surface: Hall-Littlewood tables and identity-check runs.

Exit codes: 0 all good, 1 at least one check failed, 2 usage or input
error.  JSON output is line-delimited with exact rational coefficients as
strings; runs with identical flags produce identical bytes apart from the
elapsed fields.

``verify`` runs the selected checks side by side, in up to one forked
worker process per usable CPU, and prints their reports in check order.
The workers take the checks from one task pipe, heaviest first
(``BY_COST``), so the longest one does not start last while a worker sits
idle.  Only the checks outside the cheap tail of ``BY_COST`` (hl-oracle,
braided-commutativity, classical, vacuum: each 0.02 s or less) size the
pool of workers; with one usable CPU, or at most one selected check
outside that tail, every check runs in this process.  Each elapsed field
is that check's own time, so their sum can exceed the wall time.  If a
check raises, the first such check in check order prints its error,
nothing else is printed and the exit code is 2; an exception that is not
a QVertexError, or a worker that ends without its reports, propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial

from .engine import jing_Q
from .errors import QVertexError
from .rationals import Rat
from .symfunc import Partition, p_to_x_dominant, xpoly_monomial_coeffs
from .verifier import CHECK_IDS, run_check

HL_MIN_T_ORDER = 24
HL_MAX_WEIGHT = 8
# checks that take no --charges: their charges are part of the identity,
# or (hl-oracle) they have none
IGNORES_CHARGES = frozenset(("classical", "expansion", "hl-oracle",
                             "jacobi", "vacuum"))
# every check, heaviest first by its time in a fresh process at the CLI
# defaults (2 vCPU, Python 3.11, medians of 6, two sets): translation
# 0.045 s, jacobi 0.034, expansion 0.022, hl-oracle 0.019,
# braided-commutativity 0.013, classical 0.010, vacuum 0.002; the
# workers take them in this order
BY_COST = ("translation", "jacobi", "expansion", "hl-oracle",
           "braided-commutativity", "classical", "vacuum")
# the tail of BY_COST: each takes 0.02 s or less, so these checks never
# size the pool.  On the same machine, forking two workers that find no
# task and reaping them takes 5.5 ms in a fresh process (3.3 ms on a
# second call; medians of 9), and the checks of `verify vacuum classical`
# take 16-19 ms in one process but 26-42 ms on two workers (medians of 7)
CHEAP = frozenset(BY_COST[3:])


@dataclass(frozen=True)
class RunConfig:
    t_order: int = 8
    gamma_order: int = 3
    degree_cap: int = 9
    window: int = 5
    charges: tuple = (1, 1)
    fmt: str = "json"


def _parse_partition(text: str):
    parts = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.isdigit() or int(tok) == 0:
            return None
        parts.append(int(tok))
    return Partition(tuple(sorted(parts, reverse=True)))


def _charges(text: str):
    try:
        a, b = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated charges, got {text!r}")
    return (a, b)


def _hl_required_t_order(lams, requested: int) -> int:
    # degree of any p-basis coefficient of Q_lambda is at most
    # n(lambda) + |lambda|
    need = HL_MIN_T_ORDER
    for lam in lams:
        n_stat = sum(i * part for i, part in enumerate(lam))
        need = max(need, n_stat + lam.weight)
    return max(need, requested)


def run_hl(lambdas, cfg: RunConfig, nvars=None, basis: str = "p") -> int:
    lams = []
    for text in lambdas:
        lam = _parse_partition(text)
        if lam is None:
            print(f"error: malformed partition {text!r}", file=sys.stderr)
            return 2
        if lam.weight > HL_MAX_WEIGHT:
            print(f"error: |lambda| = {lam.weight} exceeds the size limit "
                  f"{HL_MAX_WEIGHT}", file=sys.stderr)
            return 2
        lams.append(lam)
    T = _hl_required_t_order(lams, cfg.t_order)
    if T > cfg.t_order:
        print(f"notice: raising t-order to {T} so the printed tables are "
              "exact polynomials", file=sys.stderr)
    for lam in lams:
        f = jing_Q(lam, T)
        payload = {"lambda": list(lam), "basis": basis}
        if basis == "p":
            # rows are trimmed Z[t] numerators over f.den
            rows = [(list(mu), [str(Rat(x, f.den)) for x in row])
                    for mu, row in sorted(f.num.items())]
        else:
            n = nvars if nvars is not None else max(lam.weight, 1)
            # a monomial of Q_lambda uses at most |lambda| variables
            mono = xpoly_monomial_coeffs(
                p_to_x_dominant(f, min(n, max(lam.weight, 1))))
            rows = [(list(mu), [str(c) for c in cs])
                    for mu, cs in sorted(mono.items(), reverse=True)]
            payload["nvars"] = n
        payload["t_order"] = T
        payload["terms"] = [{"mu": mu, "coeff": cs} for mu, cs in rows]
        if cfg.fmt == "json":
            print(json.dumps(payload))
        elif basis == "p":
            print(f"Q_{list(lam)} =", str(f))
        else:
            print(f"Q_{list(lam)} in {n} variables:")
            for mu, cs in rows:
                print(f"  m_{mu}: [{', '.join(cs)}]")
    return 0


def _run_checks(cids, cfg: RunConfig):
    """The reports of cids in their order, or None after printing the
    error of the first check that raises.  The checks are independent, so
    they run side by side in up to one forked worker per usable CPU and per
    selected check outside CHEAP, heaviest first; with at most one such
    worker they run in this process, which saves forking."""
    kwargs = dict(t_order=cfg.t_order, g_order=cfg.gamma_order,
                  degree_cap=cfg.degree_cap, window=cfg.window,
                  charges=cfg.charges)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    workers = min(len(set(cids) - CHEAP), cpus)
    if workers <= 1:
        return _collect(cids, [partial(run_check, cid, **kwargs)
                               for cid in cids])
    results = _forked(sorted(cids, key=BY_COST.index), workers, kwargs)
    return _collect(cids, [partial(_unpack, *results[cid]) for cid in cids])


def _forked(cids, workers, kwargs):
    """{cid: (report, exception)} for every check of cids.  That many
    forked workers take the checks, in the order of cids, from one task
    pipe holding one byte (the CHECK_IDS index) per check.  This process
    runs no check and reaps every worker, whatever happens; a worker that
    ends without sending its reports raises RuntimeError naming the
    checks left without one."""
    import pickle  # here: at module level it adds to every start-up
    tasks, end = os.pipe()
    os.write(end, bytes(CHECK_IDS.index(cid) for cid in cids))
    os.close(end)  # so that a worker reads EOF once the pipe is empty
    pids, pipes = [], []
    try:
        for _ in range(workers):
            pipe, out = os.pipe()
            pipes.append(pipe)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(tasks, out, kwargs)  # never returns
                pids.append(pid)
            finally:
                os.close(out)
        results = {}
        for pipe in pipes:
            with os.fdopen(pipe, "rb", closefd=False) as fh:
                data = fh.read()
            if data:  # empty when the worker ended without its reports
                results.update(pickle.loads(data))
    finally:
        # closing the result pipes first stops a worker still writing,
        # so the waits below cannot hang on this process
        for fd in (tasks, *pipes):
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    lost = [cid for cid in cids if cid not in results]
    if lost:
        codes = ", ".join(str(os.waitstatus_to_exitcode(status))
                          for status in statuses)
        raise RuntimeError(f"no report for {', '.join(lost)}; the workers "
                           f"ended with exit codes {codes}")
    return results


def _work(tasks, out, kwargs):
    """A forked worker: run the checks named on the task pipe until it is
    empty, send their reports and exceptions down out as one pickle and
    end with os._exit, which runs no atexit hook and flushes no stream
    that this process shares with its parent."""
    import pickle
    code = 1
    try:
        results = {}
        while task := os.read(tasks, 1):
            cid = CHECK_IDS[task[0]]
            try:
                results[cid] = (run_check(cid, **kwargs), None)
            except Exception as exc:  # re-raised in the parent
                results[cid] = (None, exc)
        with os.fdopen(out, "wb") as fh:
            fh.write(pickle.dumps(results))
        code = 0
    finally:
        os._exit(code)


def _unpack(report, exc):
    if exc is not None:
        raise exc
    return report


def _collect(cids, results):
    reports = []
    for cid, result in zip(cids, results):
        try:
            reports.append(result())
        except QVertexError as exc:
            print(f"error: {cid}: {exc}", file=sys.stderr)
            return None
    return reports


def run_verify(selection, cfg: RunConfig) -> int:
    ids = set()
    for tok in selection:
        if tok == "all":
            ids.update(CHECK_IDS)
        elif tok in CHECK_IDS:
            ids.add(tok)
        else:
            print(f"error: unknown check {tok!r}; choose from "
                  f"{', '.join(CHECK_IDS)} or all", file=sys.stderr)
            return 2
    if "hl-oracle" in ids and cfg.t_order < HL_MIN_T_ORDER:
        print(f"notice: hl-oracle runs at t-order {HL_MIN_T_ORDER}",
              file=sys.stderr)
    ignoring = sorted(ids & IGNORES_CHARGES)
    if ignoring and cfg.charges != RunConfig.charges:
        print(f"notice: --charges does not apply to {', '.join(ignoring)}",
              file=sys.stderr)
    reports = _run_checks(sorted(ids), cfg)
    if reports is None:
        return 2
    if cfg.fmt == "json":
        for r in reports:
            print(json.dumps(r.as_dict()))
    else:
        print(f"{'check':<24} {'result':<7} {'monomials':>9} {'time':>8}")
        for r in reports:
            tag = "pass" if r.passed else "FAIL"
            print(f"{r.check_id:<24} {tag:<7} {r.compared:>9} "
                  f"{r.elapsed:>7.2f}s")
        failed = [r.check_id for r in reports if not r.passed]
        if failed:
            print(f"{len(failed)} failed: {', '.join(failed)}")
        else:
            print("all checks passed")
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvertex",
        description="Exact Hall-Littlewood tables and coefficient-exact "
                    "checks of the braided vertex-algebra identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    hl = sub.add_parser("hl", help="print Q_lambda in the power-sum or "
                                   "monomial basis")
    hl.add_argument("partitions", nargs="+", metavar="PARTITION",
                    help="comma-separated parts, e.g. 3,2,1")
    hl.add_argument("--basis", choices=("p", "m"), default="p")
    hl.add_argument("--nvars", type=int, default=None)

    vf = sub.add_parser("verify", help="run identity checks")
    vf.add_argument("selection", nargs="+", metavar="CHECK",
                    help=f"{', '.join(CHECK_IDS)}, or all")

    for p in (hl, vf):
        p.add_argument("--t-order", type=int, default=RunConfig.t_order)
        p.add_argument("--format", choices=("json", "text"),
                       default=RunConfig.fmt, dest="fmt")
    vf.add_argument("--gamma-order", type=int, default=RunConfig.gamma_order)
    vf.add_argument("--max-degree", type=int, default=RunConfig.degree_cap)
    vf.add_argument("--window", type=int, default=RunConfig.window)
    vf.add_argument("--charges", type=_charges, default=RunConfig.charges)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "hl":
        if args.t_order < 0 or (args.nvars is not None and args.nvars < 1):
            print("error: need t-order >= 0, nvars >= 1", file=sys.stderr)
            return 2
        return run_hl(args.partitions,
                      RunConfig(t_order=args.t_order, fmt=args.fmt),
                      nvars=args.nvars, basis=args.basis)
    cfg = RunConfig(t_order=args.t_order, gamma_order=args.gamma_order,
                    degree_cap=args.max_degree, window=args.window,
                    charges=tuple(args.charges), fmt=args.fmt)
    if (cfg.t_order < 0 or cfg.gamma_order < 0 or cfg.degree_cap < 0
            or cfg.window < 1):
        print("error: need t-order >= 0, gamma-order >= 0, "
              "max-degree >= 0, window >= 1", file=sys.stderr)
        return 2
    return run_verify(args.selection, cfg)


if __name__ == "__main__":
    sys.exit(main())
