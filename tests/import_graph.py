"""Fail if importing qvertex and qvertex.cli loads a module of HEAVY, or if
passing checks then load fractions or pickle.

dataclasses pulls in inspect, which brings ast, dis, tokenize and
linecache; fractions brings decimal and numbers.  Together they were most
of the package's import time.  The engine's coefficients are ints, so no
check that passes needs fractions, and verify's forked workers send their
reports back marshalled, so the command's process needs pickle only when a
check raised.  After the import this script runs, in this interpreter,
the seven checks at the CLI defaults for the charge pairs 1,1, 1,2 and
2,1, the two-point checks at long t-series and the three-point checks on
wide windows, and `qvertex verify all`.  Run it in a fresh interpreter;
each module it finds is printed with the module that imported it.

Usage: python -I tests/import_graph.py
"""

import contextlib
import io
import os
import sys

HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "numbers")
# what the checks below may not load either
UNUSED_BY_CHECKS = ("fractions", "pickle")

CHARGE_PAIRS = ((1, 1), (1, 2), (2, 1))
# (check function, keyword arguments, whether it takes the charge pair)
LONG_T_SERIES = (
    ("check_braided_commutativity",
     {"t_order": 24, "window": 4, "degree_cap": 8}, True),
    ("check_braided_commutativity",
     {"a": 2, "b": 1, "t_order": 24, "window": 4, "degree_cap": 6}, False),
    ("check_translation_covariance",
     {"t_order": 16, "g_order": 3, "window": 3, "degree_cap": 7}, True),
)
WIDE_WINDOWS = (
    ("check_braided_jacobi", {"t_order": 1, "window": 6, "degree_cap": 11},
     False),
    ("check_expansion_consistency",
     {"t_order": 1, "window": 7, "degree_cap": 10}, False),
)


class _Witness:
    """A meta-path finder that finds nothing and notes who asked for each
    module it watches."""

    def __init__(self, names):
        self.names = names
        self.importers = {}

    def find_spec(self, name, path=None, target=None):
        if name in self.names and name not in self.importers:
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith("<frozen importlib"):
                frame = frame.f_back
            self.importers[name] = frame.f_globals.get("__name__")
        return None


def _run_checks():
    """Run the checks; raise if one does not pass."""
    from qvertex import cli, verifier
    reports = [verifier.run_check(cid, charges=pair)
               for pair in CHARGE_PAIRS for cid in verifier.CHECK_IDS]
    for fn, kwargs, takes_pair in LONG_T_SERIES + WIDE_WINDOWS:
        for pair in CHARGE_PAIRS if takes_pair else ((),):
            reports.append(getattr(verifier, fn)(
                **kwargs, **dict(zip("ab", pair))))
    failed = [str(r) for r in reports if not r.passed]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if cli.main(["verify", "all"]) != 0:
            failed.append("qvertex verify all")
    if failed:
        raise AssertionError(f"checks failed: {failed}")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    before = set(sys.modules)
    witness = _Witness(HEAVY + UNUSED_BY_CHECKS)
    sys.meta_path.insert(0, witness)
    try:
        import qvertex  # noqa: F401
        import qvertex.cli  # noqa: F401
        loaded = [m for m in HEAVY if m in sys.modules and m not in before]
        for m in loaded:
            print(f"import qvertex, qvertex.cli loaded {m}, imported by "
                  f"{witness.importers.get(m)}")
        _run_checks()
    finally:
        sys.meta_path.remove(witness)
    by_checks = [m for m in UNUSED_BY_CHECKS
                 if m in sys.modules and m not in before and m not in loaded]
    for m in by_checks:
        print(f"the checks loaded {m}, imported by "
              f"{witness.importers.get(m)}")
    return 1 if loaded or by_checks else 0


if __name__ == "__main__":
    sys.exit(main())
