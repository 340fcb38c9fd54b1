"""Fail if some public function or class of qvertex is run by no command.

A profile hook, installed before qvertex.cli is imported so that calls made
at import time count, notes every Python code object that runs while
``cli.main`` goes through COMMANDS: each check alone on a small window, a
text-format verify at other charges, and the ``hl`` tables in both bases
and both formats.  Each command selects at most one check outside
``cli.CHEAP``, so every check runs in this process and none in a forked
worker the hook cannot see.

A public module-level function is reached when its code runs.  A public
class is reached when code of its own body runs or when it is built by a
Python ``__new__`` or ``__init__``, inherited ones included.  A class with
no Python code in its bases or its body (the exception classes of
``errors``) cannot be entered and is not watched; ``test_dead_code``
checks that each exception is raised.  Each name of the package that is
not reached, and not in ALLOWED, is printed, and the exit status is 1.

Usage: python -I tests/reachability.py
"""

import contextlib
import io
import os
import sys

SMALL = ("--window", "3", "--max-degree", "5", "--t-order", "3")
CHECKS = ("braided-commutativity", "classical", "expansion", "hl-oracle",
          "jacobi", "translation", "vacuum")
COMMANDS = tuple(("verify", check) + SMALL for check in CHECKS) + (
    ("verify", "braided-commutativity") + SMALL
    + ("--charges", "1,2", "--format", "text"),
) + tuple(("hl", "3,1", "2,2", "--basis", basis, "--format", fmt)
          for basis in ("p", "m") for fmt in ("json", "text"))

# name -> why no command runs it
ALLOWED = {
    "scalars.TScalar": "the benchmark tracer wraps its methods by name",
    "scalars.ts_invert": "inverts a TScalar, kept with the class",
    "symfunc.orbit_sum": "the hl-oracle check prints a mismatch with it; "
                         "test_hl_oracle_perturbed_report_golden pins it",
}


def _codes(obj):
    """The code objects of the functions a module-level obj defines."""
    fn = getattr(obj, "__wrapped__", obj)
    if hasattr(fn, "__code__"):
        return {fn.__code__}
    if not isinstance(obj, type):
        return set()
    out = set()
    for attr in vars(obj).values():
        for f in (getattr(attr, "__func__", None), getattr(attr, "fget", None),
                  attr):
            if hasattr(f, "__code__"):
                out.add(f.__code__)
    return out


def _constructible(cls) -> bool:
    """Whether building cls runs Python code."""
    ctors = (vars(c).get(name) for c in cls.__mro__
             for name in ("__new__", "__init__"))
    return any(hasattr(getattr(f, "__func__", f), "__code__") for f in ctors)


def _unreached(modules, entered, built):
    out = []
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            codes = _codes(obj)
            watched = codes or isinstance(obj, type) and _constructible(obj)
            if watched and obj not in built and not codes & entered:
                out.append(f"{short}.{name}")
    return out


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    entered, built = set(), set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        entered.add(code)
        # the class a constructor builds is its first argument, or the
        # type of it for __init__; "_cls" is namedtuple's generated __new__
        if code.co_argcount and (code.co_name in ("__new__", "__init__")
                                 or code.co_varnames[0] == "_cls"):
            first = frame.f_locals[code.co_varnames[0]]
            cls = type(first) if code.co_name == "__init__" else first
            if isinstance(cls, type):
                built.add(cls)

    failed = []
    sys.setprofile(hook)
    try:
        from qvertex import cli
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(list(argv)) != 0:
                    failed.append(" ".join(argv))
    finally:
        sys.setprofile(None)
    for argv in failed:
        print(f"qvertex {argv} did not exit 0")
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("qvertex.")]
    names = _unreached(modules, entered, built)
    unreached = [n for n in names if n not in ALLOWED]
    for name in unreached:
        print(f"no command reaches {name}")
    stale = [n for n in ALLOWED if n not in names]
    for name in stale:
        print(f"allowed but reached, or gone: {name}")
    return 1 if failed or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
