"""Fail if importing qvertex and qvertex.cli loads dataclasses or inspect.

dataclasses pulls in inspect, which brings ast, dis, tokenize and
linecache: about half of the package's import time.  The check imports
the package in this interpreter, so run it in a fresh one; each module of
HEAVY that the import adds is printed with the module that imported it.

Usage: python -I tests/import_graph.py
"""

import os
import sys

HEAVY = ("dataclasses", "inspect")


class _Witness:
    """A meta-path finder that finds nothing and notes who asked for each
    module of HEAVY."""

    def __init__(self):
        self.importers = {}

    def find_spec(self, name, path=None, target=None):
        if name in HEAVY and name not in self.importers:
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith("<frozen importlib"):
                frame = frame.f_back
            self.importers[name] = frame.f_globals.get("__name__")
        return None


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    before = set(sys.modules)
    witness = _Witness()
    sys.meta_path.insert(0, witness)
    import qvertex  # noqa: F401
    import qvertex.cli  # noqa: F401
    sys.meta_path.remove(witness)
    added = [m for m in HEAVY if m in sys.modules and m not in before]
    for m in added:
        print(f"import qvertex, qvertex.cli loaded {m}, imported by "
              f"{witness.importers.get(m)}")
    return 1 if added else 0


if __name__ == "__main__":
    sys.exit(main())
