"""Dead-code guard: every public module-level function and class and every
public method of the package is used somewhere besides its own definition,
every exception class of the package is raised by it, and the package's
``__all__`` resolves."""

import ast
import re
from pathlib import Path

import qvertex
from qvertex import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qvertex"


def _corpus():
    """Text of every file that may reference a public name."""
    files = [ROOT / "README.md"]
    for sub in ("src", "tests", "qvbench"):
        files += sorted((ROOT / sub).rglob("*.py"))
        files += sorted((ROOT / sub).rglob("*.md"))
    return {f: f.read_text().splitlines() for f in files if f.is_file()}


def _public_definitions():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                yield path, node


def _public_methods():
    for path, cls in _public_definitions():
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and \
                        not node.name.startswith("_"):
                    yield path, node


def _unreferenced(definitions, pattern):
    """Definitions whose pattern matches no line outside their own body."""
    corpus = _corpus()
    unused = []
    for path, node in definitions:
        word = re.compile(pattern.format(re.escape(node.name)))
        own = range(node.lineno - 1, node.end_lineno)
        for f, lines in corpus.items():
            if any(word.search(line) for i, line in enumerate(lines)
                   if f != path or i not in own):
                break
        else:
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_public_names_are_referenced():
    unused = _unreferenced(_public_definitions(), r"\b{}\b")
    assert not unused, f"public names with no reference: {unused}"


def test_public_methods_are_referenced():
    # a method counts as used when some line reads it as ``.name``; reads
    # through ``self`` and attribute stores are left out, because a slot or
    # field of the same name on another class produces those too
    unused = _unreferenced(_public_methods(),
                           r"(?<!self)\.{}\b(?!\s*=[^=])")
    assert not unused, f"public methods with no .name reference: {unused}"


def test_every_exception_is_raised():
    # an exception class the package never raises names an error that
    # cannot happen
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    unraised = [name for name, cls in vars(errors).items()
                if isinstance(cls, type)
                and issubclass(cls, errors.QVertexError)
                and cls is not errors.QVertexError
                and not re.search(rf"raise {name}\b", source)]
    assert not unraised, f"exception classes never raised: {unraised}"


def test_all_resolves():
    assert qvertex.__all__
    for name in qvertex.__all__:
        assert getattr(qvertex, name) is not None, name
