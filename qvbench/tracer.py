"""Outside-in tracer for the qvertex modules.

The tracer never edits the program: it replaces, in every loaded
``qvertex`` module that binds it, each public function of each module and
the arithmetic methods of the coefficient classes with a timing wrapper.
A wrapper keeps per-name aggregates (calls, inclusive time, self time);
self time is the wrapper's interval minus the intervals of the wrapped
calls it made, so time in unwrapped helpers and in the standard library
(``fractions.Fraction`` included) lands on the nearest wrapped caller.

Module-level functions are layer boundaries and each call is also kept as
a span (name, start, end, parent) in memory, written out at the end.  The
class methods and the scalars layer's t-polynomial helpers are the hot
arithmetic (hundreds of thousands of calls per workload), so they are
aggregated only and leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

# module suffix -> layer name; rationals holds only a type alias for Rat,
# so Fraction time lands in whichever layer calls it
LAYERS = ("cli", "verifier", "engine", "fock", "laurent", "symfunc",
          "scalars")

# classes whose methods are wrapped, aggregated without spans
CLASSES = {"scalars": ("TScalar",), "symfunc": ("SymFuncP", "XPoly"),
           "fock": ("FockVector",), "laurent": ("LaurentChunk",
                                                "FactorProduct")}
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__")

# checker function -> report check_id
CHECK_FUNCS = {
    "check_vacuum": "vacuum",
    "check_braided_commutativity": "braided-commutativity",
    "check_translation_covariance": "translation",
    "check_expansion_consistency": "expansion",
    "check_braided_jacobi": "jacobi",
    "check_classical_limit": "classical",
    "check_hl_against_oracle": "hl-oracle",
}
ORACLE_FUNCS = ("symfunc.hl_q_oracle", "symfunc.p_to_x")


class Tracer:
    """Aggregates and spans for one traced interpreter."""

    def __init__(self):
        self.stats: dict = {}     # key -> [calls, inclusive_s, self_s]
        self.counters: dict = {}  # extra work counts, e.g. pair loops
        self.check_s: dict = {}   # check_id -> inclusive seconds
        self.spans: list = []     # (key, start, end, parent index or -1)
        self._stack: list = []    # frames [child_s, span index]

    # -- installation

    def install(self):
        """Wrap the public functions and class arithmetic of every loaded
        qvertex module, at every module that binds them."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "qvertex" or name.startswith("qvertex.")}
        replace: dict = {}   # id(original) -> wrapper; originals stay alive
        for layer in LAYERS:
            mod = mods.get(f"qvertex.{layer}")
            if mod is None:
                raise RuntimeError(f"qvertex.{layer} is not loaded")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replace[id(obj)] = self._wrap_function(
                    f"{layer}.{name}", obj, span=layer != "scalars")
            for cls_name in CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(mod, cls_name))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])

    def _wrap_class(self, layer, cls):
        done: dict = {}
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            fn, kind = raw, None
            if isinstance(raw, (classmethod, staticmethod)):
                fn, kind = raw.__func__, type(raw)
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                key = "laurent.expand" if (
                    cls.__name__ == "FactorProduct" and name == "expand") \
                    else f"{layer}.{cls.__name__}.{fn.__name__}"
                done[id(fn)] = self._wrap(key, fn,
                                          span=key == "laurent.expand",
                                          post=_POST.get(key))
            wrapped = done[id(fn)]
            setattr(cls, name, kind(wrapped) if kind else wrapped)

    def _wrap_function(self, key, fn, span):
        if inspect.isgeneratorfunction(fn):
            # a generator runs interleaved with its consumer, so only its
            # calls are counted and its time stays with the caller
            stats = self.stats.setdefault(key, [0, 0.0, 0.0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted
        return self._wrap(key, fn, span=span, post=_POST.get(key))

    def _wrap(self, key, fn, span, post=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if span:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[idx] = (key, t0, t1, parent)
            if post is not None:
                post(self, args, result, dur)
            return result
        return wrapper

    # -- results

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def layer_self(self, layer) -> float:
        return sum(s[2] for k, s in self.stats.items()
                   if k.split(".", 1)[0] == layer)

    def calls(self, key) -> int:
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def self_s(self, key) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[2]

    def total_s(self, key) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def outermost_s(self, keys) -> float:
        """Inclusive time of the spans named in keys that have no ancestor
        span named in keys."""
        keys = set(keys)
        total = 0.0
        for key, t0, t1, parent in self.spans:
            if key not in keys:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in keys:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced interpreter, by name."""
        c = self.counters
        pairs = c.get("laurent.mul_raw.pairs", 0)
        out = {}
        for check_id in CHECK_FUNCS.values():
            out[f"verifier.check_s.{check_id}"] = self.check_s.get(
                check_id, 0.0)
        out.update({
            "verifier.self_s": self.layer_self("verifier"),
            "verifier.compared": c.get("verifier.compared", 0),
            "engine.evaluate.calls": self.calls("engine.evaluate"),
            "engine.evaluate.self_s": self.self_s("engine.evaluate"),
            "engine.y_product.calls": self.calls("engine.y_product"),
            "engine.y_product.s": self.total_s("engine.y_product"),
            "engine.y_apply.calls": self.calls("engine.y_apply"),
            "engine.y_apply.self_s": self.self_s("engine.y_apply"),
            "engine.jing_Q.s": self.outermost_s(("engine.jing_Q",)),
            "engine.self_s": self.layer_self("engine"),
            "laurent.mul_raw.calls": self.calls("laurent.mul_raw"),
            "laurent.mul_raw.self_s": self.self_s("laurent.mul_raw"),
            "laurent.mul_raw.pairs": pairs,
            "laurent.mul_raw.out_terms": c.get("laurent.mul_raw.out_terms",
                                               0),
            "laurent.mul_raw.kept_ratio": (
                c.get("laurent.mul_raw.out_terms", 0) / pairs
                if pairs else 0.0),
            "laurent.expand.calls": self.calls("laurent.expand"),
            "laurent.expand.self_s": self.self_s("laurent.expand"),
            "laurent.laurent_mul.calls": self.calls("laurent.laurent_mul"),
            "laurent.self_s": self.layer_self("laurent"),
            "fock.apply_D.calls": self.calls("fock.apply_D"),
            "fock.apply_D.self_s": self.self_s("fock.apply_D"),
            "fock.exp_D_chunk.s": self.total_s("fock.exp_D_chunk"),
            "fock.add.calls": self.calls("fock.FockVector.__add__"),
            "fock.scale.calls": self.calls("fock.FockVector.scale"),
            "fock.mul.calls": self.calls("fock.FockVector.__mul__"),
            "fock.self_s": self.layer_self("fock"),
            "symfunc.mul.calls": self.calls("symfunc.SymFuncP.__mul__"),
            "symfunc.mul.self_s": self.self_s("symfunc.SymFuncP.__mul__"),
            "symfunc.mul.term_pairs": c.get("symfunc.mul.term_pairs", 0),
            "symfunc.add.calls": self.calls("symfunc.SymFuncP.__add__"),
            "symfunc.scale.calls": self.calls("symfunc.SymFuncP.scale"),
            "symfunc.self_s": self.layer_self("symfunc"),
            "symfunc.oracle_s": self.outermost_s(ORACLE_FUNCS),
            "scalars.mul.calls": self.calls("scalars.TScalar.__mul__"),
            "scalars.mul.self_s": self.self_s("scalars.TScalar.__mul__"),
            "scalars.add.calls": self.calls("scalars.TScalar.__add__"),
            "scalars.add.self_s": self.self_s("scalars.TScalar.__add__"),
            "scalars.scale.calls": self.calls("scalars.TScalar.scale"),
            "scalars.scale.self_s": self.self_s("scalars.TScalar.scale"),
            "scalars.self_s": self.layer_self("scalars"),
            "cli.self_s": self.layer_self("cli"),
        })
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out once the run has ended."""
        return {"stats": {k: list(v) for k, v in sorted(self.stats.items())},
                "counters": dict(sorted(self.counters.items())),
                "spans": [list(s) for s in self.spans]}


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "cache_info"))


def _post_mul_raw(tracer, args, result, dur):
    a, b = args[0], args[1]
    tracer.count("laurent.mul_raw.pairs", len(a.terms) * len(b.terms))
    tracer.count("laurent.mul_raw.out_terms", len(result.terms))


def _post_check(tracer, args, result, dur):
    cid = result.check_id
    tracer.check_s[cid] = tracer.check_s.get(cid, 0.0) + dur
    tracer.count("verifier.compared", result.compared)


def _post_sym_mul(tracer, args, result, dur):
    self, other = args[0], args[1]
    if type(other) is type(self):
        tracer.count("symfunc.mul.term_pairs",
                     len(self.terms) * len(other.terms))


_POST = {"laurent.mul_raw": _post_mul_raw,
         "symfunc.SymFuncP.__mul__": _post_sym_mul}
_POST.update({f"verifier.{name}": _post_check for name in CHECK_FUNCS})
