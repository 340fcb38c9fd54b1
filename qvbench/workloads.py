"""The benchmark's workloads: what each repetition runs, drawn from the seed,
and the verdict each call must return.

A repetition is a list of calls sent to a fresh interpreter.  A call is
either ``{"argv": [...]}`` (``qvertex.cli.main``) or ``{"fn": name,
"kwargs": {...}}`` (a ``qvertex.verifier`` check function).  Each call
carries the verdicts it must produce as ``expect``: a list of
``[check_id, compared, passed]``.  The child sees only the calls.

Why these three workloads, and which per-layer numbers each should move,
is written down in README.md beside this file.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
CHARGE_PAIRS = ((1, 1), (1, 2), (2, 1))

# compared per check at CLI defaults (T=8, G=3, cap 9, W=5); it depends
# only on the windows, so it is the same for every charge pair
SUITE_COMPARED = {
    "braided-commutativity": 121, "classical": 211, "expansion": 308,
    "hl-oracle": 30, "jacobi": 1331, "translation": 484, "vacuum": 22,
}

# Long t-series on the two-point checks: TScalar multiplication dominates.
# "pair" marks the calls that take the repetition's charge pair.
DEEP_T = (
    ("check_braided_commutativity",
     {"t_order": 24, "window": 4, "degree_cap": 8}, "pair",
     "braided-commutativity", 81),
    ("check_braided_commutativity",
     {"a": 2, "b": 1, "t_order": 24, "window": 4, "degree_cap": 6}, None,
     "braided-commutativity", 81),
    ("check_translation_covariance",
     {"t_order": 16, "g_order": 3, "window": 3, "degree_cap": 7}, "pair",
     "translation", 196),
)

# Short t-series and wide windows on the three-point checks: the Jacobi
# delta-convolution adds and scales many length-2 series.
WIDE_WINDOW = (
    ("check_braided_jacobi", {"t_order": 1, "window": 6, "degree_cap": 11},
     None, "jacobi", 2197),
    ("check_expansion_consistency",
     {"t_order": 1, "window": 7, "degree_cap": 10}, None, "expansion", 570),
)

# The AC-10 mutation trio, run once per invocation outside any timed
# section: each must fail with a witness.
MUTATIONS = (
    {"fn": "check_braided_commutativity",
     "kwargs": {"a": 1, "b": 1, "t_order": 2, "window": 4, "degree_cap": 8,
                "mutate_sign": True},
     "expect": [["braided-commutativity", 81, False]]},
    {"fn": "check_braided_jacobi",
     "kwargs": {"t_order": 2, "window": 3, "degree_cap": 8,
                "drop_s_gamma": True},
     "expect": [["jacobi", 343, False]]},
    {"fn": "check_vacuum",
     "kwargs": {"t_order": 3, "window": 6, "degree_cap": 8,
                "d_charge_coeff": [1]},
     "expect": [["vacuum", 22, False]]},
)

WORKLOADS = ("suite-default", "deep-t", "wide-window")


class Plan:
    """The seed's draw for one workload: a cycle of charge pairs (repetition
    k runs the k-th pair, modulo 3) and an order of the calls.

    Every run therefore covers the three pairs in a seed-drawn order, so a
    run's median does not hinge on which single pair the seed drew.  The
    default seed keeps the pairs and calls in the order written above,
    whose first repetition is the parameter set of the workload's
    description.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        n_calls = {"suite-default": 1, "deep-t": len(DEEP_T),
                   "wide-window": len(WIDE_WINDOW)}[workload]
        if seed == DEFAULT_SEED:
            self.pairs = list(CHARGE_PAIRS)
            self.order = list(range(n_calls))
        else:
            rng = random.Random(seed)
            self.pairs = rng.sample(CHARGE_PAIRS, len(CHARGE_PAIRS))
            self.order = rng.sample(range(n_calls), n_calls)

    def calls(self, rep: int) -> list:
        """The calls of repetition rep, with their expected verdicts."""
        a, b = self.pairs[rep % len(self.pairs)]
        if self.workload == "suite-default":
            # the CLI sorts the checks itself, so only the pair varies
            argv = ["verify", "all"]
            if (a, b) != (1, 1):
                argv += ["--charges", f"{a},{b}"]
            return [{"argv": argv,
                     "expect": [[cid, n, True] for cid, n
                                in sorted(SUITE_COMPARED.items())]}]
        table = DEEP_T if self.workload == "deep-t" else WIDE_WINDOW
        out = []
        for i in self.order:
            fn, kwargs, takes_pair, cid, compared = table[i]
            kwargs = dict(kwargs)
            if takes_pair:
                kwargs.update(a=a, b=b)
            out.append({"fn": fn, "kwargs": kwargs,
                        "expect": [[cid, compared, True]]})
        return out
