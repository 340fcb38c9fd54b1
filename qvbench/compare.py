"""Compare two records written by ``run.py --out``.

    python3 qvbench/compare.py BASE.json NEW.json

Prints, per workload and metric present in both, the two values and
NEW/BASE.  Refuses (exit 2) when the records used different ``Rat``
backends: gmpy2's ``mpq`` and ``fractions.Fraction`` differ several-fold
in speed, so such a comparison measures the backend, not the change.
"""

from __future__ import annotations

import json
import sys


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(base: dict, new: dict) -> list:
    """Rows (workload, metric, unit, base value, new value, ratio)."""
    if base["meta"]["rat_backend"] != new["meta"]["rat_backend"]:
        raise ValueError(
            f"Rat backends differ: {base['meta']['rat_backend']} vs "
            f"{new['meta']['rat_backend']}; refusing to compare")
    new_by_name = {r["workload"]: r for r in new["records"]}
    rows = []
    for rec in base["records"]:
        other = new_by_name.get(rec["workload"])
        if other is None:
            continue
        for key, m in rec["metrics"].items():
            n = other["metrics"].get(key)
            if n is None:
                continue
            ratio = n["value"] / m["value"] if m["value"] else None
            rows.append((rec["workload"], key, m["unit"], m["value"],
                         n["value"], ratio))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[0]), load(argv[1]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for wl, key, unit, a, b, ratio in rows:
        r = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{wl:<14} {key:<40} {a:>12.6g} {b:>12.6g} {unit:<6} {r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
