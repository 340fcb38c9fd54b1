"""Print each report of a JSON-lines file without its ``elapsed`` field,
the one field that differs between two runs of the same checks.

Usage: python tests/strip_elapsed.py REPORTS.jsonl | diff - GOLDEN.jsonl
"""

import json
import sys


def main(path: str):
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            d.pop("elapsed")
            print(json.dumps(d))


if __name__ == "__main__":
    main(sys.argv[1])
