#!/usr/bin/env python3
"""Check the committed perf trajectory (BENCH_trajectory.json) is well formed.

The file keeps one record per perf-relevant change: which change (its PR
number), which perfbench workload and end-to-end metric, the parent's and the
change's median over the measured run pairs, and how many pairs there were.
This check only loads the file with the json module and checks those fields;
it measures nothing.

Exit codes: 0 ok, 1 missing or malformed.

Usage:
  check_trajectory.py [REPO_ROOT]   (default: the parent of this script's dir)
"""

import json
import sys
from pathlib import Path

FIELDS = {
    "pr": int,
    "workload": str,
    "metric": str,
    "parent": (int, float),
    "change": (int, float),
    "pairs": int,
}


def problems(doc):
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        return ["no non-empty 'records' list"]
    found = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            found.append(f"record {i} is not an object")
            continue
        for key, kind in FIELDS.items():
            value = rec.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                found.append(f"record {i}: '{key}' missing or not "
                             f"{getattr(kind, '__name__', 'a number')}")
        if isinstance(rec.get("pairs"), int) and rec["pairs"] < 1:
            found.append(f"record {i}: 'pairs' must be >= 1")
    return found


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent)
    path = root / "BENCH_trajectory.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 1
    found = problems(doc)
    for p in found:
        print(f"error: {path.name}: {p}", file=sys.stderr)
    if not found:
        print(f"{path.name}: {len(doc['records'])} records")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
