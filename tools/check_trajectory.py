#!/usr/bin/env python3
"""Check the committed perf trajectory (BENCH_trajectory.json) is well formed.

The file keeps one record per perf-relevant change: which change (its PR
number), which perfbench workload and end-to-end metric, the parent's and the
change's median over the measured run pairs, and how many pairs there were.
This check only loads the file with the json module and checks those fields;
it measures nothing. It also rejects a second record for the same
(pr, workload, metric), a workload that BENCHMARK.json does not list, and a
metric that is not one of BENCHMARK.json's end_to_end metrics.

Exit codes: 0 ok, 1 missing or malformed.

Usage:
  check_trajectory.py [REPO_ROOT] [--trajectory FILE]
    REPO_ROOT   default: the parent of this script's dir; BENCHMARK.json is
                read from it
    FILE        default: REPO_ROOT/BENCH_trajectory.json
"""

import argparse
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


def problems(doc, benchmark):
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        return ["no non-empty 'records' list"]
    workloads = {w.get("name") for w in benchmark.get("workloads", [])}
    metrics = {m.get("name") for m in benchmark.get("end_to_end", [])}
    found = []
    first = {}
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
        workload, metric = rec.get("workload"), rec.get("metric")
        if isinstance(workload, str) and workload not in workloads:
            found.append(f"record {i}: workload '{workload}' is not listed "
                         "in BENCHMARK.json")
        if isinstance(metric, str) and metric not in metrics:
            found.append(f"record {i}: metric '{metric}' is not an "
                         "end_to_end metric of BENCHMARK.json")
        key = (rec.get("pr"), workload, metric)
        if key in first:
            found.append(f"record {i}: duplicate of record {first[key]} "
                         f"(pr {key[0]}, {workload}, {metric})")
        else:
            first[key] = i
    return found


def load(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("root", nargs="?",
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--trajectory", default=None)
    args = ap.parse_args()
    root = Path(args.root)
    path = Path(args.trajectory) if args.trajectory else (
        root / "BENCH_trajectory.json")
    benchmark = load(root / "BENCHMARK.json")
    doc = load(path)
    if benchmark is None or doc is None:
        return 1
    found = problems(doc, benchmark)
    for p in found:
        print(f"error: {path.name}: {p}", file=sys.stderr)
    if not found:
        print(f"{path.name}: {len(doc['records'])} records")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
