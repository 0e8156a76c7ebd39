#!/usr/bin/env python3
"""Smoke test of tools/check_trajectory.py on temporary trajectory files.

A duplicate (pr, workload, metric) record, a workload that BENCHMARK.json
does not list, and a metric outside its end_to_end list must each make the
check exit 1; the same file without the fault must exit 0.

Usage:
  check_trajectory_rejects.py REPO_ROOT
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

RECORD = {"pr": 1, "workload": "sketch_large", "metric": "request_s_p50",
          "unit": "s", "parent": 1.0, "change": 0.9, "pairs": 10}

CASES = [
    ("clean", [RECORD], 0),
    ("duplicate record", [RECORD, dict(RECORD, change=0.8)], 1),
    ("unlisted workload", [dict(RECORD, workload="sketch_huge")], 1),
    ("unknown metric", [dict(RECORD, metric="request_s_p99")], 1),
]


def check(root, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.json"
        path.write_text(json.dumps({"records": records}), encoding="utf-8")
        return subprocess.run(
            [sys.executable, str(root / "tools" / "check_trajectory.py"),
             str(root), "--trajectory", str(path)],
            capture_output=True, text=True)


def main():
    root = Path(sys.argv[1])
    failed = 0
    for name, records, want in CASES:
        got = check(root, records)
        if got.returncode == want:
            print(f"ok: {name}: exit {want}")
        else:
            failed += 1
            print(f"FAIL: {name}: exit {got.returncode}, want {want}\n"
                  f"{got.stdout}{got.stderr}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
