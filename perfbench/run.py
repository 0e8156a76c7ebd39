#!/usr/bin/env python3
"""Repository benchmark: build the runner from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; build output goes to stderr. The runner's
last line of standard output is the result JSON. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("sketch_large", "cli_roundtrip", "batch_small", "sap_solve")


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    cmake_dir = os.path.join(build_dir, "cmake")
    # Configure every time: cheap when nothing changed, and it picks up
    # targets added or renamed since the build tree was made.
    subprocess.run(
        ["cmake", "-S", src, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_runner", "sketch_tool"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(cmake_dir, "perfbench_runner"),
            os.path.join(cmake_dir, "rsketch", "examples", "sketch_tool"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no rsketch sources next to perfbench/",
              file=sys.stderr)
        return 1
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        runner, tool = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    runs = os.path.join(build_dir, "perfbench-runs")
    traces = os.path.join(build_dir, "perfbench-traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sketch-tool", tool, "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, f"trace_{args.workload}_seed{args.seed}.json")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
