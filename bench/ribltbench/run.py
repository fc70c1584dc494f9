#!/usr/bin/env python3
"""Build ribltbench from source and run one workload.

    python3 bench/ribltbench/run.py --workload small --seed 7 --seconds 20 --trace 0

Builds bench/ribltbench (and the library from the same tree) in
$CARGO_TARGET_DIR/ribltbench, default .bench_build/ribltbench, then runs the
binary once. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). The full result, fingerprint included, stays in the
build directory. Exits nonzero, printing no result, when the build or the
run fails or a metric is missing; exits nonzero after printing the result
when a diff was wrong.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 700  # the first run in a fresh checkout builds
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds incrementally; returns the binary."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=deadline - time.monotonic())
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ribltbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=deadline - time.monotonic())
    return os.path.join(build_dir, "ribltbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("small", "bulk", "churn", "unpaced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "ribltbench")
    try:
        t0 = time.monotonic()
        exe = build(build_dir)
        log(f"build ready in {time.monotonic() - t0:.1f} s")
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out = os.path.join(build_dir, f"result-{args.workload}-{args.seed}-"
                                  f"{'trace' if args.trace else 'e2e'}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(build_dir, 'trace')}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ribltbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if not os.path.exists(out):
        log(f"ribltbench exited {proc.returncode} without a result")
        return 1

    with open(out) as f:
        (result,) = json.load(f)["workloads"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))):
            log(f"metric {m['name']} ({m['unit']}) missing from the result")
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
