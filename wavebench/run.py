#!/usr/bin/env python3
"""Builds and runs wavebench, the repository's benchmark.

Run from the root of a checkout:

    python3 wavebench/run.py --workload kv_fifo_wave --seed 1 \
        --seconds 20 --trace 0

It configures and builds wavebench/ (which compiles ../src) into
$CARGO_TARGET_DIR/wavebench, default .bench_build/wavebench, runs the
workload in one single-threaded child process, and prints the child's
output. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 1 the first traced
op's spans are written to .bench_build/wavebench/traces/ as Chrome
trace-event JSON.

Any checker report on the child's stderr (coherence violation,
virtual-time race, protocol violation) marks every op as failed; this
also covers rpc_slo_offload, whose checkers the benchmark cannot reach.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER_REPORTS = (
    "coherence violation",
    "virtual-time race",
    "protocol violation",
)
CHILD_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "wavebench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "wavebench"))
    if not build(build_dir):
        print("wavebench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "wavebench"), "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("wavebench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    lines = child.stdout.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(child.stdout)
        print("wavebench: run failed (exit %d)" % child.returncode,
              file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    reports = [line for line in child.stderr.splitlines()
               if any(r in line for r in CHECKER_REPORTS)]
    if reports:
        print("wavebench: %d checker report(s); every op fails"
              % len(reports), file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
