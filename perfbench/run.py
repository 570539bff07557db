#!/usr/bin/env python3
"""Wall-clock benchmark of the Marsit reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <images-resnet20|text-wide|socket-ring>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the repository's src/ libraries) in
.bench_build/ -- or $CARGO_TARGET_DIR when set -- on first use, then runs one
measurement.  Build output goes to stderr; the last stdout line is the
result JSON {correct, attempted, failed, metrics}.  --trace 1 also writes the
run's spans as chrome://tracing JSON into the build directory.  The tail
rule's own test runs with `ctest --test-dir .bench_build`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("images-resnet20", "text-wide", "socket-ring")
# A run measures for --seconds plus set-up and checks; anything far beyond
# that is a wedged collective, not a slow machine.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "perfbench_tail_test"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    if not build(out):
        return 1
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
