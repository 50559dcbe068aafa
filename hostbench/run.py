#!/usr/bin/env python3
"""Build and run the DynMR host-cost benchmark.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library (from src/) and the benchmark into .bench_build/hostbench; later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails (for instance when src/ is missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BUILD_TIMEOUT_S = 840


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed ({done.returncode})",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build("hostbench_checks_test"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "hostbench_checks_test")]).returncode
    if not build("hostbench"):
        return 1
    # The binary parses and validates the flags; it writes its trace output
    # under the current directory, the checkout root.
    return subprocess.run([os.path.join(BUILD, "hostbench")] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
