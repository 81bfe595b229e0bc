#!/usr/bin/env python3
"""Builds cbsim_bench from this checkout's sources, then runs it.

    python3 bench/e2e/run.py --workload halo-16k --seed 1 --seconds 40 --trace 0

Every argument is passed to cbsim_bench unchanged (see README.md).  The
build lands in .bench_build/cbsim_bench at the root of the checkout; build
output goes to standard error so the benchmark's last standard-output line
stays its result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "cbsim_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources at " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "cbsim_bench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    sys.stderr.flush()
    binary = os.path.join(BUILD, "cbsim_bench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
