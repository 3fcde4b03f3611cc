#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-room --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The runner and the program's libraries are compiled with CMake into
`.bench_build/` (or $CARGO_TARGET_DIR when set) on the first run; later
runs only re-check that build. Build output goes to stderr, so the last
line of stdout is the runner's JSON result. Exits non-zero without a
result when the program sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 1
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_selftest" if selftest else "perfbench"
    try:
        if not build(build_dir, target):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except OSError as error:  # cmake missing
        print(f"perfbench: cannot build: {error}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    args = [] if selftest else sys.argv[1:]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
