#!/usr/bin/env python3
"""Builds the launch benchmark from source and runs one workload.

Usage (from the repository root):
    python3 launchbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/launchbench (default
.bench_build/launchbench). Cache databases (work/), run records and trace
files (out/) and temporary files (tmp/) go under the same directory. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "launchbench")
    # Keep the compiler's and the benchmark's temporary files inside the
    # checkout as well.
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "launchbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("launchbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "launchbench")
    args = sys.argv[1:] + [
        "--work-dir", os.path.join(build_root, "work"),
        "--out-dir", os.path.join(build_root, "out"),
    ]
    sys.stdout.flush()
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
