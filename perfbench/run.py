#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload snapshot|archive|targeted \
        --seed N --seconds S --trace 0|1 [--out DIR]

The benchmark is a cargo package of its own (perfbench/Cargo.toml) built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr; the benchmark's result is the last line of stdout. Exits
non-zero, without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "dpz-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
