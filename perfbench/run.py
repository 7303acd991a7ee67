#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload udp-echo-burst --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/perfbench with its build cache,
module cache and temporary files under the same directory, so the run
reads and writes only inside the checkout. Everything the program prints
is passed through; its last line is the JSON result. The exit code is
the program's: 0 for a correct run, non-zero otherwise (including a
failed build, which prints no result).
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build", "perfbench")
    for sub in ("gocache", "gomodcache", "tmp"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print(f"perfbench: build failed:\n{build.stdout}", file=sys.stderr)
        return 2

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", os.path.join(out, "spans"),
    ]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
