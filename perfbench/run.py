#!/usr/bin/env python3
"""Builds picloud_perfbench from this checkout's sources and runs it.

    python3 perfbench/run.py --workload fleet_k8|flash_crowd|fuzz_sweep|all \
        [--seed N] [--seconds S] [--trace 0|1] [--check-determinism]

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run); its log goes to stderr so that the last
line of stdout is the benchmark's JSON result. With --trace 1 the spans are
written to .bench_build/perfbench/traces/<workload>-seed<N>.json. Exits
non-zero without a result when the sources are missing or do not build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "picloud_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "picloud_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed")
    parser.add_argument("--trace", default="0")
    args, _ = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY] + sys.argv[1:]
    if args.trace == "1" and "--trace-out" not in sys.argv:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (args.workload, args.seed or "default")
        command += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
