#!/usr/bin/env python3
"""Builds statleak's benchmark from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 statbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 statbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root, in Release mode; build output goes to stderr so that the last line of
stdout stays the benchmark's JSON result. `--self-test` additionally checks
that the metric names and units the binary declares are the ones
BENCHMARK.json lists. Exits non-zero, without a result, when the build fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "statbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    out = build_dir()
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DSTATLEAK_WERROR=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd) != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step = ["cmake", "--build", out, "--target", "statbench", "-j", jobs]
    if run_quiet(step) != 0:
        return None
    return os.path.join(out, "statbench")


def check_declared_metrics(binary):
    """The binary's metric list must equal BENCHMARK.json's, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {(kind, m["name"], m["unit"])
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    got = {tuple(line.split()) for line in listed if line.strip()}
    for missing in sorted(want - got):
        print(f"self-test: BENCHMARK.json metric not produced: {missing}",
              file=sys.stderr)
    for extra in sorted(got - want):
        print(f"self-test: produced metric not in BENCHMARK.json: {extra}",
              file=sys.stderr)
    return want == got


def main(argv):
    binary = build()
    if binary is None:
        print("statbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(os.path.dirname(build_dir()), "statbench-work")
    code = subprocess.run([binary, *argv, "--work-dir", work_dir],
                          cwd=ROOT).returncode
    if code == 0 and "--self-test" in argv:
        code = 0 if check_declared_metrics(binary) else 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
