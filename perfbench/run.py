#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload remote_cold --seed 1 --seconds 30 --trace 0

The benchmark (perfbench/src) and the repository's libraries (src/) are
compiled from source into .bench_build/perfbench with CMake on the first
run; later runs only re-check the build. Build output goes to stderr. The
benchmark's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the
benchmark's spans and the proxies' request traces are written as Chrome
trace JSON under .bench_build/traces.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/ next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-dir", TRACE_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
