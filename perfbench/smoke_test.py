#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

Builds the benchmark, then runs every workload at a tiny size, untraced and
traced. Each run must end with a well-formed result line whose output
checks all passed ("correct": true), and must emit every metric that
BENCHMARK.json names: the end-to-end metrics untraced, the per-layer ones
traced. Takes about two minutes, most of it in the transport probe that
ages one connection by 10k streams.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step is shared with run.py)

WORKLOADS = ("remote_cold", "fleet_stream", "bulk_lossy")
TINY_SECONDS = 0.5  # 30 pages, 300 fetches, 2 bulk pages
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_once(workload, trace):
    command = [run.BINARY, "--workload", workload, "--seed", "7",
               "--seconds", str(TINY_SECONDS), "--trace", str(trace),
               "--trace-dir", run.TRACE_DIR]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        return None, "exit code %d" % proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as err:
        return None, "last line is not JSON: %s" % err


def check(result, expected, label):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("an output check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for entry in expected:
        metric = metrics.get(entry["name"])
        if metric is None:
            problems.append("missing metric %s" % entry["name"])
        elif metric.get("unit") != entry["unit"]:
            problems.append("%s unit %r" % (entry["name"], metric.get("unit")))
        elif not isinstance(metric.get("value"), (int, float)) or \
                not math.isfinite(metric["value"]):
            problems.append("%s value %r" % (entry["name"], metric.get("value")))
    extra = set(metrics) - {entry["name"] for entry in expected}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    for problem in problems:
        print("FAIL %s: %s" % (label, problem))
    return not problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        print("FAIL: build")
        return 1
    ok = True
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            result, error = run_once(workload, trace)
            if error:
                print("FAIL %s: %s" % (label, error))
                ok = False
                continue
            passed = check(result, expected, label)
            ok = ok and passed
            if passed:
                print("ok   %s (%d ops, %d failed)" % (label, result["attempted"],
                                                      result["failed"]))
    print("smoke test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
