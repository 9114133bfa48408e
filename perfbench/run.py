#!/usr/bin/env python3
"""Builds the m3perf benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lr_inram --seed 1 --seconds 10 --trace 0

The driver (perfbench/m3perf.cc) is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), together
with the library compiled from src/. Inputs are generated under
.bench_data/ and removed afterwards; a traced run (--trace 1) leaves its
spans in .bench_out/. The last line of stdout is the result JSON:
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when the build fails, a result mismatches its reference, or no result
was produced. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("lr_inram", "lr_outofcore", "sparse_lr_outofcore", "kmeans_fleet")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds m3perf; returns the binary path."""
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", build_dir, "-j", BUILD_JOBS]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "m3perf")


def run_driver(command):
    """Runs the driver in its own process group; kills the group on timeout
    and returns (exit code, stdout lines)."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        output, _ = process.communicate()
        log("m3perf timed out after %d s" % RUN_TIMEOUT_S)
        return 1, output.splitlines()
    finally:
        # Fleet workers share the group; none may outlive the run.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return process.returncode, output.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 2

    data_dir = os.path.join(root, ".bench_data",
                            "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", data_dir]
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace_out", os.path.join(
            out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        code, lines = run_driver(command)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    result = parse_result(lines)
    if result is None:
        log("m3perf produced no result (exit %d)" % code)
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
