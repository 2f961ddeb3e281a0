#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary is configured and built under .bench_build/perfbench
(a no-op after the first run). Its standard output passes through; the
last line is the JSON result. Per-run reports and span dumps land in
.bench_build/results. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "tsviz_perfbench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data-size multiplier (the self-test runs tiny)")
    parser.add_argument("--corrupt-sample", action="store_true",
                        help="damage one sampled reply (self-test)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    tmp_dir = os.path.join(BUILD_ROOT, "tmp", f"run-{os.getpid()}")
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scale", str(args.scale),
           "--out", os.path.join(BUILD_ROOT, "results"),
           "--tmp", tmp_dir,
           "--describe", git_describe()]
    if args.corrupt_sample:
        cmd.append("--corrupt-sample")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
