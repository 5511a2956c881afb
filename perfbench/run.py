#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload (or all).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the library
sources plus perfbench/src, Release) under $CARGO_TARGET_DIR, or .bench_build
when it is unset; later calls only re-check the build.  The last line of
standard output is the program's JSON result; with --workload all, one result
line per workload is printed and the exit code is non-zero if any failed.

The program's set-up time (setup_s) runs from its launch, stamped here with
time.monotonic_ns() and passed as --launched-ns, to its first call into the
engine.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["dense_sweep", "farfield_large", "shadowed_power",
             "stability_sweep"]
# Beyond --seconds a run needs time for its last repetition and, with
# --trace 1, for three passes over the workload (about 70 s for
# farfield_large on a 4-vCPU Xeon VM).
RUN_MARGIN_S = 150


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure (once) and build the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine",
                                       "batch_runner.h")):
        sys.stderr.write("perfbench: library sources (src/) not found next "
                         "to perfbench/\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-G", "Unix Makefiles"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode != 0:
            return False
    return True


def run_one(binary, out_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(BENCH_DIR, "digests.txt"),
           "--workdir", os.path.join(out_dir, "work", workload)]
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=args.seconds + RUN_MARGIN_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(out_dir, "perfbench")

    status = 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, out = run_one(binary, out_dir, workload, args)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            status = code
    return status


if __name__ == "__main__":
    sys.exit(main())
