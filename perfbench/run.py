#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); a traced run also writes its spans there, to
spans-<workload>.jsonl. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails. `--workload all` runs every workload in
turn and prints their metrics as one table instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analysis_wan", "readv_lan", "small_ops_lan", "bulk_wan")
# A run measures at most 60 s plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if args.workload != "all":
        sys.stdout.write(run_workload(binary, build_dir, args.workload, args))
        return
    print("%-14s %-34s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        result = json.loads(run_workload(binary, build_dir, workload,
                                         args).splitlines()[-1])
        print("%-14s %-34s %16s" % (workload, "correct", result["correct"]))
        for name, metric in result["metrics"].items():
            print("%-14s %-34s %16.6g  %s" % (workload, name, metric["value"],
                                            metric["unit"]))


def run_workload(binary, build_dir, workload, args):
    """Runs one workload; returns its stdout, or exits on failure."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, "spans-%s.jsonl" % workload)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit("perfbench: %s exited with %d" % (workload, run.returncode))
    return run.stdout


if __name__ == "__main__":
    main()
