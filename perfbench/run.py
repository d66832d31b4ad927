#!/usr/bin/env python3
"""Whole-frame fleet benchmark driver.

Builds perfbench_fleet (and the witrack library it measures) from the
source tree this script sits in, then runs one workload:

    python3 perfbench/run.py --workload sim-fleet --seed 1 --seconds 20 --trace 0

The last line of stdout is the benchmark's JSON result. Other modes:

    python3 perfbench/run.py --all    # every workload, untraced then traced
    python3 perfbench/run.py --test   # the benchmark's own unit tests

Seeds: 1 is the default seed; 7919 is held out for confirming a claimed
gain on inputs the change was not tuned on.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench_fleet")

WORKLOADS = ["sim-fleet", "replay-session", "net-lossy"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then bring `targets` up to date (a no-op when built)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no witrack source tree at {ROOT}; nothing to benchmark")
        return False
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    for command in commands:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            log(f"build failed: {' '.join(command)}")
            return False
    return True


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", WORK_DIR]
    return subprocess.run(command).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                             "held out for confirming a claimed gain)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        if not build(["perfbench_stats_test", "perfbench_header_check"]):
            return 2
        return subprocess.run(["ctest", "--test-dir", BUILD_DIR, "-R", "perfbench",
                               "--output-on-failure"]).returncode
    if not args.all and args.workload is None:
        parser.error("--workload is required (or --all / --test)")
    if not build(["perfbench_fleet"]):
        return 2
    if not args.all:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)

    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            sys.stdout.flush()
            if run_workload(workload, args.seed, args.seconds, trace) != 0:
                failed.append(f"{workload} trace={trace}")
    if failed:
        log("failed: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
