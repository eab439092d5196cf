#!/usr/bin/env python3
"""Builds smdb's benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady_long --seed 1 --seconds 20 --trace 0

The driver (perfbench/main.cc, linked against libsmdb from src/) is built
incrementally into .bench_build/ at the repository root; build output goes
to stderr. The driver's stdout passes through unchanged, so its last line is
the run's JSON result. With --trace 1 the recorded spans are written to
.bench_build/spans-<workload>-<seed>.tsv. Any build or check failure exits
non-zero without printing a result.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("steady_long", "crash_cycle", "fuzz_campaign")
# A run measures for --seconds plus at most a few seconds of checks; the
# limit keeps a hung run from outliving the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j4", "--target", "smdb_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(BUILD / "smdb_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans-out",
                str(BUILD / f"spans-{a.workload}-{a.seed}.tsv")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {a.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
