#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is compiled (CMake, Release)
into .bench_build/perfbench on first use and rebuilt incrementally after.
Build output goes to stderr; the binary's summary line and, last, its JSON
result go to stdout. With --trace 1 the spans of the run are also written to
.bench_build/perfbench/spans-<workload>-<seed>.json (Chrome/Perfetto format).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-{args.seed}.json")]
    try:
        # perfbench overshoots --seconds by at most one topology group plus
        # its warm-up group, a few seconds on the heaviest workload.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=args.seconds + 100, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}", done.returncode)

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unparsable result line: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}, expected {sorted(RESULT_KEYS)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
