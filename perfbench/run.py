#!/usr/bin/env python3
"""Builds and runs the perfbench driver from this checkout's sources.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out results.jsonl]
    python3 perfbench/run.py --selftest

Run from the root of the checkout. The library and driver are built with
CMake into .bench_build/perfbench (incremental after the first run). The
driver's stdout is passed through unchanged: `fingerprint {...}` and
`validity {...}` lines and, last, the result JSON. With --out, one record
(workload, seed, seconds, trace, fingerprint, valid, result) is appended per
run for perfbench/compare.py, stamped with the times the run started and
ended.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to perfbench/ (CMakeLists.txt and src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", help="append a result record to this JSONL file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")

    build()
    work = os.path.join(ROOT, ".bench_build", "work")
    if args.selftest:
        cmd = [BINARY, "--selftest", "--work-dir", work]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if args.selftest:
        return

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("fingerprint", "validity"):
            tagged[tag] = json.loads(rest)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": int(args.trace), "started": started, "ended": time.time(),
                  "fingerprint": tagged.get("fingerprint"),
                  "valid": tagged.get("validity", {}).get("valid", False), "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
