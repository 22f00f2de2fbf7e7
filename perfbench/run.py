#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (the library and the `bugassist` CLI from src/ and tools/,
plus the perfbench binary) as a Release build under .bench_build/perfbench,
runs the binary, and relays its output. The last line of standard output is
the JSON result; run.py checks that its metric names are exactly the ones
BENCHMARK.json lists for the mode, and prints no result otherwise.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds; the build log goes to a file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                return False, log_path
        rc = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "-j4", "--target"] + targets,
            stdout=log, stderr=subprocess.STDOUT)
    return rc == 0, log_path


def commit_id():
    """The git commit when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the files the build reads, in path order."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    for needed in ("src/core/Pipeline.h", "tools/bugassist.cpp",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from the root of a full checkout" % needed)
    if os.path.abspath(os.getcwd()) != ROOT:
        fail("run from the root of the checkout (%s)" % ROOT)

    if args.selftest:
        ok, log = build(["perfbench_selftest"])
        if not ok:
            fail("build failed; see " + log)
        sys.exit(subprocess.call([os.path.join(BUILD_DIR,
                                               "perfbench_selftest")]))

    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("need --workload, --seed, --seconds and --trace")
    want, spec = expected_metrics(args.trace == 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    ok, log = build(["perfbench", "bugassist_cli"])
    if not ok:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed; see " + log)

    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--cli", os.path.join(BUILD_DIR, "bugassist"),
           "--commit", commit_id(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with status %d" % proc.returncode)
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last, file=sys.stderr)
        fail("perfbench printed no JSON result")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or got != want:
        print(last, file=sys.stderr)
        fail("result keys or metric names differ from BENCHMARK.json")
    print(last)


if __name__ == "__main__":
    main()
