#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lep4-synth --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  The first run configures and builds perfbench/ in
Release into .bench_build/perfbench/build, later runs rebuild
incrementally.  All build output goes to stderr; stdout carries the
benchmark's provenance and detail lines and, last, its one-line JSON
result.  Extra arguments after the four standard ones (--quick,
--break CHECK) are passed to the benchmark binary unchanged.

Exit status: the binary's (0 correct, 1 a correctness check tripped),
or 2 when the sources are missing, the build fails, the run times out
or the result line is malformed.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench", "build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    # Build chatter goes to stderr so stdout ends with the result line.
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    for required in ("src/game/solver.h", "examples/models/lep.tg",
                     "examples/models/smart_light_safety.tg"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("missing %s: run from a full checkout of the repository"
                 % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
             BUILD_TIMEOUT_S)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip() + (
                    "-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "examples/models", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    cmd = [BINARY] + argv + ["--source-id", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with status %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    trace = argv[argv.index("--trace") + 1] != "0" if "--trace" in argv else False
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ want))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
