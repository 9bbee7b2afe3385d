#!/usr/bin/env python3
"""Quick self-check of the benchmark (about a minute).

    python3 perfbench/tests/selfcheck.py

Runs every workload once untraced and once traced at reduced size
(--quick: LEP N=3, short phases) and checks that the result line is
well formed, correct, and carries exactly the metrics BENCHMARK.json
names with their units.  Then checks that each --break mode trips its
correctness check (exit 1, "correct": false), and that a directory
holding only BENCHMARK.json and perfbench/ fails without printing a
result.  Exits 1 on the first set of failures, listing them.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BREAKS = [("lep4-synth", "synth"), ("campaign-mix", "campaign"),
          ("campaign-mix", "campaign-json"), ("lep4-serve", "serve")]


def run(cwd, args, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            proc = run(ROOT, ["--workload", workload, "--seed", "7",
                              "--seconds", "2", "--trace", str(trace),
                              "--quick"])
            result = result_of(proc)
            if proc.returncode != 0 or result is None:
                failures.append("%s: exit %d\n%s" % (tag, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            if set(result) != RESULT_KEYS:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append("%s: not correct: %s" % (tag, result))
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            got = result["metrics"]
            if set(got) != set(want):
                failures.append("%s: metrics differ: %s"
                                % (tag, sorted(set(got) ^ set(want))))
                continue
            for name, m in got.items():
                value = m.get("value")
                if m.get("unit") != want[name]:
                    failures.append("%s: %s unit %r" % (tag, name, m.get("unit")))
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append("%s: %s value %r" % (tag, name, value))
                elif not trace and value <= 0:
                    failures.append("%s: %s reads %r" % (tag, name, value))
            print("ok  %s" % tag)

    for workload, check in BREAKS:
        tag = "%s --break %s" % (workload, check)
        proc = run(ROOT, ["--workload", workload, "--seed", "7", "--seconds",
                          "1", "--trace", "0", "--quick", "--break", check])
        result = result_of(proc)
        if proc.returncode != 1 or result is None or result["correct"] \
                or result["failed"] == 0:
            failures.append("%s: check did not trip (exit %d): %s"
                            % (tag, proc.returncode, proc.stdout[-500:]))
        else:
            print("ok  %s (failed %d of %d)"
                  % (tag, result["failed"], result["attempted"]))

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, ["--workload", "lep4-synth", "--seed", "1", "--seconds",
                      "1", "--trace", "0"], timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc) is not None:
        failures.append("bare directory: exit %d, stdout %r"
                        % (proc.returncode, proc.stdout[-300:]))
    else:
        print("ok  bare directory fails (exit %d)" % proc.returncode)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
