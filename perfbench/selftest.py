#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size for one second,
untraced and traced, and fails (exit 1) if:
  * a run exits non-zero, or its last line is not the result object;
  * a run is incorrect or any operation failed (error_rate > 0);
  * a metric named in BENCHMARK.json is missing, unitless, carries another
    unit, or is not a finite number; an end-to-end metric reads 0;
  * the traced pass's output digest differs from the untraced one's, or
    the untraced digest differs between the two runs of a seed;
  * layer self time covers < 90% of trial wall on synthetic or
    eval_matrix.
It also checks that run.py exits non-zero without a result in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COVERAGE_FLOOR = {"synthetic": 0.9, "eval_matrix": 0.9}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc, label):
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"{label}: exit code 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{label}: last line is a JSON result")
        return None, {}
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result has exactly correct/attempted/failed/metrics")
    digests = dict(re.findall(r"^(digest|traced_digest) (\S+)$",
                              proc.stdout, re.M))
    return result, digests


def check_metrics(result, defs, label, nonzero):
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(d["name"] for d in defs),
          f"{label}: metrics are exactly the {len(defs)} named ones")
    for d in defs:
        m = metrics.get(d["name"], {})
        value = m.get("value")
        good = (m.get("unit") == d["unit"] and isinstance(value, (int, float))
                and math.isfinite(value) and (value != 0 or not nonzero))
        if not good:
            check(False, f"{label}: {d['name']} = {m} ({d['unit']})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        plain, plain_digests = result_of(run(w, 0), f"{w} --trace 0")
        traced, traced_digests = result_of(run(w, 1), f"{w} --trace 1")
        if plain is None or traced is None:
            continue
        for label, r in ((f"{w} --trace 0", plain), (f"{w} --trace 1", traced)):
            check(r["correct"] is True and r["failed"] == 0
                  and r["attempted"] >= 1,
                  f"{label}: correct, error_rate 0 "
                  f"({r['failed']}/{r['attempted']})")
        check_metrics(plain, bench["end_to_end"], f"{w} --trace 0", True)
        check_metrics(traced, bench["per_layer"], f"{w} --trace 1", False)
        digest = plain_digests.get("digest")
        check(digest is not None
              and traced_digests.get("digest") == digest
              and traced_digests.get("traced_digest") == digest,
              f"{w}: traced and untraced output digests equal ({digest})")
        floor = COVERAGE_FLOOR.get(w)
        if floor is not None:
            coverage = traced["metrics"]["trace.coverage_share"]["value"]
            check(coverage >= floor,
                  f"{w}: layer coverage {coverage:.3f} >= {floor}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("synthetic", 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "bare directory: run.py exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{'FAILED' if failures else 'PASSED'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
