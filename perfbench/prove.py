#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread over ten seeds.

    python3 perfbench/prove.py
    python3 perfbench/prove.py --out perfbench/baseline.json

Runs `perfbench/run.py --trace 0` once per workload of BENCHMARK.json and
seed 1-10, for BENCHMARK.json's run_seconds, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median.

A spread at or above the metric's bound leaves the metric unresolved:
the bound could not tell a regression from noise. That fails the proof
(exit 1), as does any incorrect run or failed operation. A spread at or
above a third of the bound is marked "wide", the steadiness the benchmark
aims for; it does not fail the proof. setup_s's spread is shown but not
held to either: its medians, not its spread, are compared.

--out records a baseline: the machine's core count, the build type, the
seeds, and each metric's median, quartiles and per-seed values. Seeds
1-10 are the development seeds (1 is the default); HELD_OUT_SEED is kept
out of them for confirming a later claim on a seed the change was not
tuned on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
DEFAULT_SEED = 1
HELD_OUT_SEED = 20151116


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the medians and spreads as JSON")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            r = run_once(workload, seed, seconds)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}")
            results.append(r)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload} ({len(SEEDS)} seeds, {seconds} s): "
              f"error_rate {failed / attempted:g} ({failed}/{attempted})")
        print(f"  {'metric':16} {'unit':>10} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] == "setup_s":
                flag = "  (not held)"
            elif spread >= m["bound"]:
                flag = "  UNRESOLVED"
                ok = False
            elif spread >= m["bound"] / 3:
                flag = "  wide"
            print(f"  {m['name']:16} {m['unit']:>10} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {m['bound']:6g}{flag}")
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                            "spread": spread,
                                            "unit": m["unit"],
                                            "values": values}
    if args.out:
        cache = os.path.join(ROOT, ".bench_build", "CMakeCache.txt")
        with open(cache) as f:
            build_type = next(line.split("=", 1)[1].strip() for line in f
                              if line.startswith("CMAKE_BUILD_TYPE:"))
        baseline = {"hw_concurrency": os.cpu_count(),
                    "build_type": build_type,
                    "run_seconds": seconds, "seeds": SEEDS,
                    "default_seed": DEFAULT_SEED,
                    "held_out_seed": HELD_OUT_SEED, "workloads": summary}
        with open(args.out, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
