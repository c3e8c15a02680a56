#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. The first run
configures and builds the stealthmeter libraries and the sm_perfbench program
in Release under `.bench_build/` at the checkout root; later runs only
rebuild what changed. The program's output is passed through unchanged:
a human-readable summary, then one JSON result line, printed last.

With `--trace 1` the program also writes the traced pass's spans to
`.bench_build/spans-<workload>.jsonl`.

Exits non-zero without printing a result when the repository sources are
missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "sm_perfbench")
WORKLOADS = ("synthetic", "eval_matrix", "simcheck", "population")


def build():
    """Configures (once) and builds sm_perfbench; build logs go to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "sm_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: small batches, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("src/CMakeLists.txt", "bench/bench_util.hpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    # On SIGTERM, raise out of subprocess.run, which then kills and reaps
    # sm_perfbench before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # A child process, not exec: sm_perfbench reads its own and its forked
    # workers' peak RSS from getrusage, which must not include the build.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
