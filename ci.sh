#!/usr/bin/env bash
# CI entry point: the full correctness gate.
#
#   1. Debug build with ASan+UBSan (-DSM_SANITIZE=ON), full ctest — UB
#      and lifetime bugs fail loudly here;
#   2. Debug build with TSan (-DSM_TSAN=ON, mutually exclusive with
#      SM_SANITIZE), running the campaign/logging/obs tests — data races
#      in the campaign worker pool fail loudly here;
#   3. simcheck: the property-based scenario model-checker over >= 500
#      seeded trials in the ASan/UBSan build — all five safety oracles
#      green, -j1 and -j4 logs byte-identical, both address families
#      sampled by the exploration, both fault injections caught, and the
#      checked-in reproducer corpus replaying;
#   4. coverage: gcov build (-DSM_COVERAGE=ON), full ctest, then
#      tools/coverage_report.py enforces the line-coverage floors for
#      src/core, src/spoof, and src/obs;
#   5. perf smoke: Release build of the event-core, IDS fast-path,
#      population and campaign-scaling benches, run with --smoke. Each
#      gates itself through bench/report.hpp: anchors and invariants in
#      their bands, self-normalized contrasts at their floors and at
#      >= 0.8x the checked-in BENCH_<bench>.json. A failing bench gets
#      one fresh retry;
#   6. resume: the crash-safety gate — the resume-labeled checkpoint/
#      campaign tests under ASan/UBSan, then tools/crash_harness.py
#      kill -9s a Release 10k-trial sm-campaignd campaign at >= 20
#      seeded random points (workers, whole process group, and planned
#      mid-checkpoint-write faults) and requires the resumed output to
#      be byte-identical to an uninterrupted run;
#   7. tier-1 verify: the plain default build + ctest, exactly the
#      commands ROADMAP.md promises stay green;
#   8. bench: the repository benchmark's self-test (perfbench/selftest.py)
#      — every workload at tiny size, untraced and traced, correct with
#      no failed operation, every declared metric present, and the output
#      digests equal across traced/untraced passes and repeated runs.
#
#   ./ci.sh            # all stages
#   ./ci.sh sanitize   # stage 1 only
#   ./ci.sh tsan       # stage 2 only
#   ./ci.sh simcheck   # stage 3 only
#   ./ci.sh coverage   # stage 4 only
#   ./ci.sh perf       # stage 5 only
#   ./ci.sh resume     # stage 6 only
#   ./ci.sh tier1      # stage 7 only
#   ./ci.sh bench      # stage 8 only
#   ./ci.sh obs        # observability-labeled tests, then sm-explain's
#                      # narrative, --list and --chrome modes over the
#                      # censored provenance goldens (fast focus loop for
#                      # metrics/provenance work)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")" && pwd)"
STAGE="${1:-all}"

if [ "$STAGE" = "all" ] || [ "$STAGE" = "sanitize" ]; then
  echo "=== stage 1: Debug + ASan/UBSan ==="
  cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Debug -DSM_SANITIZE=ON
  cmake --build "$ROOT/build-asan" -j
  # --schedule-random shakes out hidden inter-test ordering dependencies.
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$(nproc)" \
        --schedule-random
  # The dual-stack gate, explicitly: the v6-labeled suites (codec fuzz
  # sweep, fragment differential, IDS equivalence, goldens) must exist
  # and pass under ASan/UBSan — an empty label is a wiring regression.
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$(nproc)" \
        -L v6 --no-tests=error
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "tsan" ]; then
  echo "=== stage 2: Debug + TSan (campaign concurrency tests) ==="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Debug -DSM_TSAN=ON
  cmake --build "$ROOT/build-tsan" -j
  # The concurrency surface: the campaign runner itself plus the shared
  # layers its workers touch concurrently (logging, metrics merge) — and
  # the codec fuzz sweeps, which are cheap and worth a second sanitizer.
  # TimerWheel/PacketView ride along: the packet copy counters are the
  # one atomic the zero-copy path added, and the wheel's dispatch loop
  # is timing-sensitive enough to deserve every sanitizer we have.
  # Provenance rides along: the campaign carries per-trial graph exports
  # across worker threads and byte-compares them, a racy-merge magnet.
  # CampaignResume/Checkpoint: the checkpoint writer is shared by the
  # whole worker pool behind one mutex — exactly the kind of surface
  # TSan exists for.
  # The v6 sweeps ride along too (PacketFuzz covers the Ipv6 cases,
  # Fragment6/Reassembler6/FastpathEquivalence add the fragment and IDS
  # dual-stack differentials): cheap, and mixed-family campaign
  # determinism (ProvenanceCampaign.MixedFamily*) is exactly a worker
  # pool surface.
  ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$(nproc)" \
        --schedule-random \
        -R '(Campaign|CampaignResume|Checkpoint|Logging|Merge|PacketFuzz|TimerWheel|PacketView|Provenance|Fragment6|Reassembler6|FastpathEquivalence)'
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "simcheck" ]; then
  echo "=== stage 3: simcheck model-checking (ASan/UBSan build) ==="
  cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Debug -DSM_SANITIZE=ON
  cmake --build "$ROOT/build-asan" -j --target simcheck
  SIMCHECK="$ROOT/build-asan/src/simcheck/simcheck"
  SEED=0x51AC4EC0DE
  # 500 seeded scenarios, all five oracles green, -j1 == -j4 bytewise.
  "$SIMCHECK" --seed "$SEED" --trials 500 -j1 --log > /tmp/simcheck-j1.log
  "$SIMCHECK" --seed "$SEED" --trials 500 -j4 --log > /tmp/simcheck-j4.log
  if ! diff -q /tmp/simcheck-j1.log /tmp/simcheck-j4.log; then
    echo "!!! simcheck logs differ between -j1 and -j4" >&2
    exit 1
  fi
  # The exploration must actually exercise both address families — a
  # generator regression that silently stops sampling v6 (or v4) would
  # otherwise leave the dual-stack oracles untested.
  for fam in v4 v6; do
    if ! grep -q "family=$fam" /tmp/simcheck-j1.log; then
      echo "!!! simcheck exploration log has no family=$fam trials" >&2
      exit 1
    fi
  done
  # The sabotages must be caught and shrink to small reproducers.
  "$SIMCHECK" --seed "$SEED" --trials 64 -j4 --fault break-verdict \
              --expect-counterexample --max-elements 6
  "$SIMCHECK" --seed "$SEED" --trials 64 -j4 --fault ttl-plus-one \
              --expect-counterexample
  # The checked-in corpus replays: each reproducer still fails its named
  # oracle with the fault on, and passes clean with it off.
  "$SIMCHECK" --replay "$ROOT/tests/corpus"
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "coverage" ]; then
  echo "=== stage 4: line coverage (gcov build + floors) ==="
  cmake -B "$ROOT/build-cov" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Debug -DSM_COVERAGE=ON
  cmake --build "$ROOT/build-cov" -j
  # Fresh counters per run: stale .gcda from a previous tree would
  # inflate (or after a refactor, corrupt) the aggregate.
  find "$ROOT/build-cov" -name '*.gcda' -delete
  ctest --test-dir "$ROOT/build-cov" -j "$(nproc)"
  # Floors sit ~2 points under the measured line coverage of each scope
  # so regressions trip the gate while routine drift does not.
  python3 "$ROOT/tools/coverage_report.py" "$ROOT/build-cov" \
          --floor src/core=91 --floor src/spoof=89 --floor src/obs=85
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "perf" ]; then
  echo "=== stage 5: perf smoke (Release, gated by bench/report.hpp) ==="
  cmake -B "$ROOT/build-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-release" -j \
        --target bench_event_core bench_ids_fastpath bench_population \
        bench_campaign_scaling
  # Shared runners throttle unpredictably; one bad measurement window
  # shouldn't fail the build, so a failed bench gets one fresh re-run
  # before it counts. The campaign speedup floors engage only on
  # machines with >= 4 cores.
  for bench in event_core ids_fastpath population campaign_scaling; do
    bin="$ROOT/build-release/bench/bench_$bench"
    "$bin" "/tmp/smoke-$bench.json" --smoke || {
      echo "--- bench_$bench failed; retrying once with a fresh run ---"
      "$bin" "/tmp/smoke-$bench.json" --smoke
    }
  done
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "resume" ]; then
  echo "=== stage 6: crash-safety (kill/resume fault injection) ==="
  # 6a: the resume-labeled suites (checkpoint codec round-trips,
  # truncation/corruption sweeps, library resume byte-identity,
  # process-vs-thread differential determinism) under ASan/UBSan — the
  # torn-tail and fork/pipe paths are exactly where lifetime bugs hide.
  cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Debug -DSM_SANITIZE=ON
  cmake --build "$ROOT/build-asan" -j --target test_checkpoint \
        test_campaign_resume
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$(nproc)" \
        -L resume
  # 6b: the end-to-end gate — kill -9 a Release 10k-trial supervised
  # campaign at >= 20 seeded random points (worker kills, whole-group
  # kills, and --fault-byte-budget crashes landing mid-checkpoint-write),
  # resume each time by relaunching sm-campaignd, and byte-diff the
  # final JSONL + metrics against an uninterrupted run. Bounded by the
  # harness's --max-launches stuck detector; seeded for replayability.
  cmake -B "$ROOT/build-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-release" -j \
        --target sm-campaignd sm-campaign-worker
  python3 "$ROOT/tools/crash_harness.py" --build "$ROOT/build-release" \
          --trials 10000 --jobs 4 --kills 20 --seed 1
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "tier1" ]; then
  echo "=== stage 7: tier-1 verify (default build) ==="
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j
  ctest --test-dir "$ROOT/build" --output-on-failure -j "$(nproc)" \
        --schedule-random
fi

if [ "$STAGE" = "all" ] || [ "$STAGE" = "bench" ]; then
  echo "=== stage 8: benchmark self-test ==="
  python3 "$ROOT/perfbench/selftest.py"
fi

if [ "$STAGE" = "obs" ]; then
  echo "=== focus: observability-labeled tests + sm-explain ==="
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j --target test_obs test_provenance sm-explain
  ctest --test-dir "$ROOT/build" --output-on-failure -j "$(nproc)" -L obs
  # sm-explain over the censored goldens in all three modes. The Chrome
  # export must load with Python's json module, which rejects raw
  # control characters, and hold at least one "X" span.
  EXPLAIN="$ROOT/build/tools/sm-explain"
  for golden in provenance_censored provenance_censored_v6; do
    in="$ROOT/tests/golden/$golden.json"
    # Captured first: grep -q quitting early would SIGPIPE the writer.
    narrative="$("$EXPLAIN" --trace "$in")"
    grep -q '^verdict: ' <<< "$narrative"
    listing="$("$EXPLAIN" --trace "$in" --list)"
    grep -q 'events=' <<< "$listing"
    "$EXPLAIN" --trace "$in" --chrome "/tmp/$golden.chrome.json"
    python3 - "/tmp/$golden.chrome.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
if not any(e["ph"] == "X" for e in events):
    sys.exit(sys.argv[1] + ": no X span")
PY
  done
fi

echo "ci.sh: all requested stages passed"
