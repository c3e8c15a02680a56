// Exploration driver: fan seeded trials out on the campaign worker
// pool, collect outcomes in trial-index order, shrink the failures.
//
// Determinism contract (same as campaign::run): every trial's scenario
// and seeds are pure functions of (root seed, trial index); results
// land in per-index slots and are folded on the calling thread after
// the pool joins, so the trial log and every counterexample are
// byte-identical for -j1 vs -jN.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcheck/runner.hpp"
#include "simcheck/shrink.hpp"

namespace sm::simcheck {

struct ExploreOptions {
  uint64_t seed = 0x51AC4EC0DEULL;
  size_t trials = 500;
  size_t threads = 1;  // worker pool width (0 = hardware concurrency)
  Faults faults;
  bool shrink = true;
};

/// Counterexamples kept (and shrunk) per exploration; exploration itself
/// always runs all trials.
inline constexpr size_t kMaxCounterexamples = 8;

struct Counterexample {
  size_t trial_index = 0;
  SeedPack seeds;
  std::string oracle;
  std::string detail;
  Scenario original;
  ShrinkResult shrunk;
};

struct ExploreResult {
  size_t trials = 0;
  size_t failed_trials = 0;
  /// One deterministic line per trial, in index order.
  std::vector<std::string> log;
  std::vector<Counterexample> counterexamples;
  /// Count of trials per oracle failure (diagnostic).
  size_t packets_checked = 0;

  bool ok() const { return failed_trials == 0; }
};

ExploreResult explore(const ExploreOptions& options);

}  // namespace sm::simcheck
