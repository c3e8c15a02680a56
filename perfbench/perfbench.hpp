// Shared pieces of the repository benchmark: run options, the report a
// workload fills, and timing / statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "spans.hpp"

namespace sm::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase; the traced pass (when on) runs as long
  /// again after it.
  double seconds = 10;
  bool trace = false;
  /// Self-test size: small batches and the smoke population.
  bool tiny = false;
  /// Where the traced pass writes its spans (JSON lines); empty = keep
  /// them in memory only.
  std::string spans_path;
};

/// What one workload run produced.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  /// Output checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Metric values by BENCHMARK.json name.
  std::map<std::string, double> metrics;
  /// Deterministic-output digests (common::crc32) of the untraced and
  /// traced passes.
  uint32_t digest = 0, traced_digest = 0;
  /// Trial wall times of the timed phase (the sample behind p50/p99).
  common::EmpiricalCdf walls_ms;
  /// Per-layer table rows of the traced pass: span name -> self time.
  std::map<std::string, Tracer::LayerTime> layers;
  size_t traced_trials = 0;
  int64_t traced_trial_ns = 0;

  void problem(std::string what) { problems.push_back(std::move(what)); }
};

/// Seconds of CPU used by this process plus its reaped children (forked
/// campaign workers).
double cpu_seconds();
/// Peak resident set in MB: the larger of this process's and its largest
/// reaped child's.
double peak_rss_mb();
double seconds_since(Clock::time_point start);

/// Per-layer counters summed over a pass, by metric name; the report
/// divides them by the pass's trial count.
using Counts = std::map<std::string, double>;
/// Adds the packet-copy counters (packet.copies.*) to `counts` and
/// zeroes them, so each call brackets the work since the previous one.
void take_copies(Counts& counts);

/// Median over windows of work[i] / time[i]: a throughput that a few
/// windows stalled by the host cannot drag.
double median_rate(const std::vector<double>& work,
                   const std::vector<double>& time);

/// Name of the root span every workload opens around one trial.
inline constexpr char kTrialSpan[] = "trial";

/// Fills the per-layer time metrics shared by every workload from the
/// traced pass: the table rows, `<span>_ms` self time per trial, and
/// trace.coverage_share (layer self time inside trial spans over trial
/// wall).
void summarize_trace(const Tracer& tracer, Report& report);

void run_synthetic(const Options& options, Report& report);
void run_eval_matrix(const Options& options, Report& report);
void run_simcheck(const Options& options, Report& report);
void run_population(const Options& options, Report& report);

}  // namespace sm::perfbench
