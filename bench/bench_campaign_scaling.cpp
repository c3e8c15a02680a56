// E18 — campaign runner scaling: trials/sec for the eval-matrix workload
// (5 censor configs x 8 techniques = 40 independent trials, repeated
// until the -j1 run lasts kMinBaselineSeconds) at 1/2/4/8 worker
// threads, plus the headline correctness property: the campaign report
// (to_jsonl, including the merged metrics snapshot) is byte-identical at
// every thread count, in both shard modes, and under BOTH backends — the
// in-process thread pool and the forked process-shard workers (the
// sm-campaignd substrate).
//
// Prints per-run timings on stdout. Byte-identity is an invariant. The
// speedup_4x, proc_speedup_4x and proc_dyn_speedup_4x contrasts (floor
// 2.0, see report.hpp) are recorded only when the machine actually has
// >= 4 cores — an oversubscribed run still checks determinism, but its
// "speedup" is scheduling noise, not scaling data. They guard against
// accidental serialization through a global lock (threads) or the
// controller pipe (processes, both shard modes).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "report.hpp"

using namespace sm;

namespace {

// A -j1 run this long keeps worker start-up (threads, forks) a small
// part of every -j4 run, so the contrasts measure the pool.
constexpr double kMinBaselineSeconds = 0.2;

/// The 40-cell matrix, `repeats` times over consecutive trial indices.
std::vector<campaign::Trial> workload(size_t repeats) {
  std::vector<campaign::Trial> trials;
  auto techniques = bench::standard_techniques();
  for (size_t r = 0; r < repeats; ++r) {
    for (const auto& [name, config] : bench::eval_matrix_configs()) {
      auto batch = bench::technique_trials(name, config, techniques);
      trials.insert(trials.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    }
  }
  return trials;
}

struct Timed {
  size_t threads = 0;
  double seconds = 0.0;
  double trials_per_sec = 0.0;
  std::string jsonl;
};

Timed time_run(const std::vector<campaign::Trial>& trials, size_t threads,
               campaign::Shard shard,
               campaign::Backend backend = campaign::Backend::Thread) {
  campaign::CampaignOptions options;
  options.threads = threads;
  options.shard = shard;
  options.backend = backend;
  auto start = std::chrono::steady_clock::now();
  campaign::CampaignResult result = campaign::run(trials, options);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  Timed out;
  out.threads = threads;
  out.seconds = elapsed.count();
  out.trials_per_sec = static_cast<double>(trials.size()) / elapsed.count();
  out.jsonl = result.to_jsonl();
  if (result.failures != 0) {
    std::fprintf(stderr, "!!! %zu trial(s) failed at -j%zu\n",
                 result.failures, threads);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("campaign", argc, argv);
  size_t repeats = 1;
  std::vector<campaign::Trial> trials = workload(repeats);
  size_t hw = campaign::resolve_threads(0);

  // Warm-up pass (first-touch allocator and page-cache effects land
  // here, not in the -j1 baseline).
  time_run(trials, 1, campaign::Shard::ByIndex);

  // Size the workload for this host: grow the repeat count until the -j1
  // run lasts kMinBaselineSeconds; that run is the baseline.
  std::vector<Timed> runs;
  Timed j1 = time_run(trials, 1, campaign::Shard::ByIndex);
  while (j1.seconds < kMinBaselineSeconds) {
    size_t need = static_cast<size_t>(
        std::ceil(1.25 * kMinBaselineSeconds / j1.seconds * repeats));
    repeats = std::max(2 * repeats, need);
    trials = workload(repeats);
    j1 = time_run(trials, 1, campaign::Shard::ByIndex);
  }
  std::printf("E18 — campaign scaling: %zu eval-matrix trials (%zu x 40), "
              "hardware concurrency %zu\n\n",
              trials.size(), repeats, hw);
  runs.push_back(std::move(j1));
  std::printf("  -j1 (by-index): %7.3f s  %7.1f trials/s\n",
              runs.back().seconds, runs.back().trials_per_sec);
  for (size_t threads : {2, 4, 8}) {
    runs.push_back(time_run(trials, threads, campaign::Shard::ByIndex));
    std::printf("  -j%zu (by-index): %7.3f s  %7.1f trials/s\n", threads,
                runs.back().seconds, runs.back().trials_per_sec);
  }
  // One dynamic-shard run: same bytes, work-stealing balance.
  runs.push_back(time_run(trials, 4, campaign::Shard::Dynamic));
  std::printf("  -j4 (dynamic) : %7.3f s  %7.1f trials/s\n",
              runs.back().seconds, runs.back().trials_per_sec);
  // Process-shard backend (forked workers over pipes): the crash-safe
  // substrate must both scale and produce the same bytes.
  size_t first_proc = runs.size();
  for (size_t threads : {1, 4}) {
    runs.push_back(time_run(trials, threads, campaign::Shard::ByIndex,
                            campaign::Backend::Process));
    std::printf("  -j%zu (process) : %7.3f s  %7.1f trials/s\n", threads,
                runs.back().seconds, runs.back().trials_per_sec);
  }
  runs.push_back(time_run(trials, 4, campaign::Shard::Dynamic,
                          campaign::Backend::Process));
  std::printf("  -j4 (proc/dyn): %7.3f s  %7.1f trials/s\n",
              runs.back().seconds, runs.back().trials_per_sec);

  bool deterministic = true;
  for (const Timed& r : runs) {
    if (r.jsonl != runs.front().jsonl) deterministic = false;
  }
  double base = runs[0].trials_per_sec;
  // A speedup figure is only meaningful when the machine can actually
  // run that many workers in parallel.
  for (size_t i = 1; i < 4; ++i) {
    size_t threads = runs[i].threads;
    if (threads <= hw) {
      double speedup = runs[i].trials_per_sec / base;
      std::printf("speedup vs -j1 at -j%zu: %.2f\n", threads, speedup);
      if (threads == 4) metrics.contrast("speedup_4x", speedup, 2.0);
    } else {
      std::printf("speedup at -j%zu: skipped (only %zu hardware core(s); "
                  "determinism still checked)\n",
                  threads, hw);
    }
  }
  // Process-backend speedups vs the same -j1 thread baseline: a healthy
  // controller keeps the pipe protocol off the critical path, and the
  // Dynamic feed keeps every worker's window full.
  const Timed& proc4 = runs[first_proc + 1];
  const Timed& proc_dyn4 = runs[first_proc + 2];
  if (proc4.threads <= hw) {
    double speedup = proc4.trials_per_sec / base;
    std::printf("process-shard speedup vs -j1 at -j4: %.2f\n", speedup);
    metrics.contrast("proc_speedup_4x", speedup, 2.0);
    double dyn_speedup = proc_dyn4.trials_per_sec / base;
    std::printf("process-shard dynamic speedup vs -j1 at -j4: %.2f\n",
                dyn_speedup);
    metrics.contrast("proc_dyn_speedup_4x", dyn_speedup, 2.0);
  } else {
    std::printf("process-shard speedup at -j4: skipped (only %zu hardware "
                "core(s); determinism still checked)\n",
                hw);
  }
  // Byte-identical reports across -j, shard modes, and backends.
  metrics.require("deterministic", deterministic);
  return metrics.finish();
}
