// The `simcheck` workload: what simcheck's explore runs per trial —
// SeedPack::derive, generate_scenario, then run_scenario under all five
// oracles — over consecutive trial indices from the root seed, on one
// thread, until the timed phase ends. Derive + generate for a window of
// indices is the window's trial list, its set-up; the trial is
// run_scenario.
//
// The deterministic output is the trial log (one TrialOutcome::log_line
// per index). Its first lines are re-run after the timed phase and must
// repeat; the traced pass must reproduce every line the two passes share.
//
// The counters come from the scenario run's metrics snapshot (simcheck
// turns observability on), which describes the oracle-judged execution;
// the O2 re-run and O4 twin inside run_scenario are not visible from
// here.
#include <algorithm>

#include "common/recordio.hpp"
#include "packet/copy_stats.hpp"
#include "perfbench.hpp"
#include "simcheck/generate.hpp"
#include "simcheck/json.hpp"
#include "simcheck/runner.hpp"

namespace sm::perfbench {

namespace {

/// Consecutive trials per window of the throughput medians.
constexpr size_t kWindowTrials = 64;

/// Adds the per-layer counters found in a Testbed metrics snapshot.
void add_snapshot_counts(const std::string& metrics_json, Counts& counts) {
  static const std::map<std::string, std::string> kLayerOf = {
      {"sm_netsim_events_executed_total", "netsim.events"},
      {"sm_router_forwarded_total", "netsim.hops"},
      {"sm_link_dropped_loss_total", "netsim.link_drops"},
      {"sm_link_dropped_burst_total", "netsim.link_drops"},
      {"sm_link_dropped_down_total", "netsim.link_drops"},
      {"sm_link_dropped_corrupt_total", "netsim.link_drops"},
      {"sm_mvr_packets_seen_total", "surveillance.packets"},
      {"sm_mvr_noise_alerts_total", "surveillance.alerts"},
      {"sm_mvr_interesting_alerts_total", "surveillance.alerts"},
      {"sm_censor_packets_seen_total", "censor.packets"},
      {"sm_censor_rst_packets_injected_total", "censor.injections"},
      {"sm_censor_dns_responses_forged_total", "censor.injections"},
      {"sm_censor_blockpages_injected_total", "censor.injections"},
      {"sm_ids_fastpath_candidates_total/censor",
       "ids.censor_fastpath_candidates"},
      {"sm_ids_payload_scans_total/censor", "ids.censor_payload_scans"},
      {"sm_ids_payload_scans_total/mvr", "ids.mvr_payload_scans"},
      {"sm_provenance_events_total", "obs.provenance_events"},
  };
  auto doc = simcheck::Json::parse(metrics_json);
  const simcheck::Json* list = doc ? doc->get("metrics") : nullptr;
  if (list == nullptr) return;
  for (const simcheck::Json& m : list->items()) {
    const simcheck::Json* name = m.get("name");
    const simcheck::Json* labels = m.get("labels");
    const simcheck::Json* value = m.get("value");
    if (name == nullptr || value == nullptr) continue;
    std::string key = name->as_string();
    if (const simcheck::Json* instance =
            labels ? labels->get("instance") : nullptr)
      key += "/" + instance->as_string();
    auto layer = kLayerOf.find(key);
    if (layer != kLayerOf.end()) counts[layer->second] += value->as_double();
  }
}

/// One trial's input, as explore derives it from the root seed and index.
struct Planned {
  simcheck::SeedPack seeds;
  simcheck::Scenario scenario;
};

/// The trial list of indices [first, first + count): the set-up.
std::vector<Planned> plan(uint64_t root_seed, size_t first, size_t count,
                          Tracer* tracer) {
  std::vector<Planned> list(count);
  for (size_t k = 0; k < count; ++k) {
    ScopedSpan s(tracer, "simcheck.generate", first + k);
    list[k].seeds = simcheck::SeedPack::derive(root_seed, first + k);
    list[k].scenario = simcheck::generate_scenario(list[k].seeds.generator,
                                                   list[k].seeds.family);
  }
  return list;
}

simcheck::TrialOutcome run_trial(const Planned& p, size_t index,
                                 Tracer* tracer) {
  ScopedSpan trial(tracer, kTrialSpan, index);
  ScopedSpan s(tracer, "simcheck.scenario", index);
  return simcheck::run_scenario(p.scenario, p.seeds);
}

/// One pass over the index stream, a window of kWindowTrials indices at a
/// time, until `seconds` have gone by and at least `min_trials` ran.
struct Pass {
  std::vector<uint32_t> line_hashes;  // crc32 of each trial's log line
  uint32_t digest = 0;                // over the first min_trials lines
  common::EmpiricalCdf walls_ms;
  /// Wall time of each window's trial list.
  common::EmpiricalCdf setups;
  /// Per window: trials, wall, CPU and hops.
  std::vector<double> trials, wall_s, cpu_s, hops;
  size_t failures = 0;
  Counts counts;

  double trials_per_s() const { return median_rate(trials, wall_s); }
  double hops_per_cpu_s() const { return median_rate(hops, cpu_s); }
};

Pass run_pass(uint64_t root_seed, double seconds, size_t min_trials,
              Tracer* tracer) {
  Pass pass;
  auto phase = Clock::now();
  for (size_t first = 0; first < min_trials || seconds_since(phase) < seconds;
       first += kWindowTrials) {
    // Each window builds its trial list, then runs it, so the set-up is
    // sampled across the whole pass. Only the list, the trials and their
    // log lines are timed; reading the counters out of the metrics
    // snapshot is the benchmark's own work.
    double window_cpu0 = cpu_seconds();
    auto window0 = Clock::now();
    std::vector<Planned> list = plan(root_seed, first, kWindowTrials, tracer);
    double wall_s = seconds_since(window0);
    double cpu_s = cpu_seconds() - window_cpu0;
    double hops = 0;
    pass.setups.add(wall_s);
    for (size_t k = 0; k < list.size(); ++k) {
      const size_t i = first + k;
      packet::reset_copy_counters();
      double cpu0 = cpu_seconds();
      auto t0 = Clock::now();
      simcheck::TrialOutcome out = run_trial(list[k], i, tracer);
      std::string line = out.log_line(i) + "\n";
      double trial_s = seconds_since(t0);
      wall_s += trial_s;
      cpu_s += cpu_seconds() - cpu0;
      pass.walls_ms.add(trial_s * 1e3);
      pass.line_hashes.push_back(common::crc32(line));
      if (i < min_trials) pass.digest = common::crc32(line, pass.digest);
      if (!out.ok()) ++pass.failures;
      take_copies(pass.counts);
      pass.counts["simcheck.packets_checked"] += double(out.packets_checked);
      double hops0 = pass.counts["netsim.hops"];
      add_snapshot_counts(out.metrics_json, pass.counts);
      hops += pass.counts["netsim.hops"] - hops0;
    }
    pass.trials.push_back(double(list.size()));
    pass.wall_s.push_back(wall_s);
    pass.cpu_s.push_back(cpu_s);
    pass.hops.push_back(hops);
  }
  return pass;
}

}  // namespace

void run_simcheck(const Options& opt, Report& report) {
  const size_t digest_trials = opt.tiny ? 16 : 128;
  const size_t warmup_trials = opt.tiny ? 2 : 8;

  // Warm-up, outside every timer: first-use costs land here, not in the
  // timed pass.
  std::vector<Planned> warmup = plan(opt.seed, 0, warmup_trials, nullptr);
  for (size_t i = 0; i < warmup.size(); ++i) run_trial(warmup[i], i, nullptr);

  Pass timed = run_pass(opt.seed, opt.seconds, digest_trials, nullptr);
  report.digest = timed.digest;
  report.attempted = timed.walls_ms.count();
  report.failed = timed.failures;
  if (run_pass(opt.seed, 0, digest_trials, nullptr).digest != timed.digest)
    report.problem("simcheck log differs when the trials are re-run");

  report.walls_ms = timed.walls_ms;
  report.metrics["trials_per_s"] = timed.trials_per_s();
  report.metrics["trial_ms_p50"] = timed.walls_ms.quantile(0.5);
  report.metrics["hops_per_cpu_s"] = timed.hops_per_cpu_s();
  report.metrics["setup_s"] = timed.setups.quantile(0.5);
  report.metrics["peak_rss_mb"] = peak_rss_mb();

  if (!opt.trace) return;
  Tracer tracer;
  Pass traced = run_pass(opt.seed, opt.seconds, digest_trials, &tracer);
  report.traced_digest = traced.digest;
  size_t shared = std::min(timed.line_hashes.size(), traced.line_hashes.size());
  if (!std::equal(traced.line_hashes.begin(),
                  traced.line_hashes.begin() + shared,
                  timed.line_hashes.begin()))
    report.problem("traced pass log differs from untraced");
  if (!opt.spans_path.empty() && !tracer.write_jsonl(opt.spans_path))
    report.problem("cannot write spans to " + opt.spans_path);

  summarize_trace(tracer, report);
  double n = double(report.traced_trials);
  for (const auto& [name, sum] : traced.counts) report.metrics[name] = sum / n;
  report.metrics["trace.overhead_share"] =
      1.0 - traced.hops_per_cpu_s() / timed.hops_per_cpu_s();
}

}  // namespace sm::perfbench
