// The two campaign workloads: `synthetic` (the named workload
// sm-campaignd ships, on the process backend) and `eval_matrix` (E2's
// censor x technique matrix on the thread backend).
//
// Both build one fixed trial list (a "batch") and run it through
// campaign::run, over and over until the timed phase ends, each batch a
// fresh campaign; every repeat must produce the same campaign JSONL. The
// traced pass cannot put spans inside campaign::run, so it replays the
// batch in this process call by call (seed derivation, Testbed,
// run_probe, drain, assess_risk, export, teardown, merge, to_jsonl) with
// a span around each, and must produce the same JSONL as the untraced
// run.
#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "campaign/workloads.hpp"
#include "common/recordio.hpp"
#include "packet/copy_stats.hpp"
#include "perfbench.hpp"

namespace sm::perfbench {

namespace {

using campaign::CampaignOptions;
using campaign::Trial;
using campaign::TrialResult;

constexpr size_t kWarmupTrials = 8;

struct TrialWorkload {
  /// The trial-list build: the workload's set-up.
  std::function<std::vector<Trial>()> build;
  CampaignOptions options;
  /// Output check of one completed (not failed) trial.
  std::function<bool(const TrialResult&)> ok;
};

/// Per-trial counters from the testbed's public stats.
void read_counters(core::Testbed& tb, Counts& counts) {
  counts["netsim.events"] += double(tb.net.engine().executed());
  counts["netsim.hops"] += double(tb.router->counters().forwarded);
  uint64_t drops = 0;
  for (const auto& link : tb.net.links()) drops += link->stats().dropped();
  counts["netsim.link_drops"] += double(drops);
  const auto& mvr = tb.mvr->stats();
  counts["surveillance.packets"] += double(mvr.packets_seen);
  counts["surveillance.alerts"] +=
      double(mvr.noise_alerts + mvr.interesting_alerts);
  const auto& censor = tb.censor_tap->stats();
  counts["censor.packets"] += double(censor.packets_seen);
  counts["censor.injections"] +=
      double(censor.rst_packets_injected + censor.dns_responses_forged +
             censor.blockpages_injected);
  const auto& ids = tb.censor_tap->engine().stats();
  counts["ids.censor_fastpath_candidates"] += double(ids.fastpath_candidates);
  counts["ids.censor_payload_scans"] += double(ids.payload_scans);
  const auto& tcp = tb.client_stack->stats();
  counts["proto.tcp_segments"] += double(tcp.segments_in + tcp.segments_out);
  counts["obs.provenance_events"] += double(tb.provenance().total());
}

/// campaign::execute_trial, one call at a time, with a span around each.
void replay_trial(const Trial& trial, size_t index,
                  const CampaignOptions& options, TrialResult& slot,
                  std::unique_ptr<obs::Registry>& snapshot, Tracer* tracer,
                  uint64_t trial_id, Counts& counts) {
  ScopedSpan span(tracer, kTrialSpan, trial_id);
  auto start = Clock::now();
  slot.index = index;
  slot.name = trial.name;
  packet::reset_copy_counters();
  try {
    core::TestbedConfig config = trial.config;
    if (options.derive_seeds) {
      config.sav_seed = campaign::trial_seed(options.campaign_seed, index, 0);
      config.mvr.sampling_seed =
          campaign::trial_seed(options.campaign_seed, index, 1);
      config.netsim_seed =
          campaign::trial_seed(options.campaign_seed, index, 2);
    }
    std::optional<core::Testbed> tb;
    std::unique_ptr<core::Probe> probe;
    {
      ScopedSpan s(tracer, "core.testbed_build", trial_id);
      tb.emplace(config);
      if (trial.factory) probe = trial.factory(*tb);
    }
    if (!probe) throw std::invalid_argument("probe factory returned null");
    {
      ScopedSpan s(tracer, "core.run_probe", trial_id);
      slot.report = core::run_probe(*tb, *probe, trial.probe_timeout);
    }
    {
      ScopedSpan s(tracer, "core.drain", trial_id);
      tb->run_for(trial.drain);
    }
    {
      ScopedSpan s(tracer, "core.risk", trial_id);
      slot.risk = core::assess_risk(*tb, trial.name);
    }
    slot.sim_elapsed = tb->net.engine().now() - common::SimTime{};
    {
      ScopedSpan s(tracer, "core.export", trial_id);
      if (config.enable_observability) {
        snapshot = std::make_unique<obs::Registry>();
        snapshot->merge(tb->metrics_snapshot());
      }
      if (config.enable_provenance) slot.provenance_json = tb->provenance_json();
    }
    read_counters(*tb, counts);
    {
      ScopedSpan s(tracer, "core.testbed_teardown", trial_id);
      probe.reset();
      tb.reset();
    }
  } catch (const std::exception& e) {
    slot.failed = true;
    slot.error = e.what()[0] ? e.what() : "exception";
  } catch (...) {
    slot.failed = true;
    slot.error = "unknown exception";
  }
  take_copies(counts);
  slot.wall_elapsed = common::Duration::nanos(to_ns(Clock::now()) -
                                              to_ns(start));
}

/// Runs the batch in this process the way campaign::run does and returns
/// its JSONL.
std::string replay_batch(const std::vector<Trial>& trials,
                         const CampaignOptions& options, Tracer* tracer,
                         uint64_t& next_trial_id, Counts& counts) {
  campaign::CampaignResult result;
  result.trials.resize(trials.size());
  std::vector<std::unique_ptr<obs::Registry>> snapshots(trials.size());
  for (size_t i = 0; i < trials.size(); ++i) {
    replay_trial(trials[i], i, options, result.trials[i], snapshots[i],
                 tracer, next_trial_id++, counts);
  }
  {
    ScopedSpan s(tracer, "campaign.merge");
    campaign::finalize_campaign(result, snapshots, options);
  }
  ScopedSpan s(tracer, "campaign.to_jsonl");
  return result.to_jsonl();
}

void run_trial_workload(const TrialWorkload& w, const Options& opt,
                        Report& report) {
  // Set-up is the trial-list build. Every batch is a fresh campaign that
  // builds its own list, so the build is sampled across the whole run, as
  // the throughputs are: one sub-millisecond build sees only the host's
  // state of the moment.
  common::EmpiricalCdf setups;
  auto build = [&] {
    auto t0 = Clock::now();
    std::vector<Trial> built = w.build();
    setups.add(seconds_since(t0));
    return built;
  };
  std::vector<Trial> trials = build();
  // Warm-up, outside every timer: first-use costs (page faults, allocator
  // growth) land here, not in the timed phase, and forked workers inherit
  // the warmed state.
  for (size_t i = 0; i < std::min(kWarmupTrials, trials.size()); ++i) {
    TrialResult warm;
    campaign::execute_trial(trials[i], i, w.options, warm, nullptr);
    if (warm.failed) report.problem("warm-up trial failed: " + warm.error);
  }

  // Timed phase: closed loop, the next batch starts when the last ends.
  // Each batch is one window of the throughput medians.
  std::vector<double> batch_wall_s, batch_cpu_s;
  double pool_s = 0, busy_s = 0;
  uint32_t digest = 0;
  auto phase = Clock::now();
  do {
    double cpu0 = cpu_seconds();
    auto t0 = Clock::now();
    trials = build();
    auto run0 = Clock::now();
    campaign::CampaignResult result = campaign::run(trials, w.options);
    pool_s += seconds_since(run0);
    std::string jsonl = result.to_jsonl();
    batch_wall_s.push_back(seconds_since(t0));
    batch_cpu_s.push_back(cpu_seconds() - cpu0);
    for (const TrialResult& t : result.trials) {
      report.walls_ms.add(t.wall_elapsed.to_seconds() * 1e3);
      busy_s += t.wall_elapsed.to_seconds();
      ++report.attempted;
      if (t.failed || !w.ok(t)) ++report.failed;
    }
    uint32_t d = common::crc32(jsonl);
    if (batch_wall_s.size() == 1) digest = d;
    if (d != digest) report.problem("campaign JSONL differs between repeats");
  } while (seconds_since(phase) < opt.seconds);
  report.digest = digest;
  report.metrics["setup_s"] = setups.quantile(0.5);

  // The untraced replay counts the batch's forwarded hops (deterministic,
  // so one replay serves every batch), proves the replay faithful, and is
  // the traced pass's untraced counterpart for the tracing overhead.
  Counts batch_counts;
  uint64_t trial_id = 0;
  double cpu0 = cpu_seconds();
  std::string replayed =
      replay_batch(trials, w.options, nullptr, trial_id, batch_counts);
  const double replay_cpu_s = cpu_seconds() - cpu0;
  if (common::crc32(replayed) != digest)
    report.problem("in-process replay JSONL differs from campaign::run");
  if (w.options.backend == campaign::Backend::Process) {
    CampaignOptions j1 = w.options;
    j1.backend = campaign::Backend::Thread;
    j1.threads = 1;
    j1.shard = campaign::Shard::ByIndex;
    if (common::crc32(campaign::run(trials, j1).to_jsonl()) != digest)
      report.problem("JSONL differs from a thread-backend -j1 run");
  }
  const size_t batches = batch_wall_s.size();
  const double batch_hops = batch_counts["netsim.hops"];

  size_t workers = std::min(campaign::resolve_threads(w.options.threads),
                            trials.size());
  report.metrics["trials_per_s"] = median_rate(
      std::vector<double>(batches, double(trials.size())), batch_wall_s);
  report.metrics["trial_ms_p50"] = report.walls_ms.quantile(0.5);
  report.metrics["hops_per_cpu_s"] =
      median_rate(std::vector<double>(batches, batch_hops), batch_cpu_s);
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.metrics["campaign.pool_idle_share"] =
      1.0 - busy_s / (pool_s * double(workers));

  if (!opt.trace) return;
  Tracer tracer;
  Counts counts;
  std::vector<double> traced_cpu_s;
  phase = Clock::now();
  do {
    double cpu0 = cpu_seconds();
    uint32_t d = common::crc32(
        replay_batch(trials, w.options, &tracer, trial_id, counts));
    traced_cpu_s.push_back(cpu_seconds() - cpu0);
    report.traced_digest = d;
    if (d != digest) report.problem("traced pass JSONL differs from untraced");
  } while (seconds_since(phase) < opt.seconds);
  if (!opt.spans_path.empty() && !tracer.write_jsonl(opt.spans_path))
    report.problem("cannot write spans to " + opt.spans_path);

  summarize_trace(tracer, report);
  double n = double(report.traced_trials);
  for (const auto& [name, sum] : counts) report.metrics[name] = sum / n;
  const auto& layers = report.layers;
  double probe_ns = double(layers.at("core.run_probe").total_ns +
                           layers.at("core.drain").total_ns);
  report.metrics["netsim.ns_per_event"] = probe_ns / counts["netsim.events"];
  double traced_hops_per_cpu_s = median_rate(
      std::vector<double>(traced_cpu_s.size(), batch_hops), traced_cpu_s);
  report.metrics["trace.overhead_share"] =
      1.0 - traced_hops_per_cpu_s / (batch_hops / replay_cpu_s);
}

}  // namespace

void run_synthetic(const Options& opt, Report& report) {
  // 1024 trials per campaign: the pool's per-campaign cost (fork,
  // copy-on-write faults, merge) is shared by enough trials that it no
  // longer doubles the throughput's swing with the host's load.
  const size_t batch = opt.tiny ? 32 : 1024;
  TrialWorkload w;
  w.build = [batch] {
    return campaign::build_workload("synthetic:" + std::to_string(batch));
  };
  w.options.threads = 2;
  w.options.shard = campaign::Shard::Dynamic;
  w.options.backend = campaign::Backend::Process;
  w.options.campaign_seed = opt.seed;
  // build_workload cycles RST-keyword x {HTTP, DNS}, then DNS-forgery x
  // {HTTP, DNS}; each profile blocks exactly one of the two probes.
  w.ok = [](const TrialResult& t) {
    static constexpr core::Verdict kExpected[4] = {
        core::Verdict::BlockedRst, core::Verdict::Reachable,
        core::Verdict::Reachable, core::Verdict::BlockedDnsForgery};
    return t.report.verdict == kExpected[t.index % 4];
  };
  run_trial_workload(w, opt, report);
}

void run_eval_matrix(const Options& opt, Report& report) {
  // Each batch holds the 40-cell matrix this many times over consecutive
  // trial indices, so repeats of a cell get index-derived seeds.
  const size_t repeats = opt.tiny ? 1 : 8;
  TrialWorkload w;
  w.build = [repeats] {
    auto techniques = bench::standard_techniques();
    auto scenarios = bench::eval_matrix_configs();
    std::vector<Trial> trials;
    for (size_t r = 0; r < repeats; ++r) {
      for (const auto& [name, config] : scenarios) {
        auto cells = bench::technique_trials(name, config, techniques);
        std::move(cells.begin(), cells.end(), std::back_inserter(trials));
      }
    }
    return trials;
  };
  w.options.threads = 1;
  w.options.campaign_seed = opt.seed;
  w.ok = [expectations = bench::eval_matrix_expectations()](
             const TrialResult& t) {
    size_t slash = t.name.find('/');
    std::string config = t.name.substr(0, slash);
    std::string technique = t.name.substr(slash + 1);
    auto by_config = expectations.find(config);
    if (by_config == expectations.end()) return true;
    auto cell = by_config->second.find(technique);
    if (cell == by_config->second.end()) return true;
    if (std::find(cell->second.begin(), cell->second.end(),
                  t.report.verdict) == cell->second.end())
      return false;
    bool stealthy = technique.rfind("overt", 0) != 0;
    return !stealthy || t.risk.evaded;
  };
  run_trial_workload(w, opt, report);
}

}  // namespace sm::perfbench
