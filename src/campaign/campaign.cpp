#include "campaign/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "campaign/checkpoint.hpp"
#include "campaign/procshard.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/report_json.hpp"

namespace sm::campaign {

uint64_t trial_seed(uint64_t campaign_seed, size_t trial_index,
                    uint64_t stream) {
  // Decorrelate (seed, index, stream) into one SplitMix64 state; the odd
  // multipliers keep index 0 / stream 0 from collapsing onto the raw
  // campaign seed.
  uint64_t state = campaign_seed ^
                   (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(trial_index) + 1)) ^
                   (0xBF58476D1CE4E5B9ULL * (stream + 1));
  return common::splitmix64(state);
}

size_t resolve_threads(size_t requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::vector<std::string> run_jobs(
    size_t n, const std::function<void(size_t index, int worker)>& job,
    const CampaignOptions& options) {
  std::vector<std::string> errors(n);
  if (n == 0) return errors;
  size_t threads = std::min(resolve_threads(options.threads), n);

  auto body = [&](size_t i, int w) {
    try {
      job(i, w);
    } catch (const std::exception& e) {
      errors[i] = e.what()[0] ? e.what() : "exception";
    } catch (...) {
      errors[i] = "unknown exception";
    }
  };

  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w, threads] {
      common::set_log_worker_id(static_cast<int>(w));
      if (options.shard == Shard::ByIndex) {
        for (size_t i = w; i < n; i += threads) body(i, static_cast<int>(w));
      } else {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          body(i, static_cast<int>(w));
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return errors;
}

void execute_trial(const Trial& trial, size_t index,
                   const CampaignOptions& options, TrialResult& slot,
                   std::unique_ptr<obs::Registry>* snapshot) {
  slot.index = index;
  slot.name = trial.name;
  using clock = std::chrono::steady_clock;
  auto since = [](clock::time_point a, clock::time_point b) {
    return common::Duration::nanos(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  auto wall_start = clock::now();
  try {
    core::TestbedConfig config = trial.config;
    if (options.derive_seeds) {
      config.sav_seed = trial_seed(options.campaign_seed, index, 0);
      config.mvr.sampling_seed = trial_seed(options.campaign_seed, index, 1);
      config.netsim_seed = trial_seed(options.campaign_seed, index, 2);
    }
    core::Testbed tb(config);
    auto probe = trial.factory ? trial.factory(tb) : nullptr;
    if (!probe) throw std::invalid_argument("probe factory returned null");
    auto setup_done = clock::now();
    slot.wall_setup = since(wall_start, setup_done);
    slot.report = core::run_probe(tb, *probe, trial.probe_timeout);
    tb.run_for(trial.drain);
    auto run_done = clock::now();
    slot.wall_run = since(setup_done, run_done);
    slot.risk = core::assess_risk(tb, trial.name);
    slot.sim_elapsed = tb.net.engine().now() - common::SimTime{};
    if (config.enable_observability && snapshot != nullptr)
      *snapshot = tb.release_metrics();
    if (config.enable_provenance)
      slot.provenance_json = tb.provenance_json();
    slot.wall_finish = since(run_done, clock::now());
  } catch (const std::exception& e) {
    slot.failed = true;
    slot.error = e.what()[0] ? e.what() : "exception";
    common::log_warn("campaign", "trial " + std::to_string(index) + " (" +
                                     trial.name + ") failed: " + slot.error);
  } catch (...) {
    slot.failed = true;
    slot.error = "unknown exception";
  }
  slot.wall_elapsed = since(wall_start, clock::now());
}

namespace {

const obs::Family kTrials{obs::Kind::Counter, "sm_campaign_trials_total",
                          "trials executed by the campaign runner"};
const obs::Family kFailures{obs::Kind::Counter,
                            "sm_campaign_trial_failures_total",
                            "trials that failed with an exception"};
const obs::Family kSimSeconds{obs::Kind::Histogram,
                              "sm_campaign_trial_sim_seconds",
                              "virtual time consumed per trial", {},
                              {0.0, 120.0, 24}};
const obs::Family kByVerdict{obs::Kind::Counter,
                             "sm_campaign_trials_by_verdict_total",
                             "trials by final verdict", {"verdict"}};
const obs::Family kResumed{
    obs::Kind::Counter, "sm_campaign_trials_resumed_total",
    "trials restored from a checkpoint instead of executed"};
const obs::Family kWallSeconds{obs::Kind::Histogram,
                               "sm_campaign_trial_wall_seconds",
                               "host time consumed per trial", {},
                               {0.0, 10.0, 20}};
const obs::Family kWorkerTrials{obs::Kind::Counter,
                                "sm_campaign_worker_trials_total",
                                "trials completed per worker", {"worker"}};
// Seconds accumulate in gauges: a Counter holds whole units.
const obs::Family kWorkerBusy{obs::Kind::Gauge,
                              "sm_campaign_worker_busy_seconds_total",
                              "host time each worker spent inside trials",
                              {"worker"}};
const obs::Family kPhaseWall{
    obs::Kind::Gauge, "sm_campaign_phase_wall_seconds_total",
    "host time per trial phase (setup = testbed build, run = probe+drain, "
    "finish = risk/metrics/provenance, teardown = testbed and probe "
    "destruction)",
    {"phase"}};
const obs::Family kSlowTrials{obs::Kind::Gauge, "sm_campaign_slow_trials",
                              "trials slower than factor x median wall time",
                              {"factor"}};
const obs::Family kPoolIdleShare{
    obs::Kind::Gauge, "sm_campaign_pool_idle_share",
    "1 - trial wall time / (pool wall time x workers)"};

}  // namespace

void finalize_campaign(
    CampaignResult& result,
    const std::vector<std::unique_ptr<obs::Registry>>& snapshots,
    const CampaignOptions& /*options*/) {
  // Deterministic merge, caller's thread, trial-index order. Everything
  // folded into `metrics` is a pure function of the trials' deterministic
  // content, so the output is byte-identical no matter which backend ran
  // them or how many were restored from a checkpoint.
  result.metrics = std::make_unique<obs::Registry>();
  obs::Registry& metrics = *result.metrics;
  auto trials_total = metrics.counter(kTrials);
  auto failures_total = metrics.counter(kFailures);
  auto* sim_seconds = metrics.histogram(kSimSeconds);
  result.failures = 0;
  for (const TrialResult& t : result.trials) {
    trials_total->inc();
    if (t.failed) {
      failures_total->inc();
      ++result.failures;
      continue;
    }
    sim_seconds->observe(t.sim_elapsed.to_seconds());
    metrics.counter(kByVerdict, {core::to_string(t.report.verdict)})->inc();
  }
  for (const auto& snapshot : snapshots) {
    if (snapshot) metrics.merge(*snapshot);
  }

  // Campaign-health telemetry: wall-clock, per-worker, per-phase — kept
  // in its own registry because wall time is nondeterministic. Trials
  // restored from a checkpoint did not run here, so they contribute
  // nothing beyond the resumed counter.
  result.telemetry = std::make_unique<obs::Registry>();
  obs::Registry& telemetry = *result.telemetry;
  telemetry.counter(kResumed)->inc(result.resumed);
  auto* wall_hist = telemetry.histogram(kWallSeconds);
  std::vector<double> walls;
  std::vector<size_t> wall_index;
  walls.reserve(result.trials.size());
  for (const TrialResult& t : result.trials) {
    if (t.resumed) continue;
    wall_hist->observe(t.wall_elapsed.to_seconds());
    walls.push_back(t.wall_elapsed.to_seconds());
    wall_index.push_back(t.index);
    const std::string worker = std::to_string(t.worker);
    telemetry.counter(kWorkerTrials, {worker})->inc();
    telemetry.gauge(kWorkerBusy, {worker})->add(t.wall_elapsed.to_seconds());
    // Teardown (Testbed and probe destructors) is the rest of the wall
    // time, so the four phases sum to the trial's wall_elapsed.
    struct {
      const char* phase;
      common::Duration d;
    } phases[] = {{"setup", t.wall_setup},
                  {"run", t.wall_run},
                  {"finish", t.wall_finish},
                  {"teardown", t.wall_elapsed - t.wall_setup - t.wall_run -
                                   t.wall_finish}};
    for (const auto& p : phases)
      telemetry.gauge(kPhaseWall, {p.phase})->add(p.d.to_seconds());
  }
  // Slow-trial detection: wall time against the campaign median. A trial
  // k x slower than its peers is a stall candidate (livelocked probe,
  // pathological topology) that sim time alone cannot reveal.
  result.slow_trials.clear();
  if (walls.size() >= 2) {
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    double median = sorted[sorted.size() / 2];
    if (median > 0) {
      for (size_t i = 0; i < walls.size(); ++i)
        if (walls[i] > kSlowTrialFactor * median)
          result.slow_trials.push_back(wall_index[i]);
    }
  }
  telemetry.gauge(kSlowTrials, {common::format("%g", kSlowTrialFactor)})
      ->set(static_cast<double>(result.slow_trials.size()));
}

CampaignResult run(const std::vector<Trial>& trials,
                   const CampaignOptions& options) {
  CampaignResult result;
  result.trials.resize(trials.size());
  // Per-trial registries filled by the workers (each slot touched by
  // exactly one worker), merged in index order after the join.
  std::vector<std::unique_ptr<obs::Registry>> snapshots(trials.size());

  // Crash recovery: restore every whole, checksum-valid trial record from
  // the checkpoint, then execute only what is missing. Opening truncates
  // any torn tail, so a crash mid-record-write replays that trial instead
  // of merging half a record.
  common::RecordWriter ckpt;
  const bool checkpointing = !options.checkpoint_path.empty();
  if (checkpointing) {
    CheckpointState state = load_checkpoint(options.checkpoint_path);
    CheckpointMeta meta = checkpoint_meta(trials, options);
    for (auto& [index, decoded] : state.trials) {
      if (index >= trials.size()) continue;  // meta mismatch; open throws
      result.trials[index] = std::move(decoded.result);
      snapshots[index] = std::move(decoded.snapshot);
      ++result.resumed;
    }
    open_checkpoint(ckpt, options.checkpoint_path, state, meta);
    if (options.checkpoint_fault_budget >= 0) {
      ckpt.set_fault_budget(options.checkpoint_fault_budget,
                            [] { ::_exit(kCheckpointFaultExit); });
    }
  }

  std::vector<size_t> pending;
  pending.reserve(trials.size());
  for (size_t i = 0; i < trials.size(); ++i)
    if (!result.trials[i].resumed) pending.push_back(i);

  // Every finished trial of either backend ends here, one at a time under
  // the lock: its record (empty when it must not be checkpointed) is
  // appended before the slot is filled and the progress report fires.
  std::mutex complete_mu;
  size_t completed = result.resumed;
  auto complete = [&](TrialResult t, std::unique_ptr<obs::Registry> snapshot,
                      std::span<const uint8_t> record) {
    std::lock_guard<std::mutex> lock(complete_mu);
    if (checkpointing && !record.empty() && !ckpt.append(record))
      common::log_warn("campaign",
                       "checkpoint append failed: " + ckpt.error());
    const size_t i = t.index;
    Progress prog;
    prog.completed = ++completed;
    prog.total = trials.size();
    prog.trial = i;
    prog.worker = t.worker;
    prog.failed = t.failed;
    prog.wall = t.wall_elapsed;
    result.trials[i] = std::move(t);
    snapshots[i] = std::move(snapshot);
    if (options.on_progress) options.on_progress(prog);
  };

  const auto pool_start = std::chrono::steady_clock::now();
  if (options.backend == Backend::Process) {
    result.lost = run_process_shards(trials, options, pending, complete);
  } else if (!pending.empty()) {
    auto job = [&](size_t p, int worker) {
      size_t i = pending[p];
      TrialResult slot;
      std::unique_ptr<obs::Registry> snapshot;
      execute_trial(trials[i], i, options, slot, &snapshot);
      slot.worker = worker;
      common::Bytes record;
      if (checkpointing) record = encode_trial_record(slot, snapshot.get());
      complete(std::move(slot), std::move(snapshot), record);
    };
    run_jobs(pending.size(), job, options);
  }
  const std::chrono::duration<double> pool_wall =
      std::chrono::steady_clock::now() - pool_start;
  // Durability barrier: what this run appended is on disk before the
  // caller reports the campaign done.
  if (checkpointing && !ckpt.sync())
    common::log_warn("campaign", "checkpoint sync failed: " + ckpt.error());
  ckpt.close();

  finalize_campaign(result, snapshots, options);
  // The share of the pool's worker time spent outside trials: start-up,
  // feeding, and waiting on the controller.
  if (!pending.empty()) {
    double busy = 0;
    for (size_t i : pending)
      busy += result.trials[i].wall_elapsed.to_seconds();
    const size_t workers =
        std::min(resolve_threads(options.threads), pending.size());
    result.telemetry->gauge(kPoolIdleShare)
        ->set(1.0 - busy / (pool_wall.count() * double(workers)));
  }
  return result;
}

std::string CampaignResult::to_jsonl() const {
  std::string out;
  for (const TrialResult& t : trials) {
    out += "{\"trial\":" + std::to_string(t.index) + ",\"name\":\"" +
           common::json_escape(t.name) + "\",";
    if (t.failed) {
      out += "\"error\":\"" + common::json_escape(t.error) + "\"";
    } else {
      out += "\"measurement\":" + core::to_json(t.report) +
             ",\"risk\":" + core::to_json(t.risk) +
             ",\"sim_nanos\":" + std::to_string(t.sim_elapsed.count());
      if (!t.provenance_json.empty())
        out += ",\"provenance\":" + t.provenance_json;
    }
    out += "}\n";
  }
  if (metrics) out += metrics->to_json() + "\n";
  return out;
}

std::string CampaignResult::metrics_json() const {
  return metrics ? metrics->to_json() : "{\"metrics\":[]}";
}

}  // namespace sm::campaign
