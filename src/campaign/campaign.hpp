// Parallel campaign runner: shard independent trials across a thread
// pool, merge deterministically.
//
// The paper's evaluation is a matrix of independent cells — technique x
// censor configuration x seed — and a measurement platform at OONI/
// Centinel scale runs thousands of vantage/target/config combinations.
// Each cell is a self-contained simulation (its own Testbed, its own
// event loop, its own RNG substream), so the campaign layer parallelizes
// across cells while every cell stays single-threaded and deterministic.
//
// The contract that makes the parallelism safe to trust:
//
//   * Isolation. A worker builds a private Testbed per trial; nothing
//     reachable from two concurrently-running testbeds is mutable shared
//     state (the audit lives in DESIGN.md "Campaign execution" — the one
//     shared-mutable exception, common/logging, is internally locked).
//   * Seeding. Every stochastic knob in a trial derives from
//     trial_seed(campaign_seed, trial_index) via SplitMix64 — a function
//     of the trial's *index*, never of which worker or in what order it
//     ran. This replaces the ad-hoc per-bench seed constants.
//   * Merge. Results land in a slot per trial index; ProbeReports, risk,
//     per-trial sim timing, and obs::Registry snapshots are merged on
//     the calling thread in index order after the pool joins. Output is
//     therefore byte-identical for threads=1 vs threads=N (proven by
//     test_campaign's determinism tests). Wall-clock timings are kept
//     per trial for scaling benches but never serialized.
//   * Fault isolation. A trial whose factory or probe throws fails alone:
//     its slot records the error string, every other trial completes,
//     and the campaign returns normally.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/probe.hpp"
#include "core/risk.hpp"
#include "obs/metrics.hpp"

namespace sm::campaign {

/// Factory signature: builds a probe bound to the given testbed.
using ProbeFactory =
    std::function<std::unique_ptr<core::Probe>(core::Testbed&)>;

/// One independent campaign cell.
struct Trial {
  std::string name;            // "keyword-rst/overt-http", a target domain…
  core::TestbedConfig config;  // testbed for this cell
  ProbeFactory factory;
  common::Duration probe_timeout = common::Duration::seconds(60);
  /// Virtual time to keep simulating after the probe finishes, so
  /// in-flight traffic reaches the taps before risk is assessed.
  common::Duration drain = common::Duration::seconds(2);
};

/// How trial indices map onto workers.
enum class Shard {
  /// Worker w runs trials w, w+T, w+2T, … — static, no synchronization.
  ByIndex,
  /// Workers pull the next unclaimed index from a shared atomic counter —
  /// better balance when trial costs are skewed. Output is identical to
  /// ByIndex either way; only wall-clock differs.
  Dynamic,
};

/// What a worker is.
enum class Backend {
  /// In-process thread pool (the PR 3 runner).
  Thread,
  /// Forked worker processes fed over pipes: the controller forks one
  /// child per worker, children stream framed trial records back over
  /// their result pipe, and the controller merges in trial-index order —
  /// the same byte-identical -j1/-jN contract as the thread pool, plus
  /// isolation: a worker that dies (crash, kill -9, _exit) fails only
  /// its own trials. ByIndex shares are static; Dynamic indices are fed
  /// over a per-worker command pipe, a window of 4 outstanding per
  /// worker, so a death costs at most 4 Dynamic trials — unless no
  /// worker is left, when every position not yet handed out fails too.
  /// Such losses count in CampaignResult::lost and are never
  /// checkpointed.
  Process,
};

/// Heartbeat emitted after each trial finishes (any worker thread; the
/// callback is serialized under a lock, so it may touch shared state).
struct Progress {
  size_t completed = 0;  // trials finished so far, campaign-wide
  size_t total = 0;
  size_t trial = 0;  // index of the trial that just finished
  int worker = -1;
  bool failed = false;
  common::Duration wall;  // host time that trial took
};

struct CampaignOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (≥1).
  /// Clamped to the trial count.
  size_t threads = 0;
  Shard shard = Shard::ByIndex;
  Backend backend = Backend::Thread;
  /// When non-empty, the campaign is crash-safe: every completed trial is
  /// appended to this checkpoint file as it finishes (streaming, CRC-
  /// guarded binary records — see campaign/checkpoint.hpp), and run()
  /// first loads any existing checkpoint, re-using its records instead of
  /// re-executing those trials. A run killed at any point — including
  /// mid-record-write — resumes to byte-identical to_jsonl() output.
  /// The file must belong to this exact campaign (seed, trial list);
  /// run() throws std::runtime_error on a mismatched checkpoint.
  std::string checkpoint_path;
  /// Root seed for the whole campaign; every trial's stochastic knobs
  /// (SAV model, MVR content sampling) are SplitMix64-derived from
  /// (campaign_seed, trial_index).
  uint64_t campaign_seed = 0x5EED0C0FFEEULL;
  /// When false, trials keep the seeds their TestbedConfig arrived with
  /// instead of the derived substreams (for reproducing legacy runs).
  bool derive_seeds = true;
  /// Per-trial-completion heartbeat; empty = no reporting. Runs on worker
  /// threads but never concurrently with itself, and `completed` rises by
  /// exactly one per call, from the resumed count to the trial count.
  std::function<void(const Progress&)> on_progress;
  /// Crash-safety fault injection: when ≥ 0, only this many more record
  /// bytes reach the checkpoint; the append that crosses the line is cut
  /// mid-frame and the process _exit()s with kCheckpointFaultExit — a
  /// deterministic stand-in for kill -9 landing inside a checkpoint
  /// write. Needs checkpoint_path; negative disables it.
  int64_t checkpoint_fault_budget = -1;
};

/// Exit status of a process whose checkpoint_fault_budget ran out.
inline constexpr int kCheckpointFaultExit = 86;

/// A trial is flagged slow when its wall time exceeds this multiple of
/// the campaign's median trial wall time (see CampaignResult::
/// slow_trials).
inline constexpr double kSlowTrialFactor = 4.0;

/// One filled slot of the result, at its trial's index.
struct TrialResult {
  size_t index = 0;
  std::string name;
  core::ProbeReport report;
  core::RiskReport risk;
  bool failed = false;
  std::string error;  // what() of the escaping exception, when failed
  /// Virtual time the trial's simulation consumed (deterministic;
  /// serialized as sim_nanos).
  common::Duration sim_elapsed;
  /// Host time the trial took (for scaling benches; never serialized —
  /// it varies run to run and would break byte-identity).
  common::Duration wall_elapsed;
  /// Wall-clock phase profile of the trial: testbed+probe construction,
  /// probe execution (run+drain), and result extraction (risk, metrics
  /// snapshot, provenance export). Diagnostic only; never serialized.
  common::Duration wall_setup, wall_run, wall_finish;
  /// Worker that ran the trial (diagnostic; never serialized).
  int worker = -1;
  /// True when this slot was restored from a checkpoint record rather
  /// than executed by this run's pool. Wall-clock fields are zero then.
  bool resumed = false;
  /// Deterministic causal-graph export, for trials whose config sets
  /// enable_provenance (serialized verbatim into the trial's JSONL row);
  /// empty otherwise.
  std::string provenance_json;
};

/// Campaign output, ordered by trial index. Move-only (owns a Registry).
struct CampaignResult {
  std::vector<TrialResult> trials;
  /// Merged metrics: per-trial Testbed snapshots (for trials whose config
  /// enables observability) plus the runner's own sm_campaign_* series,
  /// all folded in trial-index order.
  std::unique_ptr<obs::Registry> metrics;
  size_t failures = 0;
  /// Trials restored from a checkpoint instead of executed this run.
  size_t resumed = 0;
  /// Trials lost to a worker death this run (Backend::Process): error
  /// rows that are never checkpointed, so a resume re-runs exactly them.
  size_t lost = 0;
  /// Campaign-health telemetry: per-worker trial counts and busy time,
  /// wall-clock phase profile (setup/run/finish/teardown), trial wall-time
  /// distribution, slow-trial count, and (set by run() when any trial
  /// ran) the pool's idle share, sm_campaign_pool_idle_share. Kept OUT
  /// of `metrics` and never serialized by to_jsonl — wall clocks vary
  /// run to run and would break byte-identity.
  std::unique_ptr<obs::Registry> telemetry;
  /// Indices of trials whose wall time exceeded kSlowTrialFactor x the
  /// campaign median (ascending).
  std::vector<size_t> slow_trials;

  /// JSON Lines, one object per trial in index order —
  ///   {"trial":i,"name":…,"measurement":{…},"risk":{…},"sim_nanos":n}
  /// (failed trials carry "error" instead of measurement/risk; trials
  /// with provenance enabled add "provenance":{…}) — with the merged
  /// metrics snapshot appended as a final {"metrics":[…]} line.
  /// Byte-identical across thread counts and shard modes.
  std::string to_jsonl() const;
  /// The merged registry snapshot alone, as one JSON line.
  std::string metrics_json() const;
};

/// Deterministic per-trial seed substream: SplitMix64 over the campaign
/// seed and trial index. `stream` selects independent values for multiple
/// knobs within one trial (0 = SAV, 1 = MVR sampling, 2 = netsim links,
/// 3 = simcheck's scenario generator).
uint64_t trial_seed(uint64_t campaign_seed, size_t trial_index,
                    uint64_t stream = 0);

/// Runs every trial across the pool and merges (see file comment for the
/// determinism contract).
CampaignResult run(const std::vector<Trial>& trials,
                   const CampaignOptions& options = {});

/// Lower-level building block: runs job(index, worker) exactly once for
/// each index in [0, n) across the pool. An exception escaping a job is
/// captured into its slot of the returned vector (empty string = ok) and
/// does not disturb other jobs. Benches whose cells are not Testbed-
/// shaped (custom topologies) parallelize through this directly.
std::vector<std::string> run_jobs(
    size_t n, const std::function<void(size_t index, int worker)>& job,
    const CampaignOptions& options = {});

/// options.threads resolved against the hardware (0 -> hw concurrency,
/// always ≥ 1).
size_t resolve_threads(size_t requested);

/// The single-trial body every backend runs: derives the trial's seed
/// substreams, builds its private Testbed, runs probe + drain, assesses
/// risk, and fills `slot` (index, name, report, risk, sim time, wall
/// phase profile; failed/error when an exception escapes). When the
/// trial's config enables observability, `*snapshot` receives the
/// testbed's metrics registry itself (Testbed::release_metrics, no
/// copy). The process-shard workers execute exactly what the thread pool
/// executes — byte-identity across backends reduces to this being the
/// same code.
void execute_trial(const Trial& trial, size_t index,
                   const CampaignOptions& options, TrialResult& slot,
                   std::unique_ptr<obs::Registry>* snapshot);

/// The deterministic merge every backend finishes with: builds
/// result.metrics (sm_campaign_* series plus the per-trial snapshots,
/// folded in trial-index order), counts failures, and derives the
/// telemetry registry + slow-trial list from the wall clocks of the
/// trials that actually ran this run. `snapshots` is indexed by trial
/// (null = observability off for that trial). Exposed so a caller that
/// reassembles trials outside run() finalizes them the same way.
/// `options` is unused; it stays for callers that still pass it.
void finalize_campaign(
    CampaignResult& result,
    const std::vector<std::unique_ptr<obs::Registry>>& snapshots,
    const CampaignOptions& options = {});

}  // namespace sm::campaign
