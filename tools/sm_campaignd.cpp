// sm-campaignd: crash-safe campaign supervisor.
//
//   sm-campaignd --workload synthetic:10000 -j 4
//       --dir out/campaign --out out/campaign.jsonl
//
// One campaign::run over the named workload on the process backend:
// -j forked workers fed through the Dynamic window, one checkpoint
// (--dir/campaign.ckpt) written by the controller alone. A worker that
// dies (crash, kill -9, OOM) costs only the trials it still owed; those
// are never checkpointed, so the supervisor runs the campaign again and
// the re-run resumes exactly them, up to --max-restarts times. The JSONL
// report (and --metrics-out) is then written by tmp+rename,
// byte-identical to an uninterrupted in-process run at any -j.
//
// The supervisor holds no state that matters: kill it, or its whole
// process group, at any instant and a relaunch with the same arguments
// resumes from the checkpoint, truncating and replaying a torn tail.
//
// --dir/campaign.lock carries a POSIX record lock for the process
// lifetime, so a second launch on the same --dir exits 3 instead of
// interleaving two writers into one append stream. The kernel drops it
// on death, and forked workers do not inherit it (flock(2) locks they
// would), so a worker orphaned by its controller's death cannot keep a
// relaunch out.
//
// The supervisor puts itself in its own process group, so a harness can
// kill(-pid) the whole campaign at once; the workers are its children.
// Lifecycle lines and the sm_campaignd_* telemetry go to stderr.
//
// --fault-byte-budget N arms the checkpoint writer's fault hook on the
// first run only: after N more record bytes the append is cut mid-frame
// and the process exits 86 (campaign::kCheckpointFaultExit), a planned
// stand-in for kill -9 landing inside a checkpoint write.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/workloads.hpp"
#include "obs/metrics.hpp"

namespace {

using sm::campaign::CampaignOptions;
using sm::campaign::CampaignResult;
using sm::obs::Kind;

// Supervisor telemetry families.
const sm::obs::Family kRestarts{
    Kind::Counter, "sm_campaignd_restarts_total",
    "campaign re-runs to recover trials lost to a worker death"};
const sm::obs::Family kShards{Kind::Gauge, "sm_campaignd_shards",
                              "process shards"};
const sm::obs::Family kTrials{Kind::Counter, "sm_campaignd_trials_total",
                              "trials in the merged report"};
const sm::obs::Family kFailures{Kind::Counter,
                                "sm_campaignd_trial_failures_total",
                                "failed trials in the merged report"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <spec> --dir <dir> --out <file> [-j N]\n"
               "          [--seed S] [--metrics-out <file>] "
               "[--max-restarts R]\n"
               "          [--fault-byte-budget N]\n",
               argv0);
  return 2;
}

bool write_atomic(const std::string& path, const std::string& body) {
  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  wrote = std::fclose(f) == 0 && wrote;
  return wrote && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir, out, metrics_out;
  CampaignOptions options;
  options.backend = sm::campaign::Backend::Process;
  options.shard = sm::campaign::Shard::Dynamic;
  size_t max_restarts = 1000;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--workload" && (v = next())) {
      workload = v;
    } else if (a == "--dir" && (v = next())) {
      dir = v;
    } else if (a == "--out" && (v = next())) {
      out = v;
    } else if (a == "--metrics-out" && (v = next())) {
      metrics_out = v;
    } else if (a == "-j" && (v = next())) {
      options.threads = std::strtoull(v, nullptr, 0);
    } else if (a == "--seed" && (v = next())) {
      options.campaign_seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--max-restarts" && (v = next())) {
      max_restarts = std::strtoull(v, nullptr, 0);
    } else if (a == "--fault-byte-budget" && (v = next())) {
      options.checkpoint_fault_budget = std::strtoll(v, nullptr, 0);
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || dir.empty() || out.empty()) return usage(argv[0]);
  options.threads = sm::campaign::resolve_threads(options.threads);
  options.checkpoint_path = dir + "/campaign.ckpt";

  // Own process group: a harness kills the whole campaign with one
  // kill(-pid). Fails harmlessly when already a group leader.
  ::setpgid(0, 0);
  ::mkdir(dir.c_str(), 0755);
  const std::string lock_path = dir + "/campaign.lock";
  int lock_fd = ::open(lock_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd < 0 || ::lockf(lock_fd, F_TLOCK, 0) != 0) {
    std::fprintf(stderr, "sm-campaignd: cannot lock %s (another launch?)\n",
                 lock_path.c_str());
    return 3;
  }

  try {
    std::vector<sm::campaign::Trial> trials =
        sm::campaign::build_workload(workload);
    size_t restarts = 0;
    CampaignResult result = sm::campaign::run(trials, options);
    while (result.lost > 0) {
      if (restarts == max_restarts) {
        std::fprintf(stderr,
                     "sm-campaignd: %zu trials lost, restart budget (%zu) "
                     "exhausted\n",
                     result.lost, max_restarts);
        return 5;
      }
      ++restarts;
      std::fprintf(stderr, "sm-campaignd: %zu trials lost, re-run %zu\n",
                   result.lost, restarts);
      options.checkpoint_fault_budget = -1;  // one planned fault, not a loop
      result = sm::campaign::run(trials, options);
    }

    if (!write_atomic(out, result.to_jsonl())) {
      std::fprintf(stderr, "sm-campaignd: writing %s failed\n", out.c_str());
      return 7;
    }
    if (!metrics_out.empty() &&
        !write_atomic(metrics_out, result.metrics_json())) {
      std::fprintf(stderr, "sm-campaignd: writing %s failed\n",
                   metrics_out.c_str());
      return 7;
    }

    // Supervisor telemetry, same registry idiom as the runner's
    // CampaignResult::telemetry (wall-clock-ish data, never merged into
    // the deterministic report).
    sm::obs::Registry telemetry;
    telemetry.counter(kRestarts)->set(restarts);
    telemetry.gauge(kShards)->set(static_cast<double>(options.threads));
    telemetry.counter(kTrials)->set(result.trials.size());
    telemetry.counter(kFailures)->set(result.failures);
    std::fprintf(stderr, "sm-campaignd: telemetry %s\n",
                 telemetry.to_json().c_str());
    std::fprintf(stderr,
                 "sm-campaignd: wrote %s (%zu trials, %zu failures, "
                 "%zu restarts)\n",
                 out.c_str(), result.trials.size(), result.failures,
                 restarts);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sm-campaignd: %s\n", e.what());
    return 1;
  }
}
