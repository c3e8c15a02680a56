// sm-campaignd: crash-safe campaign supervisor over process shards.
//
//   sm-campaignd --workload synthetic:10000 -j 4
//       --dir out/campaign --out out/campaign.jsonl
//
// Forks one sm-campaign-worker per shard (static share: trial index %
// shards), each appending to its own checkpoint file under --dir, then
// monitors and restarts workers that die (crash, kill -9, OOM) until
// every shard's share is durably complete, and finally merges the shard
// checkpoints — in trial-index order, through the same
// finalize_campaign() the in-process runner uses — into a JSONL report
// byte-identical to an uninterrupted in-process run.
//
// The supervisor itself holds no state that matters: kill it at any
// instant and a relaunch with the same arguments re-derives everything
// from the shard checkpoints and continues. That is the whole design —
// durable truth lives only in the append-only checkpoint files, whose
// torn tails are truncated and replayed on resume.
//
// Files under --dir:
//   shard-K.ckpt       per-shard checkpoint (+ .lock held by the worker)
//   supervisor.pid     this process (harness kill target)
//   workers.pids       "shard pid" per live worker (rewritten on spawn)
//
// The supervisor puts itself in its own process group, so a harness can
// kill(-pid) the whole campaign at once. Worker heartbeats (ready/done/
// complete lines) pass through on stdout; supervisor lifecycle lines and
// the final sm_campaignd_* telemetry registry go to stderr.
//
// --fault-byte-budget N --fault-shard K arm the named shard's checkpoint
// fault hook on its FIRST launch only (a restart never re-arms it, so a
// planned fault is one crash, not a crash loop).
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/workloads.hpp"
#include "common/proc.hpp"
#include "obs/metrics.hpp"

namespace {

using sm::campaign::CampaignOptions;
using sm::campaign::CampaignResult;
using sm::obs::Kind;

// Supervisor telemetry families.
const sm::obs::Family kRestarts{Kind::Counter, "sm_campaignd_restarts_total",
                                "worker restarts across the campaign"};
const sm::obs::Family kShards{Kind::Gauge, "sm_campaignd_shards",
                              "process shards"};
const sm::obs::Family kTrials{Kind::Counter, "sm_campaignd_trials_total",
                              "trials in the merged report"};
const sm::obs::Family kFailures{Kind::Counter,
                                "sm_campaignd_trial_failures_total",
                                "failed trials in the merged report"};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload <spec> --dir <dir> --out <file> [-j N]\n"
      "          [--seed S] [--metrics-out <file>] [--max-restarts R]\n"
      "          [--worker-bin PATH] [--fault-byte-budget N --fault-shard K]\n",
      argv0);
  return 2;
}

struct ShardState {
  pid_t pid = -1;
  size_t restarts = 0;
  bool complete = false;
  bool fault_armed = false;  // pass the fault budget on the next spawn
};

void write_pid_files(const std::string& dir,
                     const std::vector<ShardState>& shards) {
  std::string tmp = dir + "/workers.pids.tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return;
  for (size_t k = 0; k < shards.size(); ++k) {
    if (shards[k].pid > 0 && !shards[k].complete)
      std::fprintf(f, "%zu %d\n", k, static_cast<int>(shards[k].pid));
  }
  std::fclose(f);
  std::rename(tmp.c_str(), (dir + "/workers.pids").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir, out, metrics_out, worker_bin;
  uint64_t seed = CampaignOptions{}.campaign_seed;
  size_t jobs = 0;
  size_t max_restarts = 1000;
  long long fault_budget = -1;
  size_t fault_shard = 0;
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
      jobs = std::strtoull(v, nullptr, 0);
    } else if (a == "--seed" && (v = next())) {
      seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--max-restarts" && (v = next())) {
      max_restarts = std::strtoull(v, nullptr, 0);
    } else if (a == "--worker-bin" && (v = next())) {
      worker_bin = v;
    } else if (a == "--fault-byte-budget" && (v = next())) {
      fault_budget = std::strtoll(v, nullptr, 0);
    } else if (a == "--fault-shard" && (v = next())) {
      fault_shard = std::strtoull(v, nullptr, 0);
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || dir.empty() || out.empty()) return usage(argv[0]);
  if (jobs == 0) jobs = sm::campaign::resolve_threads(0);

  // Own process group: a harness kills the whole campaign with one
  // kill(-pid). Fails harmlessly when already a group leader.
  ::setpgid(0, 0);
  ::mkdir(dir.c_str(), 0755);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  {
    FILE* f = std::fopen((dir + "/supervisor.pid").c_str(), "w");
    if (f) {
      std::fprintf(f, "%d\n", static_cast<int>(::getpid()));
      std::fclose(f);
    }
  }
  if (worker_bin.empty()) {
    std::string self = sm::common::proc::self_exe_path();
    size_t slash = self.rfind('/');
    if (slash == std::string::npos) {
      std::fprintf(stderr, "cannot locate sm-campaign-worker\n");
      return 2;
    }
    worker_bin = self.substr(0, slash) + "/sm-campaign-worker";
  }

  try {
    std::vector<sm::campaign::Trial> trials =
        sm::campaign::build_workload(workload);
    CampaignOptions options;
    options.campaign_seed = seed;
    const size_t shards_n = std::min(jobs, trials.size() ? trials.size() : 1);
    sm::campaign::CheckpointMeta meta =
        sm::campaign::checkpoint_meta(trials, options);

    auto shard_path = [&](size_t k) {
      return dir + "/shard-" + std::to_string(k) + ".ckpt";
    };
    auto shard_done = [&](size_t k) {
      // A shard is complete when its checkpoint covers its whole share.
      // (Also validates the checkpoint belongs to this campaign.)
      sm::campaign::CheckpointState state =
          sm::campaign::load_checkpoint(shard_path(k));
      if (state.has_meta && !state.meta.matches(meta)) {
        throw std::runtime_error(shard_path(k) +
                                 " belongs to a different campaign (" +
                                 state.meta.describe() + ")");
      }
      for (size_t i = k; i < trials.size(); i += shards_n)
        if (!state.trials.count(i)) return false;
      return true;
    };

    std::vector<ShardState> shards(shards_n);
    if (fault_budget >= 0 && fault_shard < shards_n)
      shards[fault_shard].fault_armed = true;

    auto spawn_shard = [&](size_t k) {
      std::vector<std::string> args = {
          worker_bin,           "--workload", workload,
          "--checkpoint",       shard_path(k), "--seed",
          std::to_string(seed), "--shards",   std::to_string(shards_n),
          "--shard",            std::to_string(k)};
      if (shards[k].fault_armed) {
        args.push_back("--fault-byte-budget");
        args.push_back(std::to_string(fault_budget));
        shards[k].fault_armed = false;
      }
      shards[k].pid = sm::common::proc::spawn(args);
      if (shards[k].pid < 0)
        throw std::runtime_error("spawn failed for shard " +
                                 std::to_string(k));
      std::fprintf(stderr, "sm-campaignd: spawn shard=%zu pid=%d restart=%zu\n",
                   k, static_cast<int>(shards[k].pid), shards[k].restarts);
    };

    size_t total_restarts = 0;
    size_t live = 0;
    for (size_t k = 0; k < shards_n; ++k) {
      if (shard_done(k)) {
        shards[k].complete = true;
        std::fprintf(stderr, "sm-campaignd: shard=%zu already complete\n", k);
        continue;
      }
      spawn_shard(k);
      ++live;
    }
    write_pid_files(dir, shards);

    while (live > 0) {
      int status = 0;
      pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("waitpid failed");
      }
      size_t k = shards_n;
      for (size_t j = 0; j < shards_n; ++j)
        if (shards[j].pid == pid) k = j;
      if (k == shards_n) continue;  // not a shard worker (cannot happen)
      sm::common::proc::ExitStatus st;
      if (WIFEXITED(status)) {
        st.exited = true;
        st.code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        st.signaled = true;
        st.sig = WTERMSIG(status);
      }
      shards[k].pid = -1;
      if (st.clean() && shard_done(k)) {
        shards[k].complete = true;
        --live;
        std::fprintf(stderr, "sm-campaignd: shard=%zu complete\n", k);
      } else {
        ++shards[k].restarts;
        ++total_restarts;
        if (shards[k].restarts > max_restarts) {
          std::fprintf(stderr,
                       "sm-campaignd: shard=%zu %s, restart budget (%zu) "
                       "exhausted\n",
                       k, st.describe().c_str(), max_restarts);
          return 5;
        }
        std::fprintf(stderr, "sm-campaignd: shard=%zu %s, restarting\n", k,
                     st.describe().c_str());
        spawn_shard(k);
      }
      write_pid_files(dir, shards);
    }

    // Merge: every trial record, from every shard checkpoint, into one
    // result — then the exact finalize the in-process runner uses, so the
    // report is byte-identical to an uninterrupted `run()`.
    CampaignResult result;
    result.trials.resize(trials.size());
    std::vector<std::unique_ptr<sm::obs::Registry>> snapshots(trials.size());
    for (size_t k = 0; k < shards_n; ++k) {
      sm::campaign::CheckpointState state =
          sm::campaign::load_checkpoint(shard_path(k));
      for (auto& [index, decoded] : state.trials) {
        if (index >= trials.size()) continue;
        result.trials[index] = std::move(decoded.result);
        snapshots[index] = std::move(decoded.snapshot);
        ++result.resumed;
      }
    }
    for (size_t i = 0; i < trials.size(); ++i) {
      if (result.trials[i].name.empty() && !result.trials[i].failed) {
        std::fprintf(stderr, "sm-campaignd: trial %zu missing after merge\n",
                     i);
        return 6;
      }
    }
    sm::campaign::finalize_campaign(result, snapshots, options);

    auto write_atomic = [](const std::string& path, const std::string& body) {
      std::string tmp = path + ".tmp";
      FILE* f = std::fopen(tmp.c_str(), "w");
      if (!f) return false;
      bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
      wrote = std::fclose(f) == 0 && wrote;
      return wrote && std::rename(tmp.c_str(), path.c_str()) == 0;
    };
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
    telemetry.counter(kRestarts)->set(total_restarts);
    telemetry.gauge(kShards)->set(static_cast<double>(shards_n));
    telemetry.counter(kTrials)->set(result.trials.size());
    telemetry.counter(kFailures)->set(result.failures);
    std::fprintf(stderr, "sm-campaignd: telemetry %s\n",
                 telemetry.to_json().c_str());
    std::fprintf(stderr, "sm-campaignd: wrote %s (%zu trials, %zu failures, "
                 "%zu restarts)\n",
                 out.c_str(), result.trials.size(), result.failures,
                 total_restarts);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sm-campaignd: %s\n", e.what());
    return 1;
  }
}
