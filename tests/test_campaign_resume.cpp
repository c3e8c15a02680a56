// Crash-safe campaign service, library level: checkpoint resume emits
// byte-identical output from any clean prefix (torn tails truncated and
// replayed, never merged), only missing trials re-execute, and the
// process-shard backend is byte-identical to the thread pool at any -j
// in both shard modes — with a worker death costing exactly its own
// trials. The end-to-end kill -9 variants (sm-campaignd + harness) live
// in tools/crash_harness.py, driven by `ci.sh resume`.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/workloads.hpp"
#include "common/recordio.hpp"
#include "core/overt.hpp"

using namespace sm;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sm_resume_" + name + "_" +
         std::to_string(::getpid()) + ".ckpt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Copies the meta record plus the first `keep` trial records of `src`
/// into a fresh checkpoint at `dst` — the on-disk state of a campaign
/// interrupted after `keep` trials.
void prefix_checkpoint(const std::string& src, const std::string& dst,
                       size_t keep) {
  common::RecordScan scan = common::scan_records(src, campaign::kCheckpointTag);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_GE(scan.records.size(), 1u + keep);
  common::RecordWriter writer;
  ASSERT_TRUE(writer.open(dst, campaign::kCheckpointTag, 0));
  for (size_t i = 0; i <= keep; ++i)  // record 0 is the meta
    ASSERT_TRUE(writer.append(scan.records[i]));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Byte offset of the end of frame `n` (counting the meta record as
/// frame 0) inside a checkpoint file's bytes.
size_t frame_end_offset(const std::string& bytes, size_t n) {
  size_t pos = 8;  // file header
  for (size_t i = 0; i <= n; ++i) {
    uint32_t len = static_cast<uint32_t>(uint8_t(bytes[pos])) << 24 |
                   static_cast<uint32_t>(uint8_t(bytes[pos + 1])) << 16 |
                   static_cast<uint32_t>(uint8_t(bytes[pos + 2])) << 8 |
                   static_cast<uint32_t>(uint8_t(bytes[pos + 3]));
    pos += 8 + len;
  }
  return pos;
}

// --- checkpoint resume ------------------------------------------------

TEST(CampaignResume, ResumeFromAnyPrefixIsByteIdentical) {
  auto trials = campaign::build_workload("synthetic:8");
  campaign::CampaignOptions options;
  options.threads = 2;

  campaign::CampaignResult ref = campaign::run(trials, options);
  ASSERT_EQ(ref.failures, 0u);
  const std::string ref_jsonl = ref.to_jsonl();
  const std::string ref_metrics = ref.metrics_json();

  // A checkpointing run changes nothing about the output...
  const std::string full = temp_path("full");
  campaign::CampaignOptions with_ckpt = options;
  with_ckpt.checkpoint_path = full;
  campaign::CampaignResult first = campaign::run(trials, with_ckpt);
  EXPECT_EQ(first.resumed, 0u);
  EXPECT_EQ(first.to_jsonl(), ref_jsonl);

  // ...and a resume from ANY clean prefix of its checkpoint — the state
  // after an interruption at any trial boundary — reproduces it exactly.
  for (size_t keep : {size_t{0}, size_t{1}, size_t{5}, trials.size()}) {
    const std::string prefix = temp_path("prefix" + std::to_string(keep));
    prefix_checkpoint(full, prefix, keep);
    campaign::CampaignOptions resume = options;
    resume.checkpoint_path = prefix;
    campaign::CampaignResult r = campaign::run(trials, resume);
    EXPECT_EQ(r.resumed, keep);
    EXPECT_EQ(r.to_jsonl(), ref_jsonl) << "resumed from " << keep;
    EXPECT_EQ(r.metrics_json(), ref_metrics) << "resumed from " << keep;
    size_t flagged = 0;
    for (const auto& t : r.trials)
      if (t.resumed) ++flagged;
    EXPECT_EQ(flagged, keep);
    std::remove(prefix.c_str());
  }
  std::remove(full.c_str());
}

TEST(CampaignResume, TornTailIsTruncatedAndReplayed) {
  auto trials = campaign::build_workload("synthetic:6");
  campaign::CampaignOptions options;
  options.threads = 2;
  const std::string full = temp_path("torn_src");
  campaign::CampaignOptions with_ckpt = options;
  with_ckpt.checkpoint_path = full;
  const std::string ref_jsonl = campaign::run(trials, with_ckpt).to_jsonl();

  // Cut the file 5 bytes into the frame of the third trial record — a
  // kill -9 landing mid-checkpoint-write.
  std::string bytes = read_file(full);
  size_t cut = frame_end_offset(bytes, 2) + 13;
  ASSERT_LT(cut, bytes.size());
  const std::string torn = temp_path("torn");
  {
    std::ofstream out(torn, std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, cut);
  }
  campaign::CheckpointState state = campaign::load_checkpoint(torn);
  EXPECT_TRUE(state.torn);
  EXPECT_EQ(state.trials.size(), 2u);  // the two whole records survive

  campaign::CampaignOptions resume = options;
  resume.checkpoint_path = torn;
  campaign::CampaignResult r = campaign::run(trials, resume);
  EXPECT_EQ(r.resumed, 2u);
  EXPECT_EQ(r.to_jsonl(), ref_jsonl);
  // The file is whole again after the resume run.
  campaign::CheckpointState healed = campaign::load_checkpoint(torn);
  EXPECT_FALSE(healed.torn);
  EXPECT_EQ(healed.trials.size(), trials.size());
  std::remove(full.c_str());
  std::remove(torn.c_str());
}

TEST(CampaignResume, OnlyMissingTrialsExecute) {
  // Count actual probe constructions: a resume must re-run exactly the
  // trials the checkpoint does not cover.
  static std::atomic<size_t> constructions{0};
  constructions = 0;
  auto trials = campaign::build_workload("synthetic:6");
  for (auto& t : trials) {
    auto inner = t.factory;
    t.factory = [inner](core::Testbed& tb) {
      constructions.fetch_add(1, std::memory_order_relaxed);
      return inner(tb);
    };
  }
  campaign::CampaignOptions options;
  options.threads = 2;
  const std::string full = temp_path("count");
  options.checkpoint_path = full;
  size_t last_progress = 0;
  options.on_progress = [&](const campaign::Progress& p) {
    last_progress = p.completed;
  };
  campaign::run(trials, options);
  EXPECT_EQ(constructions.load(), trials.size());
  EXPECT_EQ(last_progress, trials.size());

  const std::string prefix = temp_path("count_prefix");
  prefix_checkpoint(full, prefix, 4);
  options.checkpoint_path = prefix;
  constructions = 0;
  last_progress = 0;
  campaign::CampaignResult r = campaign::run(trials, options);
  EXPECT_EQ(r.resumed, 4u);
  EXPECT_EQ(constructions.load(), trials.size() - 4);
  // Progress is campaign-wide: the resumed base counts.
  EXPECT_EQ(last_progress, trials.size());
  size_t flagged = 0;
  for (const auto& t : r.trials)
    if (t.resumed) ++flagged;
  EXPECT_EQ(flagged, 4u);
  std::remove(full.c_str());
  std::remove(prefix.c_str());
}

TEST(CampaignResume, ForeignCheckpointRefusesLoudly) {
  auto trials = campaign::build_workload("synthetic:4");
  campaign::CampaignOptions options;
  options.threads = 1;
  options.checkpoint_path = temp_path("foreign");
  campaign::run(trials, options);
  // Different seed → different campaign → the checkpoint must not be
  // silently reused (its records would be wrong-seed rows).
  options.campaign_seed ^= 1;
  EXPECT_THROW(campaign::run(trials, options), std::runtime_error);
  // Different workload (one more trial) → same refusal.
  options.campaign_seed ^= 1;
  auto more = campaign::build_workload("synthetic:5");
  EXPECT_THROW(campaign::run(more, options), std::runtime_error);
  std::remove(options.checkpoint_path.c_str());
}

TEST(CampaignResume, DeterministicFailureRowsAreCheckpointed) {
  // A throwing factory is deterministic: its error row is canonical
  // output, recorded and NOT re-run on resume.
  auto trials = campaign::build_workload("synthetic:4");
  trials[2].factory = [](core::Testbed&) {
    return std::unique_ptr<core::Probe>{};  // -> "probe factory returned null"
  };
  campaign::CampaignOptions options;
  options.threads = 2;
  options.checkpoint_path = temp_path("detfail");
  campaign::CampaignResult first = campaign::run(trials, options);
  EXPECT_EQ(first.failures, 1u);

  campaign::CheckpointState state =
      campaign::load_checkpoint(options.checkpoint_path);
  ASSERT_EQ(state.trials.size(), 4u);
  EXPECT_TRUE(state.trials.at(2).result.failed);

  campaign::CampaignResult second = campaign::run(trials, options);
  EXPECT_EQ(second.resumed, 4u);  // nothing re-ran, error row included
  EXPECT_EQ(second.to_jsonl(), first.to_jsonl());
  std::remove(options.checkpoint_path.c_str());
}

// --- process-shard backend: differential determinism ------------------

TEST(CampaignResume, ProcessBackendByteIdenticalToThreads) {
  auto trials = campaign::build_workload("synthetic:10");
  campaign::CampaignOptions base;
  base.threads = 1;
  const campaign::CampaignResult ref = campaign::run(trials, base);
  const std::string ref_jsonl = ref.to_jsonl();
  const std::string ref_metrics = ref.metrics_json();
  ASSERT_EQ(ref.failures, 0u);

  for (auto shard : {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      for (auto backend :
           {campaign::Backend::Thread, campaign::Backend::Process}) {
        campaign::CampaignOptions options;
        options.threads = threads;
        options.shard = shard;
        options.backend = backend;
        campaign::CampaignResult r = campaign::run(trials, options);
        std::string what =
            (backend == campaign::Backend::Process ? "process" : "thread") +
            std::string(" -j") + std::to_string(threads) +
            (shard == campaign::Shard::Dynamic ? " dynamic" : " by-index");
        EXPECT_EQ(r.failures, 0u) << what;
        EXPECT_EQ(r.to_jsonl(), ref_jsonl) << what;
        EXPECT_EQ(r.metrics_json(), ref_metrics) << what;
        // Wall-clock telemetry still flows back from worker processes.
        if (backend == campaign::Backend::Process) {
          ASSERT_TRUE(r.telemetry);
          EXPECT_NE(r.telemetry->to_json().find(
                        "sm_campaign_worker_trials_total"),
                    std::string::npos)
              << what;
        }
      }
    }
  }
}

TEST(CampaignResume, ProcessBackendCheckpointResumesIntoThreadBackend) {
  // Backend choice is a runtime detail, not part of campaign identity:
  // a checkpoint written by process shards resumes under the thread
  // pool (and vice versa) to the same bytes.
  auto trials = campaign::build_workload("synthetic:8");
  campaign::CampaignOptions plain;
  plain.threads = 2;
  const std::string ref_jsonl = campaign::run(trials, plain).to_jsonl();

  const std::string path = temp_path("xbackend");
  campaign::CampaignOptions proc = plain;
  proc.backend = campaign::Backend::Process;
  proc.checkpoint_path = path;
  EXPECT_EQ(campaign::run(trials, proc).to_jsonl(), ref_jsonl);

  const std::string prefix = temp_path("xbackend_prefix");
  prefix_checkpoint(path, prefix, 3);
  campaign::CampaignOptions resume = plain;  // thread backend
  resume.checkpoint_path = prefix;
  campaign::CampaignResult r = campaign::run(trials, resume);
  EXPECT_EQ(r.resumed, 3u);
  EXPECT_EQ(r.to_jsonl(), ref_jsonl);
  std::remove(path.c_str());
  std::remove(prefix.c_str());
}

// --- process-shard backend: fault isolation ---------------------------

TEST(CampaignResume, WorkerDeathFailsOnlyItsOwnTrials) {
  // Trial 1's factory nukes its worker process outright — the strongest
  // version of "a trial crashed". Under ByIndex with two workers, worker
  // 1 owns the odd trials, so exactly those must fail; the even trials,
  // owned by worker 0, complete untouched. (Thread backend could never
  // survive this test — that asymmetry is the point of process shards.)
  auto trials = campaign::build_workload("synthetic:8");
  trials[1].factory = [](core::Testbed&) -> std::unique_ptr<core::Probe> {
    ::_exit(7);
  };
  campaign::CampaignOptions options;
  options.threads = 2;
  options.shard = campaign::Shard::ByIndex;
  options.backend = campaign::Backend::Process;
  campaign::CampaignResult r = campaign::run(trials, options);
  EXPECT_EQ(r.failures, 4u);
  for (size_t i = 0; i < r.trials.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_FALSE(r.trials[i].failed) << i;
    } else {
      EXPECT_TRUE(r.trials[i].failed) << i;
      EXPECT_NE(r.trials[i].error.find("worker 1 exited 7"),
                std::string::npos)
          << r.trials[i].error;
    }
  }
  // The failure rows serialize like any other error row.
  EXPECT_NE(r.to_jsonl().find("\"error\":\"worker 1 exited 7"),
            std::string::npos);
}

TEST(CampaignResume, WorkerCrashCasualtiesRerunOnResume) {
  // Crash losses are NOT checkpointed (unlike deterministic failures):
  // the resume re-runs them from their index-derived seeds and heals the
  // campaign to the bytes an uninterrupted run produces. Dynamic keeps a
  // window of 4 positions outstanding per worker, so a death costs the
  // trial the worker was running and the ones queued behind it — between
  // 1 and 4 trials, all its own — and every other row is the row a
  // thread -j1 run produces.
  auto good = campaign::build_workload("synthetic:24");
  campaign::CampaignOptions serial;
  serial.threads = 1;
  const std::string ref_jsonl = campaign::run(good, serial).to_jsonl();
  const std::vector<std::string> ref_rows = split_lines(ref_jsonl);

  auto crashing = campaign::build_workload("synthetic:24");
  crashing[9].factory = [](core::Testbed&) -> std::unique_ptr<core::Probe> {
    ::_exit(9);
  };
  const std::string path = temp_path("crashrerun");
  std::remove(path.c_str());
  campaign::CampaignOptions first;
  first.threads = 2;
  first.backend = campaign::Backend::Process;
  first.shard = campaign::Shard::Dynamic;
  first.checkpoint_path = path;
  campaign::CampaignResult crashed = campaign::run(crashing, first);
  EXPECT_GE(crashed.failures, 1u);
  EXPECT_LE(crashed.failures, 4u);
  ASSERT_TRUE(crashed.trials[9].failed);
  const int victim = crashed.trials[9].worker;
  const std::string cause = "worker " + std::to_string(victim) +
                            " exited 9 before trial completed";
  const std::vector<std::string> rows = split_lines(crashed.to_jsonl());
  ASSERT_EQ(rows.size(), ref_rows.size());
  campaign::CheckpointState state = campaign::load_checkpoint(path);
  for (size_t i = 0; i < crashing.size(); ++i) {
    const campaign::TrialResult& t = crashed.trials[i];
    if (t.failed) {
      EXPECT_EQ(t.worker, victim) << i;
      EXPECT_EQ(t.error, cause) << i;
      EXPECT_FALSE(state.trials.count(i)) << "casualty " << i;
    } else {
      EXPECT_EQ(rows[i], ref_rows[i]) << i;
      EXPECT_TRUE(state.trials.count(i)) << i;
    }
  }
  EXPECT_EQ(state.trials.size(), crashing.size() - crashed.failures);

  // Same campaign identity (names + seed), healthy factories: the resume
  // fills exactly the holes.
  campaign::CampaignOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = path;
  campaign::CampaignResult healed = campaign::run(good, resume);
  EXPECT_EQ(healed.failures, 0u);
  EXPECT_EQ(healed.resumed, state.trials.size());
  EXPECT_EQ(healed.to_jsonl(), ref_jsonl);
  std::remove(path.c_str());
}

}  // namespace
