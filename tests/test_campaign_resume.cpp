// Crash-safe campaign service, library level: checkpoint resume emits
// byte-identical output from any clean prefix (torn tails truncated and
// replayed, never merged), only missing trials re-execute, and the
// process-shard backend is byte-identical to the thread pool at any -j
// in both shard modes — with a worker death or a poisoned result stream
// costing exactly its own trials, and the checkpoint fault hook cutting a
// record mid-frame. The
// end-to-end kill -9 variants (sm-campaignd + harness) live in
// tools/crash_harness.py, driven by `ci.sh resume`.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <map>
#include <sstream>
#include <string>
#include <utility>
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
  std::vector<common::Bytes> records;
  common::RecordScan scan = common::scan_records(
      src, campaign::kCheckpointTag, [&](std::span<const uint8_t> payload) {
        records.emplace_back(payload.begin(), payload.end());
      });
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_GE(records.size(), 1u + keep);
  common::RecordWriter writer;
  ASSERT_TRUE(writer.open(dst, campaign::kCheckpointTag, 0));
  for (size_t i = 0; i <= keep; ++i)  // record 0 is the meta
    ASSERT_TRUE(writer.append(records[i]));
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
  EXPECT_EQ(r.lost, 4u);
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
  size_t casualties = 0;
  for (size_t i = 0; i < crashing.size(); ++i) {
    const campaign::TrialResult& t = crashed.trials[i];
    if (t.failed) {
      ++casualties;
      EXPECT_EQ(t.worker, victim) << i;
      EXPECT_EQ(t.error, cause) << i;
      EXPECT_FALSE(state.trials.count(i)) << "casualty " << i;
    } else {
      EXPECT_EQ(rows[i], ref_rows[i]) << i;
      EXPECT_TRUE(state.trials.count(i)) << i;
    }
  }
  EXPECT_EQ(state.trials.size(), crashing.size() - crashed.failures);
  // The re-run count a supervisor reads: exactly the casualty rows.
  EXPECT_EQ(crashed.lost, casualties);

  // Same campaign identity (names + seed), healthy factories: the resume
  // fills exactly the holes.
  campaign::CampaignOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = path;
  campaign::CampaignResult healed = campaign::run(good, resume);
  EXPECT_EQ(healed.failures, 0u);
  EXPECT_EQ(healed.lost, 0u);
  EXPECT_EQ(healed.resumed, state.trials.size());
  EXPECT_EQ(healed.to_jsonl(), ref_jsonl);
  std::remove(path.c_str());
}

TEST(CampaignResume, EveryWorkerDeadLeavesErrorRowsNotBlankOnes) {
  // Both Dynamic workers die on their first trial. The positions they
  // owed fail as casualties; the positions never handed out have no
  // worker left to run them and must fail as well — named, counted as
  // lost, kept out of the checkpoint — never stay default slots that
  // serialize as nameless "inconclusive" successes.
  auto good = campaign::build_workload("synthetic:24");
  campaign::CampaignOptions serial;
  serial.threads = 1;
  const std::string ref_jsonl = campaign::run(good, serial).to_jsonl();

  auto crashing = campaign::build_workload("synthetic:24");
  for (size_t i : {size_t{0}, size_t{1}}) {
    crashing[i].factory = [](core::Testbed&) -> std::unique_ptr<core::Probe> {
      ::_exit(9);
    };
  }
  const std::string path = temp_path("alldead");
  std::remove(path.c_str());
  campaign::CampaignOptions options;
  options.threads = 2;
  options.backend = campaign::Backend::Process;
  options.shard = campaign::Shard::Dynamic;
  options.checkpoint_path = path;
  std::vector<size_t> reports;
  options.on_progress = [&](const campaign::Progress& p) {
    reports.push_back(p.completed);
  };
  campaign::CampaignResult r = campaign::run(crashing, options);
  EXPECT_EQ(r.failures, crashing.size());
  EXPECT_EQ(r.lost, crashing.size());
  size_t orphaned = 0;
  for (size_t i = 0; i < crashing.size(); ++i) {
    const campaign::TrialResult& t = r.trials[i];
    EXPECT_EQ(t.index, i);
    EXPECT_EQ(t.name, crashing[i].name) << i;
    EXPECT_TRUE(t.failed) << i;
    if (t.error == "no live worker left") {
      ++orphaned;
      EXPECT_EQ(t.worker, -1) << i;
    } else {
      EXPECT_EQ(t.error, "worker " + std::to_string(t.worker) +
                             " exited 9 before trial completed")
          << i;
    }
  }
  // Each worker was handed at most its window of 4 positions.
  EXPECT_GE(orphaned, crashing.size() - 8);
  EXPECT_EQ(r.metrics_json().find("inconclusive"), std::string::npos);
  ASSERT_EQ(reports.size(), crashing.size());
  for (size_t k = 0; k < reports.size(); ++k) EXPECT_EQ(reports[k], k + 1);
  EXPECT_TRUE(campaign::load_checkpoint(path).trials.empty());

  // Nothing was checkpointed, so the resume runs every trial.
  campaign::CampaignOptions resume;
  resume.threads = 2;
  resume.checkpoint_path = path;
  campaign::CampaignResult healed = campaign::run(good, resume);
  EXPECT_EQ(healed.resumed, 0u);
  EXPECT_EQ(healed.to_jsonl(), ref_jsonl);
  std::remove(path.c_str());
}

/// Every pipe this process holds open write-only, (device, inode) -> fd.
std::map<std::pair<dev_t, ino_t>, int> write_only_pipes() {
  std::map<std::pair<dev_t, ino_t>, int> out;
  for (int fd = 3; fd < 1024; ++fd) {
    const int flags = ::fcntl(fd, F_GETFL);
    struct stat st {};
    if (flags < 0 || (flags & O_ACCMODE) != O_WRONLY ||
        ::fstat(fd, &st) != 0 || !S_ISFIFO(st.st_mode))
      continue;
    out.emplace(std::pair(st.st_dev, st.st_ino), fd);
  }
  return out;
}

TEST(CampaignResume, PoisonedWorkerStreamIsKilledAndItsTrialsLost) {
  // Trial 2's factory writes a frame the controller must refuse into its
  // worker's result pipe (the one write-only pipe the worker holds that
  // the test process did not), then waits to be killed. Trials 0 and 1
  // arrived whole before it; the controller kills and retires the worker
  // on the poison, its owed positions are lost with the poison named, the
  // positions never handed out are lost as orphans, and none of them is
  // checkpointed.
  common::Bytes corrupt;
  common::append_frame(corrupt, common::Bytes(40, 0x5A));
  corrupt.back() ^= 1;
  common::Bytes junk_record;  // checksums fine, but no trial record
  common::append_frame(junk_record, common::Bytes(40, 0x5A));
  common::ByteWriter oversize;
  oversize.u32(common::kMaxPayload + 1);
  oversize.u32(0);
  const std::pair<common::Bytes, std::string> poisons[] = {
      {oversize.take(), "sent an oversized frame"},
      {corrupt, "sent a corrupt frame"},
      {junk_record, "sent an undecodable frame"},
  };
  const auto inherited = write_only_pipes();
  for (const auto& [poison, what] : poisons) {
    auto trials = campaign::build_workload("synthetic:8");
    trials[2].factory = [&, poison = poison](core::Testbed&)
        -> std::unique_ptr<core::Probe> {
      size_t poisoned = 0;
      for (const auto& [pipe, fd] : write_only_pipes()) {
        if (inherited.count(pipe)) continue;
        if (::write(fd, poison.data(), poison.size()) < 0) ::_exit(98);
        ++poisoned;
      }
      if (poisoned == 0) ::_exit(97);  // no result pipe found
      // The controller kills this worker at once; the alarm ends it if the
      // controller never does, so that failure shows as a wrong cause
      // rather than a hung test.
      ::alarm(20);
      for (;;) ::pause();
    };
    const std::string path = temp_path("poison");
    std::remove(path.c_str());
    campaign::CampaignOptions options;
    options.threads = 1;
    options.backend = campaign::Backend::Process;
    options.shard = campaign::Shard::Dynamic;
    options.checkpoint_path = path;
    campaign::CampaignResult r = campaign::run(trials, options);
    const std::string cause = "worker 0 " + what + " before trial completed";
    EXPECT_FALSE(r.trials[0].failed) << what;
    EXPECT_FALSE(r.trials[1].failed) << what;
    EXPECT_EQ(r.trials[2].error, cause);
    for (size_t i = 3; i < trials.size(); ++i) {
      EXPECT_TRUE(r.trials[i].error == cause ||
                  r.trials[i].error == "no live worker left")
          << what << " " << i << ": " << r.trials[i].error;
    }
    EXPECT_EQ(r.lost, trials.size() - 2) << what;
    EXPECT_EQ(r.failures, r.lost) << what;
    campaign::CheckpointState state = campaign::load_checkpoint(path);
    EXPECT_EQ(state.trials.size(), 2u) << what;
    std::remove(path.c_str());
  }
}

TEST(CampaignResume, ProgressCountsUpByOneFromTheResumedBase) {
  // Each on_progress call reports exactly one more completed trial than
  // the last, starting just above the resumed count and ending at the
  // total, on either backend — even when workers finish together.
  auto trials = campaign::build_workload("synthetic:96");
  const std::string full = temp_path("progress_full");
  std::remove(full.c_str());
  campaign::CampaignOptions plain;
  plain.threads = 2;
  plain.checkpoint_path = full;
  campaign::run(trials, plain);
  constexpr size_t kResumed = 10;

  for (auto backend :
       {campaign::Backend::Thread, campaign::Backend::Process}) {
    const bool process = backend == campaign::Backend::Process;
    for (int round = 0; round < (process ? 1 : 4); ++round) {
      const std::string prefix = temp_path("progress_prefix");
      prefix_checkpoint(full, prefix, kResumed);
      campaign::CampaignOptions options;
      options.threads = process ? 3 : 4;
      options.backend = backend;
      options.shard = campaign::Shard::Dynamic;
      options.checkpoint_path = prefix;
      std::vector<size_t> reports;
      options.on_progress = [&](const campaign::Progress& p) {
        EXPECT_EQ(p.total, trials.size());
        reports.push_back(p.completed);
      };
      campaign::CampaignResult r = campaign::run(trials, options);
      EXPECT_EQ(r.resumed, kResumed);
      ASSERT_EQ(reports.size(), trials.size() - kResumed);
      for (size_t k = 0; k < reports.size(); ++k)
        ASSERT_EQ(reports[k], kResumed + k + 1)
            << (process ? "process" : "thread") << " round " << round
            << " report " << k;
      std::remove(prefix.c_str());
    }
  }
  std::remove(full.c_str());
}

TEST(CampaignResume, CheckpointFaultBudgetExitsMidFrameAndResumes) {
  // The fault hook of CampaignOptions: a process-backend run whose
  // checkpoint writer runs out of budget 13 bytes into its fourth trial
  // record must die with kCheckpointFaultExit, leaving three whole
  // records and a torn tail; the resume must truncate the tail, re-run
  // the rest and match thread -j1 byte for byte.
  auto trials = campaign::build_workload("synthetic:12");
  campaign::CampaignOptions serial;
  serial.threads = 1;
  const std::string ref_jsonl = campaign::run(trials, serial).to_jsonl();

  // One worker relays records in index order, so frame offsets from a
  // full checkpoint say where the budget lands.
  campaign::CampaignOptions options;
  options.threads = 1;
  options.backend = campaign::Backend::Process;
  options.shard = campaign::Shard::Dynamic;
  const std::string full = temp_path("fault_full");
  std::remove(full.c_str());
  options.checkpoint_path = full;
  campaign::run(trials, options);
  const std::string bytes = read_file(full);
  const int64_t budget = static_cast<int64_t>(
      frame_end_offset(bytes, 3) + 13 - frame_end_offset(bytes, 0));

  const std::string path = temp_path("fault");
  std::remove(path.c_str());
  options.checkpoint_path = path;
  options.checkpoint_fault_budget = budget;
  std::fflush(nullptr);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      campaign::run(trials, options);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);  // the fault never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), campaign::kCheckpointFaultExit);

  campaign::CheckpointState state = campaign::load_checkpoint(path);
  EXPECT_TRUE(state.torn);
  EXPECT_EQ(state.trials.size(), 3u);
  EXPECT_EQ(state.valid_bytes, frame_end_offset(bytes, 3));

  campaign::CampaignOptions resume;
  resume.threads = 2;
  resume.backend = campaign::Backend::Process;
  resume.shard = campaign::Shard::Dynamic;
  resume.checkpoint_path = path;
  campaign::CampaignResult r = campaign::run(trials, resume);
  EXPECT_EQ(r.resumed, 3u);
  EXPECT_EQ(r.to_jsonl(), ref_jsonl);
  EXPECT_FALSE(campaign::load_checkpoint(path).torn);
  std::remove(full.c_str());
  std::remove(path.c_str());
}

}  // namespace
