// Campaign runner: the determinism contract (byte-identical reports for
// -j1 vs -jN, in both shard modes), per-trial seed substreams, fault
// isolation of throwing factories, the low-level job pool, and the
// thread-safety additions to common/logging (worker-id tagging,
// concurrent emission). The concurrency tests are the TSan leg's target
// (ci.sh tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/logging.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"

namespace sm {
namespace {

using common::Duration;

/// A small but non-trivial workload: two censor configs x two techniques,
/// lightweight testbeds (4 neighbors), observability on for half the
/// trials so the metrics-merge path is exercised.
std::vector<campaign::Trial> small_workload() {
  core::TestbedConfig rst;
  rst.policy = censor::gfc_profile();
  rst.policy.dns_forgeries.clear();
  rst.neighbor_count = 4;

  core::TestbedConfig dns;
  dns.policy = censor::gfc_profile();
  dns.policy.rst_keywords.clear();
  dns.neighbor_count = 4;
  dns.enable_observability = true;

  auto http_factory = [](core::Testbed& tb) {
    return std::make_unique<core::OvertHttpProbe>(
        tb, core::OvertHttpOptions{.domain = "blocked.example"});
  };
  auto dns_factory = [](core::Testbed& tb) {
    return std::make_unique<core::OvertDnsProbe>(
        tb, core::OvertDnsOptions{.domain = "twitter.com"});
  };

  std::vector<campaign::Trial> trials;
  trials.push_back({.name = "rst/overt-http", .config = rst,
                    .factory = http_factory});
  trials.push_back({.name = "rst/overt-dns", .config = rst,
                    .factory = dns_factory});
  trials.push_back({.name = "dns/overt-http", .config = dns,
                    .factory = http_factory});
  trials.push_back({.name = "dns/overt-dns", .config = dns,
                    .factory = dns_factory});
  return trials;
}

// --- the headline property --------------------------------------------

TEST(CampaignDeterminism, ByteIdenticalAcrossThreadCounts) {
  auto trials = small_workload();
  std::string jsonl[3], metrics[3];
  size_t i = 0;
  for (size_t threads : {1, 2, 8}) {
    campaign::CampaignOptions options;
    options.threads = threads;
    campaign::CampaignResult result = campaign::run(trials, options);
    ASSERT_EQ(result.trials.size(), trials.size());
    ASSERT_EQ(result.failures, 0u);
    jsonl[i] = result.to_jsonl();
    metrics[i] = result.metrics_json();
    ++i;
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
  // The report carries real content, not just identical emptiness.
  EXPECT_NE(jsonl[0].find("\"measurement\""), std::string::npos);
  EXPECT_NE(jsonl[0].find("\"sim_nanos\""), std::string::npos);
  EXPECT_NE(metrics[0].find("sm_campaign_trials_total"), std::string::npos);
}

TEST(CampaignDeterminism, ShardModesProduceIdenticalReports) {
  auto trials = small_workload();
  campaign::CampaignOptions by_index;
  by_index.threads = 3;
  by_index.shard = campaign::Shard::ByIndex;
  campaign::CampaignOptions dynamic = by_index;
  dynamic.shard = campaign::Shard::Dynamic;
  EXPECT_EQ(campaign::run(trials, by_index).to_jsonl(),
            campaign::run(trials, dynamic).to_jsonl());
}

TEST(CampaignDeterminism, ResultsArriveInTrialIndexOrder) {
  auto trials = small_workload();
  campaign::CampaignOptions options;
  options.threads = 4;
  campaign::CampaignResult result = campaign::run(trials, options);
  for (size_t i = 0; i < result.trials.size(); ++i) {
    EXPECT_EQ(result.trials[i].index, i);
    EXPECT_EQ(result.trials[i].name, trials[i].name);
  }
}

TEST(CampaignDeterminism, CampaignSeedChangesDerivedStreams) {
  // Different campaign seeds must actually reseed the per-trial knobs
  // (the substream derivation is live, not decorative): the sampling-
  // seed-dependent parts of the report may differ, but verdicts — which
  // are censor-mechanism-determined — must not.
  auto trials = small_workload();
  campaign::CampaignOptions a, b;
  a.threads = b.threads = 2;
  b.campaign_seed = a.campaign_seed + 1;
  campaign::CampaignResult ra = campaign::run(trials, a);
  campaign::CampaignResult rb = campaign::run(trials, b);
  for (size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(ra.trials[i].report.verdict, rb.trials[i].report.verdict);
  }
}

TEST(CampaignDeterminism, ImpairedConfigsStayByteIdentical) {
  // The determinism contract must survive link impairment: every
  // impairment mechanism draws from per-link substreams derived from the
  // trial's netsim seed, so -j1 vs -j4, in both shard modes, must still
  // produce byte-identical reports with loss, bursts, reordering,
  // duplication and corruption all enabled.
  auto trials = small_workload();
  netsim::Impairment imp;
  imp.burst.p_enter = 0.05;
  imp.burst.loss_bad = 0.9;
  imp.reorder_rate = 0.2;
  imp.duplicate_rate = 0.1;
  imp.corrupt_rate = 0.05;
  for (auto& t : trials) {
    t.config.client_link.loss_rate = 0.05;
    t.config.client_link.impairment = imp;
    t.config.server_link.impairment = imp;
    t.config.dns_retries = 2;  // keep DNS trials conclusive under loss
  }
  std::string baseline;
  for (auto shard : {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
    for (size_t threads : {1, 4}) {
      campaign::CampaignOptions options;
      options.threads = threads;
      options.shard = shard;
      campaign::CampaignResult result = campaign::run(trials, options);
      ASSERT_EQ(result.failures, 0u);
      std::string jsonl = result.to_jsonl();
      if (baseline.empty()) {
        baseline = jsonl;
      } else {
        EXPECT_EQ(baseline, jsonl);
      }
    }
  }
  EXPECT_NE(baseline.find("\"measurement\""), std::string::npos);
}

// --- seed substreams ---------------------------------------------------

TEST(CampaignSeeds, DeterministicAndDistinct) {
  EXPECT_EQ(campaign::trial_seed(42, 7, 0), campaign::trial_seed(42, 7, 0));
  std::set<uint64_t> seen;
  for (uint64_t seed : {1ull, 42ull}) {
    for (size_t index = 0; index < 64; ++index) {
      for (uint64_t stream = 0; stream < 3; ++stream) {
        seen.insert(campaign::trial_seed(seed, index, stream));
      }
    }
  }
  EXPECT_EQ(seen.size(), 2u * 64u * 3u);  // no collisions across the grid
}

// --- fault isolation ---------------------------------------------------

TEST(CampaignFaults, ThrowingFactoryFailsOnlyItsTrial) {
  auto trials = small_workload();
  trials[1].factory = [](core::Testbed&) -> std::unique_ptr<core::Probe> {
    throw std::runtime_error("factory exploded");
  };
  campaign::CampaignOptions options;
  options.threads = 2;
  campaign::CampaignResult result = campaign::run(trials, options);
  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_EQ(result.failures, 1u);
  EXPECT_TRUE(result.trials[1].failed);
  EXPECT_EQ(result.trials[1].error, "factory exploded");
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(result.trials[i].failed) << "trial " << i;
    EXPECT_FALSE(result.trials[i].report.technique.empty());
  }
  // The failure is in the report file, as an error line at its index.
  EXPECT_NE(result.to_jsonl().find(
                "{\"trial\":1,\"name\":\"rst/overt-dns\",\"error\":"
                "\"factory exploded\"}"),
            std::string::npos);
  // And in the merged metrics.
  EXPECT_NE(result.metrics_json().find("sm_campaign_trial_failures_total"),
            std::string::npos);
}

TEST(CampaignFaults, NullFactoryIsReportedNotFatal) {
  auto trials = small_workload();
  trials[0].factory = nullptr;
  campaign::CampaignResult result = campaign::run(trials, {});
  EXPECT_EQ(result.failures, 1u);
  EXPECT_TRUE(result.trials[0].failed);
  EXPECT_NE(result.trials[0].error.find("factory"), std::string::npos);
}

// --- the low-level job pool -------------------------------------------

TEST(CampaignJobs, EveryIndexRunsExactlyOnce) {
  for (campaign::Shard shard :
       {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
    constexpr size_t kJobs = 200;
    std::vector<std::atomic<int>> hits(kJobs);
    campaign::CampaignOptions options;
    options.threads = 8;
    options.shard = shard;
    auto errors = campaign::run_jobs(
        kJobs, [&](size_t i, int worker) {
          EXPECT_GE(worker, 0);
          EXPECT_LT(worker, 8);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        options);
    ASSERT_EQ(errors.size(), kJobs);
    for (size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      EXPECT_TRUE(errors[i].empty());
    }
  }
}

TEST(CampaignJobs, ExceptionsAreCapturedPerIndex) {
  campaign::CampaignOptions options;
  options.threads = 4;
  auto errors = campaign::run_jobs(
      10,
      [&](size_t i, int) {
        if (i % 3 == 0) throw std::runtime_error("job " + std::to_string(i));
      },
      options);
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(errors[i], "job " + std::to_string(i));
    } else {
      EXPECT_TRUE(errors[i].empty());
    }
  }
}

TEST(CampaignJobs, EmptyAndOversubscribedAreSafe) {
  EXPECT_TRUE(campaign::run_jobs(0, [](size_t, int) {}).empty());
  campaign::CampaignOptions options;
  options.threads = 64;  // more workers than jobs: clamped to n
  std::atomic<int> ran{0};
  auto errors =
      campaign::run_jobs(3, [&](size_t, int) { ran.fetch_add(1); }, options);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_GE(campaign::resolve_threads(0), 1u);
  EXPECT_EQ(campaign::resolve_threads(5), 5u);
}

TEST(CampaignJobs, EmptyCampaignYieldsMetricsOnlyReport) {
  campaign::CampaignResult result = campaign::run({}, {});
  EXPECT_TRUE(result.trials.empty());
  EXPECT_EQ(result.failures, 0u);
  // Only the metrics block line (runner self-metrics at zero).
  std::string jsonl = result.to_jsonl();
  EXPECT_EQ(jsonl.find("\"trial\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"metrics\""), std::string::npos);
}

// --- wall-clock telemetry ---------------------------------------------

TEST(CampaignTelemetry, PhasesSumToTrialWallTime) {
  // setup + run + finish + teardown account for every trial's whole wall
  // time, and so do the workers' busy seconds, whether the trials ran in
  // threads or in forked shards.
  for (campaign::Backend backend :
       {campaign::Backend::Thread, campaign::Backend::Process}) {
    campaign::CampaignOptions options;
    options.threads = 2;
    options.backend = backend;
    campaign::CampaignResult result = campaign::run(small_workload(), options);
    ASSERT_NE(result.telemetry, nullptr);
    double walls = 0, busy = 0;
    std::set<int> workers;
    for (const campaign::TrialResult& t : result.trials) {
      walls += t.wall_elapsed.to_seconds();
      workers.insert(t.worker);
    }
    for (int w : workers) {
      busy += result.telemetry
                  ->gauge("sm_campaign_worker_busy_seconds_total",
                          {{"worker", std::to_string(w)}})
                  ->value();
    }
    EXPECT_NEAR(busy, walls, 1e-9);
    double phases = 0;
    for (const char* phase : {"setup", "run", "finish", "teardown"}) {
      double seconds =
          result.telemetry
              ->gauge("sm_campaign_phase_wall_seconds_total",
                      {{"phase", phase}})
              ->value();
      EXPECT_GT(seconds, 0.0) << phase;
      phases += seconds;
    }
    EXPECT_GT(walls, 0.0);
    EXPECT_NEAR(phases, walls, 1e-9);
  }
}

// --- logging thread safety & worker tagging ---------------------------

TEST(LoggingWorkers, WorkerIdTagsTheComponent) {
  using common::LogLevel;
  std::vector<std::string> components;
  common::set_log_sink([&](LogLevel, const std::string& component,
                           const std::string&) {
    components.push_back(component);
  });
  common::set_log_worker_id(3);
  EXPECT_EQ(common::log_worker_id(), 3);
  common::log_warn("campaign", "tagged");
  common::set_log_worker_id(-1);
  EXPECT_EQ(common::log_worker_id(), -1);
  common::log_warn("campaign", "untagged");
  common::set_log_sink(nullptr);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], "w3/campaign");
  EXPECT_EQ(components[1], "campaign");
}

TEST(LoggingWorkers, CampaignWorkersEmitTaggedRecords) {
  using common::LogLevel;
  std::mutex mu;  // the sink itself runs serialized; guard the snapshot
  std::vector<std::string> components;
  common::set_log_sink([&](LogLevel, const std::string& component,
                           const std::string&) {
    std::lock_guard<std::mutex> lock(mu);
    components.push_back(component);
  });
  campaign::CampaignOptions options;
  options.threads = 4;
  campaign::run_jobs(
      16, [](size_t i, int) {
        common::log_warn("job", "running " + std::to_string(i));
      },
      options);
  common::set_log_sink(nullptr);
  ASSERT_EQ(components.size(), 16u);
  for (const std::string& c : components) {
    EXPECT_EQ(c.rfind("w", 0), 0u) << c;  // every record worker-tagged
    EXPECT_NE(c.find("/job"), std::string::npos) << c;
  }
}

TEST(LoggingWorkers, ConcurrentLevelFlipsAndEmissionAreRaceFree) {
  // The TSan canary: hammer level flips, sink swaps, and emission from
  // many threads at once. Correctness assertion is just "no crash and
  // every surviving record intact"; TSan turns any data race fatal.
  using common::LogLevel;
  std::atomic<size_t> records{0};
  common::set_log_sink(
      [&](LogLevel, const std::string&, const std::string&) {
        records.fetch_add(1, std::memory_order_relaxed);
      });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      common::set_log_worker_id(t);
      for (int i = 0; i < 200; ++i) {
        common::log_warn("stress", "m" + std::to_string(i));
        if (i % 50 == 0) {
          common::set_log_level(i % 100 == 0 ? LogLevel::Warn
                                             : LogLevel::Error);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  common::set_log_level(LogLevel::Warn);
  common::set_log_sink(nullptr);
  EXPECT_GT(records.load(), 0u);
}

}  // namespace
}  // namespace sm
