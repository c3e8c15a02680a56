// Tests for the simcheck property-based model-checker: generator
// determinism and soundness, scenario serialization, all-oracle
// exploration, -j1 vs -jN byte identity, fault-driven shrinking, and
// permanent replay of the checked-in reproducer corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/json.hpp"
#include "simcheck/corpus.hpp"
#include "simcheck/explore.hpp"
#include "simcheck/generate.hpp"
#include "simcheck/runner.hpp"
#include "simcheck/scenario.hpp"
#include "simcheck/shrink.hpp"

using namespace sm;
using namespace sm::simcheck;

namespace {

constexpr uint64_t kSeed = 0x51AC4EC0DEULL;

std::string corpus_dir() { return std::string(SM_TEST_DIR) + "/corpus"; }

}  // namespace

TEST(SimcheckJson, RoundTripsValuesAndRejectsGarbage) {
  auto parsed = Json::parse(
      R"({"a":1,"b":-2.5,"c":"x\"\né","d":[true,false,null],"e":{}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed->get("b")->as_double(), -2.5);
  EXPECT_EQ(parsed->get("c")->as_string(), "x\"\n\xc3\xa9");
  EXPECT_EQ(parsed->get("d")->items().size(), 3u);
  // dump -> parse -> dump is a fixpoint.
  std::string once = parsed->dump();
  auto again = Json::parse(once);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), once);

  EXPECT_FALSE(Json::parse("{"));
  EXPECT_FALSE(Json::parse("[1,]"));
  EXPECT_FALSE(Json::parse("{} trailing"));
  EXPECT_FALSE(Json::parse("\"unterminated"));
  // Depth bomb must be rejected, not crash.
  EXPECT_FALSE(Json::parse(std::string(200, '[') + std::string(200, ']')));
}

TEST(SimcheckGenerator, IsDeterministicPerSeed) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Scenario a = generate_scenario(seed);
    Scenario b = generate_scenario(seed);
    EXPECT_TRUE(same_scenario(a, b)) << "seed " << seed;
  }
  // Different seeds produce different scenarios at least sometimes.
  size_t distinct = 0;
  Scenario first = generate_scenario(0);
  for (uint64_t seed = 1; seed < 20; ++seed) {
    if (!same_scenario(first, generate_scenario(seed))) ++distinct;
  }
  EXPECT_GT(distinct, 10u);
}

TEST(SimcheckGenerator, SamplesStayInsideTheDecidableRegime) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Scenario s = generate_scenario(seed);
    EXPECT_GE(s.neighbor_count, Scenario::kMinNeighbors);
    EXPECT_LE(s.cover_count, s.neighbor_count);
    EXPECT_GE(s.cover_count, s.min_cover());
    EXPECT_GE(s.retry_attempts, 1u);
    EXPECT_GE(s.samples, 1u);
    size_t aimed = std::count_if(s.rules.begin(), s.rules.end(),
                                 [](const CensorRule& r) { return r.aimed; });
    EXPECT_LE(aimed, 1u);
    EXPECT_EQ(s.censored(), aimed == 1);
    if (s.censored()) EXPECT_FALSE(s.expected_verdicts().empty());
    if (s.impair.where != ImpairedSegment::None) {
      EXPECT_LE(s.impair.iid_loss, 0.15);
      EXPECT_LE(s.impair.model.corrupt_rate, 0.02);
      EXPECT_TRUE(s.impair.any());
    }
  }
}

TEST(SimcheckScenario, JsonRoundTrip) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Scenario s = generate_scenario(seed);
    auto back = Scenario::from_json(s.to_json());
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_TRUE(same_scenario(s, *back)) << "seed " << seed;
  }
}

TEST(SimcheckExplore, AllOraclesGreenOnSeededSample) {
  ExploreOptions options;
  options.seed = kSeed;
  options.trials = 40;
  options.threads = 2;
  ExploreResult result = explore(options);
  EXPECT_EQ(result.failed_trials, 0u) << result.log[0];
  for (const Counterexample& ce : result.counterexamples) {
    ADD_FAILURE() << "oracle " << ce.oracle << ": " << ce.detail;
  }
  EXPECT_GT(result.packets_checked, 0u);
}

TEST(SimcheckExplore, TrialLogIsByteIdenticalAcrossThreadCounts) {
  ExploreOptions options;
  options.seed = 0xD15C0;
  options.trials = 24;
  options.threads = 1;
  ExploreResult j1 = explore(options);
  options.threads = 3;
  ExploreResult j3 = explore(options);
  ASSERT_EQ(j1.log.size(), j3.log.size());
  for (size_t i = 0; i < j1.log.size(); ++i) {
    EXPECT_EQ(j1.log[i], j3.log[i]) << "trial " << i;
  }
}

TEST(SimcheckFaults, BrokenVerdictRuleIsCaughtAndShrinksSmall) {
  ExploreOptions options;
  options.seed = kSeed;
  options.trials = 16;
  options.threads = 2;
  options.faults.break_verdict = true;
  ExploreResult result = explore(options);
  ASSERT_FALSE(result.counterexamples.empty())
      << "sabotaged verdict rule escaped the oracles";
  for (const Counterexample& ce : result.counterexamples) {
    EXPECT_EQ(ce.oracle, "O1");
    EXPECT_LE(ce.shrunk.scenario.elements(), 6u);
    // The shrunk scenario still fails, deterministically, twice.
    TrialOutcome once =
        run_scenario(ce.shrunk.scenario, ce.seeds, options.faults);
    TrialOutcome twice =
        run_scenario(ce.shrunk.scenario, ce.seeds, options.faults);
    EXPECT_FALSE(once.ok());
    EXPECT_EQ(once.log_line(0), twice.log_line(0));
  }
}

TEST(SimcheckFaults, TtlOffByOneIsCaughtBySpoofSafetyOracle) {
  ExploreOptions options;
  options.seed = kSeed;
  options.trials = 24;  // enough to sample a stateful-mimicry scenario
  options.threads = 2;
  options.faults.ttl_plus_one = true;
  options.shrink = false;
  ExploreResult result = explore(options);
  ASSERT_FALSE(result.counterexamples.empty());
  for (const Counterexample& ce : result.counterexamples) {
    EXPECT_EQ(ce.oracle, "O3");
    EXPECT_EQ(ce.original.technique, Technique::MimicryStateful);
  }
}

TEST(SimcheckCorpus, EveryCheckedInReproducerReplays) {
  std::vector<std::string> errors;
  std::vector<Reproducer> corpus = load_corpus(corpus_dir(), &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  ASSERT_FALSE(corpus.empty()) << "no reproducers under " << corpus_dir();
  for (const Reproducer& r : corpus) {
    // With its fault applied, the named oracle must fail...
    TrialOutcome faulty = r.replay(true);
    bool named_oracle_failed = std::any_of(
        faulty.failures.begin(), faulty.failures.end(),
        [&](const Failure& f) { return f.oracle == r.oracle; });
    EXPECT_TRUE(named_oracle_failed)
        << "trial " << r.trial_index << " (" << r.fault << ") no longer fails "
        << r.oracle;
    // ...deterministically...
    TrialOutcome again = r.replay(true);
    EXPECT_EQ(faulty.log_line(r.trial_index), again.log_line(r.trial_index));
    // ...and with the sabotage off, the scenario is healthy.
    if (r.fault != "none") {
      TrialOutcome healthy = r.replay(false);
      EXPECT_TRUE(healthy.ok())
          << "trial " << r.trial_index << " fails without its fault: "
          << (healthy.failures.empty() ? "" : healthy.failures.front().detail);
    }
  }
}

TEST(SimcheckCorpus, ReproducerSerializationRoundTrips) {
  Counterexample ce;
  ce.trial_index = 12;
  ce.oracle = "O1";
  ce.shrunk.scenario = generate_scenario(77);
  Faults faults;
  faults.break_verdict = true;
  Reproducer r =
      Reproducer::from_counterexample(0xDEADBEEFCAFEF00DULL, ce, faults,
                                      "unit-test reproducer");
  auto back = Reproducer::parse(r.to_json_text());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->root_seed, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(back->trial_index, 12u);
  EXPECT_EQ(back->oracle, "O1");
  EXPECT_EQ(back->fault, "break-verdict");
  EXPECT_TRUE(same_scenario(back->scenario, ce.shrunk.scenario));
  // Seeds re-derive identically from (root, trial).
  SeedPack a = r.seeds();
  SeedPack b = back->seeds();
  EXPECT_EQ(a.sav, b.sav);
  EXPECT_EQ(a.generator, b.generator);
}

TEST(SimcheckShrink, PreservesTheFailingOracleAndOnlySimplifies) {
  // Find one break-verdict counterexample and shrink it by hand.
  Faults faults;
  faults.break_verdict = true;
  for (size_t trial = 0; trial < 16; ++trial) {
    SeedPack seeds = SeedPack::derive(kSeed, trial);
    Scenario s = generate_scenario(seeds.generator);
    TrialOutcome outcome = run_scenario(s, seeds, faults);
    if (outcome.ok()) continue;
    ShrinkResult shrunk =
        shrink(s, seeds, faults, outcome.failures.front().oracle);
    EXPECT_LE(shrunk.scenario.elements(), s.elements());
    EXPECT_GT(shrunk.evaluations, 0u);
    TrialOutcome minimal = run_scenario(shrunk.scenario, seeds, faults);
    EXPECT_FALSE(minimal.ok());
    return;
  }
  FAIL() << "no counterexample found in 16 trials";
}
