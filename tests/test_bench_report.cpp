// The bench gate (bench/report.hpp): band, floor and baseline-ratio
// verdicts, and the schema of the file it writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "report.hpp"

namespace sm::bench {
namespace {

/// A temporary directory holding BENCH_gate.json (the baseline) and the
/// report a test writes.
class BenchReport : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "sm_bench_report_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    out_ = dir_ + "/out.json";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_baseline(const std::string& metrics) {
    std::ofstream(dir_ + "/BENCH_gate.json")
        << R"({"bench":"gate","schema":1,"env":{"hw_concurrency":4,)"
        << R"("smoke":false},"metrics":[)" << metrics << "]}";
  }
  /// A report named "gate" writing to out_, with `extra` appended to its
  /// arguments.
  Report make(std::vector<std::string> extra = {}) {
    args_ = {"bench_gate", out_};
    args_.insert(args_.end(), extra.begin(), extra.end());
    argv_.clear();
    for (std::string& a : args_) argv_.push_back(a.data());
    return Report("gate", static_cast<int>(argv_.size()), argv_.data(), dir_);
  }
  common::Json written() const {
    std::ifstream in(out_);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<common::Json> doc = common::Json::parse(text.str());
    EXPECT_TRUE(doc) << text.str();
    return doc.value_or(common::Json());
  }

  std::string dir_, out_;
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

std::string contrast(const std::string& name, double value,
                     const std::string& better) {
  return R"({"name":")" + name + R"(","value":)" + std::to_string(value) +
         R"(,"unit":"x","kind":"contrast","better":")" + better + R"("})";
}

TEST_F(BenchReport, PassesInsideBandsAndAtFloors) {
  Report r = make();
  r.anchor("share", 0.3, "fraction", 0.25, 0.35);
  r.anchor("at_edge", 1, "count", 1, kUnbounded);
  r.invariant("violations", 0);
  r.require("identical", true);
  r.contrast("speedup", 2.0, 2.0);
  EXPECT_EQ(r.finish(), 0);
}

TEST_F(BenchReport, AnchorOutsideBandFails) {
  Report r = make();
  r.anchor("share", 0.36, "fraction", 0.25, 0.35);
  EXPECT_EQ(r.finish(), 1);
}

TEST_F(BenchReport, StrictEdgesExcludeTheEdge) {
  Report r = make();
  r.anchor("share", 0.05, "fraction", above(0.005), below(0.05));
  EXPECT_EQ(r.finish(), 1);
}

TEST_F(BenchReport, WrongInvariantFails) {
  Report r = make();
  r.invariant("tenants_reachable", 7, 8, "tenants");
  EXPECT_EQ(r.finish(), 1);
  Report flag = make();
  flag.require("deterministic", false);
  EXPECT_EQ(flag.finish(), 1);
}

TEST_F(BenchReport, ContrastUnderFloorFails) {
  Report r = make();
  r.contrast("speedup_4x", 1.99, 2.0);
  EXPECT_EQ(r.finish(), 1);
  Report lower = make();
  lower.contrast("cost", 1.01, 1.0, Better::Lower);
  EXPECT_EQ(lower.finish(), 1);
}

TEST_F(BenchReport, HigherContrastNeedsEightTenthsOfBaseline) {
  write_baseline(contrast("speedup", 10.0, "higher"));
  Report low = make();
  low.contrast("speedup", 7.9, std::nullopt);
  EXPECT_EQ(low.finish(), 1);
  Report ok = make();
  ok.contrast("speedup", 8.1, std::nullopt);
  EXPECT_EQ(ok.finish(), 0);
}

TEST_F(BenchReport, LowerContrastNeedsEightTenthsOfBaseline) {
  // For a lower-is-better contrast, 0.79x the baseline in its better
  // direction is baseline / 0.79.
  write_baseline(contrast("cost", 10.0, "lower"));
  Report high = make();
  high.contrast("cost", 10.0 / 0.79, std::nullopt, Better::Lower);
  EXPECT_EQ(high.finish(), 1);
  Report ok = make();
  ok.contrast("cost", 10.0 / 0.81, std::nullopt, Better::Lower);
  EXPECT_EQ(ok.finish(), 0);
}

TEST_F(BenchReport, MetricAbsentFromBaselineIsNotCompared) {
  write_baseline(contrast("speedup@1000", 20.0, "higher"));
  Report r = make();
  r.contrast("speedup@100", 1.0, std::nullopt);
  r.contrast("pipeline_rel@observe", 0.01, std::nullopt);
  EXPECT_EQ(r.finish(), 0);
}

TEST_F(BenchReport, ReadsTheBaselineBeforeOverwritingIt) {
  write_baseline(contrast("speedup", 10.0, "higher"));
  out_ = dir_ + "/BENCH_gate.json";
  Report r = make();
  r.contrast("speedup", 7.0, std::nullopt);
  EXPECT_EQ(r.finish(), 1);
  // The fresh value replaced the baseline, so a rerun compares with 7.
  Report again = make();
  again.contrast("speedup", 7.0, std::nullopt);
  EXPECT_EQ(again.finish(), 0);
}

TEST_F(BenchReport, WritesTheSchema) {
  Report r = make({"--smoke"});
  r.anchor("share", 0.3, "fraction", 0.25, kUnbounded);
  r.invariant("copies", 0, 0, "copies");
  r.contrast("speedup", 3.0, 2.0);
  EXPECT_EQ(r.finish(), 0);

  common::Json doc = written();
  EXPECT_EQ(doc.get("bench")->as_string(), "gate");
  EXPECT_EQ(doc.get("schema")->as_int(), 1);
  const common::Json* env = doc.get("env");
  ASSERT_NE(env, nullptr);
  ASSERT_NE(env->get("hw_concurrency"), nullptr);
  EXPECT_TRUE(env->get("smoke")->as_bool());
  const std::vector<common::Json>& metrics = doc.get("metrics")->items();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].get("kind")->as_string(), "anchor");
  EXPECT_EQ(metrics[0].get("band")->items()[0].as_double(), 0.25);
  EXPECT_TRUE(metrics[0].get("band")->items()[1].is_null());
  EXPECT_EQ(metrics[1].get("kind")->as_string(), "invariant");
  EXPECT_EQ(metrics[1].get("better")->as_string(), "lower");
  EXPECT_EQ(metrics[2].get("kind")->as_string(), "contrast");
  EXPECT_EQ(metrics[2].get("floor")->as_double(), 2.0);
  EXPECT_EQ(metrics[2].get("band"), nullptr);
  for (const common::Json& m : metrics) {
    for (const char* key : {"name", "value", "unit", "better"})
      EXPECT_NE(m.get(key), nullptr) << key;
  }
}

TEST_F(BenchReport, UnwritableOutputExitsTwo) {
  out_ = dir_ + "/missing/out.json";
  Report r = make();
  r.invariant("violations", 0);
  EXPECT_EQ(r.finish(), 2);
}

}  // namespace
}  // namespace sm::bench
