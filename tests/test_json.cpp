#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "core/report_json.hpp"
#include "simcheck/json.hpp"

namespace sm::core {
namespace {

using common::json_escape;

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, PreservesUtf8Bytes) {
  std::string s = "六四";  // multibyte UTF-8 passes through
  EXPECT_EQ(json_escape(s), s);
}

TEST(ToJson, ProbeReportFields) {
  ProbeReport r;
  r.technique = "scan";
  r.target = "198.18.0.90:80";
  r.verdict = Verdict::BlockedTimeout;
  r.detail = "said \"nothing\"";
  r.packets_sent = 100;
  r.samples = 100;
  r.samples_blocked = 1;
  r.attempts = 3;
  r.confidence = conclude(0, 0, 3, 3);
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"technique\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"blocked-timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"blocked\":true"), std::string::npos);
  EXPECT_NE(json.find("said \\\"nothing\\\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_sent\":100"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":3"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":{\"conclusion\":\"blocked\""),
            std::string::npos);
  EXPECT_NE(json.find("\"silent\":3"), std::string::npos);
}

TEST(ToJson, RiskReportFields) {
  RiskReport r;
  r.technique = "spam";
  r.evaded = true;
  r.noise_alerts = 2;
  r.suspicion = 0.25;
  r.attribution_probability = 0.05;
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"evaded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"noise_alerts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"suspicion\":0.25"), std::string::npos);
}

TEST(ToJsonl, OneObjectPerLine) {
  ProbeReport p;
  p.technique = "x";
  RiskReport r;
  r.technique = "x";
  auto jsonl = to_jsonl({{p, r}, {p, r}});
  size_t newlines = 0;
  for (char c : jsonl)
    if (c == '\n') ++newlines;
  EXPECT_EQ(newlines, 2u);
  EXPECT_NE(jsonl.find("{\"measurement\":{"), std::string::npos);
  EXPECT_NE(jsonl.find(",\"risk\":{"), std::string::npos);
}

TEST(ToJson, BalancedBracesAndQuotes) {
  // Structural sanity: the emitted object parses, and escaped strings
  // come back byte-for-byte.
  ProbeReport p;
  p.technique = "q\"uo\\te";
  p.detail = "newline\nhere";
  auto doc = simcheck::Json::parse(to_json(p));
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->get("technique")->as_string(), p.technique);
  EXPECT_EQ(doc->get("detail")->as_string(), p.detail);
}

}  // namespace
}  // namespace sm::core
