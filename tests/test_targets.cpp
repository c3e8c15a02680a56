// Target lists (test-list CSV) driving measurements, and prefix
// null-routing.
#include <gtest/gtest.h>

#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/targets.hpp"

namespace sm::core {
namespace {

TEST(TargetList, ParsesCsvWithHeaderAndComments) {
  auto list = TargetList::parse_csv(
      "domain,category,note\n"
      "# a comment\n"
      "example.com,NEWS,a news site\n"
      "other.org,POLI\n"
      "\n"
      "bare.example\n");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.targets()[0].domain, "example.com");
  EXPECT_EQ(list.targets()[0].category, "NEWS");
  EXPECT_EQ(list.targets()[0].note, "a news site");
  EXPECT_EQ(list.targets()[1].category, "POLI");
  EXPECT_TRUE(list.targets()[2].category.empty());
}

TEST(TargetList, SkipsMalformedLines) {
  auto list = TargetList::parse_csv(
      "notadomain,X\n"       // no dot
      "has space.com,X\n"    // space in domain
      "good.example,X\n");
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.skipped_lines(), 2u);
}

TEST(TargetList, NormalizesDomainCase) {
  auto list = TargetList::parse_csv("WWW.Example.COM,NEWS\n");
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.targets()[0].domain, "www.example.com");
}

TEST(TargetList, CsvRoundTrip) {
  TargetList list = TargetList::builtin_sample();
  auto reparsed = TargetList::parse_csv(list.to_csv());
  ASSERT_EQ(reparsed.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(reparsed.targets()[i].domain, list.targets()[i].domain);
    EXPECT_EQ(reparsed.targets()[i].category, list.targets()[i].category);
  }
}

TEST(TargetList, CategoryQueries) {
  TargetList list = TargetList::builtin_sample();
  auto soci = list.by_category("SOCI");
  EXPECT_EQ(soci.size(), 2u);
  auto cats = list.categories();
  EXPECT_GE(cats.size(), 4u);
}

TEST(TargetList, DrivesSchedulerCampaign) {
  // One testbed, one probe per target; each probe is destroyed before
  // the next starts.
  Testbed tb;
  std::vector<ProbeReport> reports;
  for (const auto& target : TargetList::builtin_sample().by_category("SOCI")) {
    OvertDnsProbe probe(tb, OvertDnsOptions{.domain = target.domain});
    reports.push_back(run_probe(tb, probe));
  }
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports)
    EXPECT_EQ(r.verdict, Verdict::BlockedDnsForgery) << r.to_string();
}

TEST(PrefixBlocking, RangeNullRouteDropsWholePrefix) {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.blocked_prefixes.push_back(
      common::Cidr(common::Ipv4Address(198, 18, 0, 0), 24));
  Testbed tb(cfg);
  // Both web servers live inside 198.18.0.0/24 -> both unreachable.
  OvertHttpProbe p1(tb, {.domain = "open.example"});
  EXPECT_EQ(run_probe(tb, p1).verdict, Verdict::BlockedTimeout);
  // The measurement server at 203.0.113.50 is outside the prefix.
  proto::http::Client http(*tb.client_stack);
  bool ok = false;
  http.fetch(tb.addr().measurement, 80,
             proto::http::Request::get("measure.example", "/"),
             [&ok](const proto::http::FetchResult& r) { ok = r.ok(); });
  tb.run_for(common::Duration::seconds(3));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace sm::core
