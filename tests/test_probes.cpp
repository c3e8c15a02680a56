// Unit-level probe behaviour (finer grained than test_integration's
// accuracy/evasion matrix): port-state bookkeeping, sample accounting,
// verdict classification details, risk arithmetic.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/ddos.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "core/spam.hpp"
#include "core/top_ports.hpp"

namespace sm::core {
namespace {

TEST(Verdicts, StringsAndBlockedPredicate) {
  EXPECT_EQ(to_string(Verdict::Reachable), "reachable");
  EXPECT_EQ(to_string(Verdict::BlockedRst), "blocked-rst");
  EXPECT_TRUE(is_blocked(Verdict::BlockedRst));
  EXPECT_TRUE(is_blocked(Verdict::BlockedDnsForgery));
  EXPECT_TRUE(is_blocked(Verdict::BlockedTimeout));
  EXPECT_FALSE(is_blocked(Verdict::Reachable));
  EXPECT_FALSE(is_blocked(Verdict::Inconclusive));
}

TEST(ProbeReportTest, ToStringIncludesEverything) {
  ProbeReport r;
  r.technique = "scan";
  r.target = "x";
  r.verdict = Verdict::Reachable;
  r.detail = "d";
  r.samples = 3;
  std::string s = r.to_string();
  EXPECT_NE(s.find("scan(x)"), std::string::npos);
  EXPECT_NE(s.find("reachable"), std::string::npos);
}

TEST(TopPorts, HeadMatchesNmapOrder) {
  auto ports = top_tcp_ports(5);
  ASSERT_EQ(ports.size(), 5u);
  EXPECT_EQ(ports[0], 80);
  EXPECT_EQ(ports[1], 23);
  EXPECT_EQ(ports[2], 443);
}

TEST(TopPorts, FullThousandUniquePorts) {
  auto ports = top_tcp_ports(1000);
  EXPECT_EQ(ports.size(), 1000u);
  std::set<uint16_t> unique(ports.begin(), ports.end());
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(TopPorts, RequestBeyondSupportedStillUnique) {
  auto ports = top_tcp_ports(4000);
  std::set<uint16_t> unique(ports.begin(), ports.end());
  EXPECT_EQ(unique.size(), ports.size());
}

TEST(ClassifyDns, ForgedSetDetection) {
  proto::dns::QueryResult result;
  result.outcome = proto::dns::QueryOutcome::Answered;
  proto::dns::Message resp;
  resp.header.qr = true;
  resp.answers.push_back(proto::dns::ResourceRecord::a(
      proto::dns::Name("x.com"), common::Ipv4Address(8, 7, 198, 45)));
  result.response = resp;
  std::set<uint32_t> forged{common::Ipv4Address(8, 7, 198, 45).value()};
  auto verdict = classify_dns(result, forged, nullptr);
  ASSERT_TRUE(verdict);
  EXPECT_EQ(verdict->first, Verdict::BlockedDnsForgery);
}

TEST(ClassifyDns, PrivateAddressIsForgery) {
  proto::dns::QueryResult result;
  result.outcome = proto::dns::QueryOutcome::Answered;
  proto::dns::Message resp;
  resp.answers.push_back(proto::dns::ResourceRecord::a(
      proto::dns::Name("x.com"), common::Ipv4Address(192, 168, 1, 1)));
  result.response = resp;
  auto verdict = classify_dns(result, {}, nullptr);
  ASSERT_TRUE(verdict);
  EXPECT_EQ(verdict->first, Verdict::BlockedDnsForgery);
}

TEST(ClassifyDns, TimeoutAndNxdomain) {
  proto::dns::QueryResult timeout;
  auto v1 = classify_dns(timeout, {}, nullptr);
  ASSERT_TRUE(v1);
  EXPECT_EQ(v1->first, Verdict::BlockedTimeout);

  proto::dns::QueryResult nx;
  nx.outcome = proto::dns::QueryOutcome::Answered;
  proto::dns::Message resp;
  resp.header.rcode = proto::dns::Rcode::NxDomain;
  nx.response = resp;
  auto v2 = classify_dns(nx, {}, nullptr);
  ASSERT_TRUE(v2);
  EXPECT_EQ(v2->first, Verdict::Inconclusive);
}

TEST(ClassifyDns, CleanAnswerPassesAddressOut) {
  proto::dns::QueryResult ok;
  ok.outcome = proto::dns::QueryOutcome::Answered;
  proto::dns::Message resp;
  resp.answers.push_back(proto::dns::ResourceRecord::a(
      proto::dns::Name("x.com"), common::Ipv4Address(198, 18, 0, 80)));
  ok.response = resp;
  common::Ipv4Address addr;
  EXPECT_FALSE(classify_dns(ok, {}, &addr));
  EXPECT_EQ(addr, common::Ipv4Address(198, 18, 0, 80));
}

TEST(ScanProbeDetail, PortStatesTracked) {
  Testbed tb;
  ScanOptions opts;
  opts.target = tb.addr().web_open;
  opts.ports = {80, 81, 82};
  opts.expected_open = {80};
  ScanProbe probe(tb, opts);
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable);
  EXPECT_EQ(probe.port_states().at(80), PortState::Open);
  // 81/82: RST from the host's stack (closed, not filtered).
  EXPECT_EQ(probe.port_states().at(81), PortState::Closed);
  EXPECT_EQ(probe.port_states().at(82), PortState::Closed);
  EXPECT_EQ(report.packets_sent, 3u);
}

TEST(ScanProbeDetail, FilteredVsClosedDistinguished) {
  TestbedConfig cfg;
  cfg.policy.blocked_ports.push_back({TestbedAddresses{}.web_blocked, 80});
  Testbed tb(cfg);
  ScanOptions opts;
  opts.target = tb.addr().web_blocked;
  opts.ports = {80, 81};
  opts.expected_open = {80};
  ScanProbe probe(tb, opts);
  run_probe(tb, probe);
  EXPECT_EQ(probe.port_states().at(80), PortState::Filtered);  // censored
  EXPECT_EQ(probe.port_states().at(81), PortState::Closed);    // host RST
}

TEST(DdosProbeDetail, PerSampleAccounting) {
  Testbed tb;
  DdosProbe probe(tb, {.domain = "open.example", .requests = 6});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.samples, 6u);
  EXPECT_EQ(probe.sample_verdicts().size(), 6u);
  EXPECT_EQ(report.samples_blocked, 0u);
}

TEST(LookupProbes, NonexistentNameIsInconclusiveAndClaimsNothing) {
  // A name with no records is a confounder, not censorship: every probe
  // that looks it up reports Inconclusive, counts no sample blocked, and
  // records no evidence claiming delivery or blocking.
  TestbedConfig cfg;
  cfg.enable_provenance = true;
  const std::string domain = "nonexistent.example";
  std::vector<std::function<std::unique_ptr<Probe>(Testbed&)>> factories = {
      [&](Testbed& tb) {
        return std::make_unique<OvertHttpProbe>(
            tb, OvertHttpOptions{.domain = domain});
      },
      [&](Testbed& tb) {
        return std::make_unique<SpamProbe>(tb, SpamOptions{.domain = domain});
      },
      [&](Testbed& tb) {
        return std::make_unique<DdosProbe>(
            tb, DdosOptions{.domain = domain, .requests = 5});
      },
  };
  for (const auto& factory : factories) {
    Testbed tb(cfg);
    std::unique_ptr<Probe> probe = factory(tb);
    ProbeReport report = run_probe(tb, *probe);
    SCOPED_TRACE(report.to_string());
    EXPECT_EQ(report.verdict, Verdict::Inconclusive);
    EXPECT_EQ(report.confidence.conclusion, Conclusion::Inconclusive);
    EXPECT_EQ(report.samples_blocked, 0u);
    EXPECT_FALSE(report.confidence.confirmed());
    size_t verdicts = 0;
    for (const obs::ProvEvent& ev : tb.provenance().events()) {
      if (ev.kind == obs::ProvKind::Evidence) {
        EXPECT_NE(ev.what, "delivered");
        EXPECT_NE(ev.what, "blocked");
        EXPECT_NE(ev.what, "dns-blocked");
      } else if (ev.kind == obs::ProvKind::Verdict) {
        ++verdicts;
        EXPECT_EQ(ev.detail, "inconclusive");
      }
    }
    EXPECT_EQ(verdicts, 1u);
  }
}

TEST(SpamProbeDetail, MessageIsSpamScorable) {
  Testbed tb;
  SpamProbe probe(tb, {.domain = "open.example"});
  EXPECT_FALSE(probe.message().empty());
  EXPECT_NE(probe.message().find("postmaster@open.example"),
            std::string::npos);
}

TEST(RiskModel, UniformAttributionWithoutSignal) {
  Testbed tb;  // nothing ran: no alerts at all
  RiskReport r = assess_risk(tb, "idle");
  EXPECT_TRUE(r.evaded);
  EXPECT_FALSE(r.investigated);
  size_t as_size = tb.client_as_addresses().size();
  EXPECT_DOUBLE_EQ(r.attribution_probability,
                   1.0 / static_cast<double>(as_size));
}

TEST(RiskModel, OvertSignalConcentratesAttribution) {
  Testbed tb;
  OvertHttpProbe probe(tb, {.domain = "open.example",
                            .user_agent = "OONI-Probe/2.0"});
  run_probe(tb, probe);
  RiskReport r = assess_risk(tb, "overt");
  EXPECT_FALSE(r.evaded);
  // All suspicion in the AS belongs to the client.
  EXPECT_NEAR(r.attribution_probability, 1.0, 1e-9);
}

TEST(RiskModel, ReportRendering) {
  RiskReport r;
  r.technique = "scan";
  r.evaded = true;
  std::string s = r.to_string();
  EXPECT_NE(s.find("scan"), std::string::npos);
  EXPECT_NE(s.find("evaded=yes"), std::string::npos);
}

TEST(TestbedConfigTest, SavBlocksOutOfScopeSpoofs) {
  TestbedConfig cfg;
  cfg.enable_sav = true;
  cfg.sav_distribution = spoof::SavDistribution{0.0, 0.0, 0.0};  // strict
  Testbed tb(cfg);
  // Spoof a neighbor from the client: strict SAV drops it at ingress.
  tb.client->send(packet::make_udp(tb.neighbors[0]->address(),
                                   tb.addr().dns, 1000, 53,
                                   common::to_bytes("x")));
  tb.run_for(common::Duration::millis(10));
  EXPECT_EQ(tb.router->counters().dropped_ingress, 1u);
}

TEST(TestbedConfigTest, RunUntilTimesOut) {
  Testbed tb;
  bool never = false;
  EXPECT_FALSE(tb.run_until([&]() { return never; },
                            common::Duration::millis(100)));
}

TEST(TestbedConfigTest, AddressHelpers) {
  Testbed tb;
  auto all = tb.client_as_addresses();
  auto neighbors = tb.neighbor_addresses();
  EXPECT_EQ(all.size(), neighbors.size() + 1);
  EXPECT_EQ(all.front(), tb.addr().client);
}

}  // namespace
}  // namespace sm::core
