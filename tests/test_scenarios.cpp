// Cross-cutting scenarios: blackout expiry, censor mechanism interplay,
// MVR behaviour under background load, several probes on one testbed, and
// verdict coverage for blockpage censors across probes.
#include <gtest/gtest.h>

#include "core/background.hpp"
#include "core/ddos.hpp"
#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/synprobe.hpp"

namespace sm::core {
namespace {

using common::Duration;

TEST(Blackout, ExpiresAfterConfiguredWindow) {
  TestbedConfig cfg;
  cfg.policy = censor::gfc_profile();
  cfg.policy.flow_blackout = Duration::seconds(5);
  Testbed tb(cfg);

  // Trigger the keyword censor on a raw flow.
  auto send_keyword = [&]() {
    tb.client->send(packet::make_tcp(
        tb.addr().client, tb.addr().web_blocked, 6000, 80,
        packet::TcpFlags::kAck, 1000, 1,
        common::to_bytes("GET /?q=falun HTTP/1.1\r\n\r\n")));
  };
  send_keyword();
  tb.run_for(Duration::millis(50));
  ASSERT_EQ(tb.censor_tap->stats().rst_bursts, 1u);

  // Within the blackout, packets on the tuple are eaten silently.
  tb.client->send(packet::make_tcp(tb.addr().client, tb.addr().web_blocked,
                                   6000, 80, packet::TcpFlags::kAck, 1040,
                                   1, common::to_bytes("innocent")));
  tb.run_for(Duration::millis(50));
  EXPECT_GT(tb.censor_tap->stats().dropped_blackout, 0u);

  // After expiry the same tuple flows (and can trigger) again.
  tb.run_for(Duration::seconds(6));
  send_keyword();
  tb.run_for(Duration::millis(50));
  EXPECT_EQ(tb.censor_tap->stats().rst_bursts, 2u);
}

TEST(BlockpageProbes, DdosProbeIdentifiesBlockpage) {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.blockpage_keywords = {"blocked.example"};
  Testbed tb(cfg);
  DdosProbe probe(tb, {.domain = "blocked.example", .requests = 8});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedBlockpage) << report.to_string();
  EXPECT_EQ(report.samples_blocked, 8u);
}

TEST(BlockpageProbes, RstCensorStillReportsRst) {
  // Both mechanisms configured: the RST keyword fires on the response
  // body path while the request path carries no blockpage keyword.
  TestbedConfig cfg;
  cfg.policy = censor::gfc_profile();
  cfg.policy.blockpage_keywords = {"not-in-this-request"};
  Testbed tb(cfg);
  OvertHttpProbe probe(tb, {.domain = "blocked.example"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedRst) << report.to_string();
}

TEST(MvrUnderLoad, MeasurementSignalSurvivesBackgroundNoise) {
  // The overt probe's fingerprint is still flagged with 30 neighbors of
  // background traffic in the mix, and background users are not.
  TestbedConfig cfg;
  cfg.neighbor_count = 30;
  Testbed tb(cfg);
  BackgroundTraffic bg(tb);
  bg.schedule(Duration::seconds(10));
  OvertHttpProbe probe(tb, {.domain = "open.example",
                            .user_agent = "OONI-Probe/2.0"});
  run_probe(tb, probe);
  tb.run_for(Duration::seconds(12));
  EXPECT_GT(tb.mvr->targeted_alerts_for(tb.addr().client), 0u);
  for (const auto* n : tb.neighbors)
    EXPECT_EQ(tb.mvr->targeted_alerts_for(n->address()), 0u)
        << n->name();
}

TEST(MvrUnderLoad, AnalystRanksOvertClientFirst) {
  TestbedConfig cfg;
  cfg.neighbor_count = 10;
  Testbed tb(cfg);
  BackgroundTraffic bg(tb);
  bg.schedule(Duration::seconds(5));
  OvertHttpProbe probe(tb, {.domain = "blocked.example",
                            .user_agent = "OONI-Probe/2.0"});
  run_probe(tb, probe);
  tb.run_for(Duration::seconds(7));
  auto top = tb.mvr->analyst().top_suspects(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].user, tb.addr().client);
}

TEST(SchedulerScenario, MixedTechniquesOverOneTestbed) {
  TestbedConfig cfg;
  cfg.policy = censor::gfc_profile();
  cfg.policy.blocked_ips.push_back(TestbedAddresses{}.web_blocked);
  Testbed tb(cfg);
  // Each probe is destroyed before the next is built, while its timers
  // may still sit in the engine queue; Probe::guarded() keeps them out
  // of the dead probe.
  std::vector<ProbeReport> reports;
  for (Ipv4Address target : {tb.addr().web_open, tb.addr().web_blocked}) {
    SynReachabilityProbe probe(tb, {.target = target, .port = 80});
    reports.push_back(run_probe(tb, probe));
  }
  {
    OvertDnsProbe probe(tb, {.domain = "youtube.com"});
    reports.push_back(run_probe(tb, probe));
  }
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].verdict, Verdict::Reachable);
  EXPECT_EQ(reports[1].verdict, Verdict::BlockedTimeout);
  EXPECT_EQ(reports[2].verdict, Verdict::BlockedDnsForgery);
}

TEST(DnsDropVsForge, MechanismsDistinguishable) {
  // A dropping DNS censor and a forging one produce different verdicts —
  // the taxonomy the verdict model exists for.
  TestbedConfig forge_cfg;
  forge_cfg.policy = censor::gfc_profile();
  Testbed forge_tb(forge_cfg);
  OvertDnsProbe forge_probe(forge_tb, {.domain = "twitter.com"});
  EXPECT_EQ(run_probe(forge_tb, forge_probe).verdict,
            Verdict::BlockedDnsForgery);

  TestbedConfig drop_cfg;
  drop_cfg.policy = censor::CensorPolicy{};
  drop_cfg.policy.dns_drop_keywords = {"twitter"};
  Testbed drop_tb(drop_cfg);
  OvertDnsProbe drop_probe(drop_tb, {.domain = "twitter.com"});
  EXPECT_EQ(run_probe(drop_tb, drop_probe, Duration::seconds(10)).verdict,
            Verdict::BlockedTimeout);
}

TEST(RiskAcrossTechniques, CensoredAccessSeparatedFromTargeted) {
  // An overt fetch whose *request* carries a censored keyword triggers
  // both a targeted (measurement-tool) alert and a censored-access alert
  // attributed to the client; the risk report keeps them apart.
  Testbed tb;
  OvertHttpProbe probe(tb, {.domain = "blocked.example",
                            .path = "/falun-news",
                            .user_agent = "OONI-Probe/2.0"});
  run_probe(tb, probe);
  RiskReport risk = assess_risk(tb, "overt-http");
  EXPECT_GT(risk.targeted_alerts, 0u);
  EXPECT_GT(risk.censored_access_alerts, 0u);
  EXPECT_FALSE(risk.evaded);
}

}  // namespace
}  // namespace sm::core
