// Tests for the extension mechanisms: blockpage injection, DNS query
// dropping, the stateless SYN reachability probe, and the TTL-normalizer
// countermeasure.
#include <gtest/gtest.h>

#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "core/spam.hpp"
#include "core/synprobe.hpp"
#include "spoof/cover.hpp"
#include "surveillance/normalizer.hpp"

namespace sm::core {
namespace {

TestbedConfig blockpage_config() {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.blockpage_keywords = {"falun", "blocked.example"};
  return cfg;
}

TEST(Blockpage, InjectedPageReplacesRealResponse) {
  Testbed tb(blockpage_config());
  OvertHttpProbe probe(tb, {.domain = "blocked.example", .path = "/"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedBlockpage) << report.to_string();
  EXPECT_GT(tb.censor_tap->stats().blockpages_injected, 0u);
  // The real server never saw the request (the censor ate it).
  EXPECT_EQ(tb.web_blocked_http->requests_served(), 0u);
}

TEST(Blockpage, InnocuousRequestPassesThrough) {
  Testbed tb(blockpage_config());
  OvertHttpProbe probe(tb, {.domain = "open.example", .path = "/"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
  EXPECT_EQ(tb.censor_tap->stats().blockpages_injected, 0u);
}

TEST(Blockpage, DetectorMatchesKnownPhrases) {
  proto::http::Response blocked = proto::http::Response::make(
      403, "Forbidden", "<h1>Access to this site is denied</h1>");
  proto::http::Response fine = proto::http::Response::ok("<h1>News</h1>");
  EXPECT_TRUE(looks_like_blockpage(blocked));
  EXPECT_FALSE(looks_like_blockpage(fine));
}

TEST(DnsQueryDrop, KeywordQnameDropsSilently) {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.dns_drop_keywords = {"blocked"};
  Testbed tb(cfg);
  OvertDnsProbe probe(tb, {.domain = "blocked.example"});
  ProbeReport report = run_probe(tb, probe, common::Duration::seconds(10));
  EXPECT_EQ(report.verdict, Verdict::BlockedTimeout) << report.to_string();
  EXPECT_GT(tb.censor_tap->stats().dns_queries_dropped, 0u);
  // The resolver never saw the query.
  EXPECT_EQ(tb.dns_server->queries_served(), 0u);
}

TEST(DnsQueryDrop, OtherNamesResolve) {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.dns_drop_keywords = {"blocked"};
  Testbed tb(cfg);
  OvertDnsProbe probe(tb, {.domain = "open.example"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
}

TEST(SynReachability, OpenServiceReachable) {
  Testbed tb;
  SynReachabilityProbe probe(tb, {.target = tb.addr().web_open,
                                  .port = 80});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
}

TEST(SynReachability, NullRoutedServiceTimesOut) {
  TestbedConfig cfg;
  cfg.policy = censor::dropping_profile({TestbedAddresses{}.web_blocked});
  Testbed tb(cfg);
  SynReachabilityProbe probe(tb, {.target = tb.addr().web_blocked,
                                  .port = 80});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedTimeout) << report.to_string();
}

TEST(SynReachability, CoverImplicatesNeighbors) {
  Testbed tb;
  SynReachabilityProbe probe(tb, {.target = tb.addr().web_open,
                                  .port = 80,
                                  .cover_count = 8});
  ProbeReport report = run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(1));
  EXPECT_EQ(report.verdict, Verdict::Reachable);
  // The tap saw SYNs from 9 sources (client + 8 spoofed).
  std::set<uint32_t> sources;
  for (const auto& rec : tb.trace->records()) {
    auto d = packet::decode(rec.data);
    if (d && d->tcp && d->tcp->syn() && !d->tcp->ack_flag() &&
        d->ip.dst == tb.addr().web_open)
      sources.insert(d->ip.src.value());
  }
  EXPECT_EQ(sources.size(), 9u);
}

TEST(Normalizer, RaisesLowTtls) {
  surveillance::TtlNormalizerStats stats;
  auto transform = surveillance::make_ttl_normalizer(10, &stats);
  packet::IpOptions opt;
  opt.ttl = 2;
  packet::Packet low = packet::make_udp(common::Ipv4Address(1, 1, 1, 1),
                                        common::Ipv4Address(2, 2, 2, 2), 1,
                                        2, {}, opt);
  EXPECT_TRUE(transform(low));
  EXPECT_EQ(low.data()[8], 10);
  EXPECT_TRUE(packet::verify_checksums(low.data()));

  packet::Packet high = packet::make_udp(common::Ipv4Address(1, 1, 1, 1),
                                         common::Ipv4Address(2, 2, 2, 2), 1,
                                         2, {});
  EXPECT_TRUE(transform(high));
  EXPECT_EQ(high.data()[8], 64);
  EXPECT_EQ(stats.packets_seen, 2u);
  EXPECT_EQ(stats.ttls_raised, 1u);
}

TEST(Normalizer, DefeatsTtlLimitedMimicry) {
  // With the normalizer installed, the TTL-1 SYN/ACK is raised and
  // reaches the spoofed host, whose RST unravels the cover flow —
  // the countermeasure the paper anticipates in §4.2.
  Testbed tb;
  surveillance::TtlNormalizerStats stats;
  tb.router->set_transformer(surveillance::make_ttl_normalizer(10, &stats));

  tb.mimicry_server->register_cover_client(tb.neighbors[0]->address(), 1);
  spoof::StatefulMimicryClient mimic(*tb.client, tb.addr().measurement, 80,
                                     tb.config().mimicry_secret,
                                     common::Duration::millis(10));
  mimic.run_flow(tb.neighbors[0]->address(),
                 "GET / HTTP/1.1\r\nHost: m\r\n\r\n");
  tb.run_for(common::Duration::seconds(2));
  EXPECT_GT(stats.ttls_raised, 0u);
  EXPECT_GT(tb.neighbor_stacks[0]->stats().rst_out, 0u);
}

TEST(Fingerprinting, BespokeRuleFlagsNaiveScannerOnly) {
  auto run_scan = [](bool fingerprint, bool randomized) {
    TestbedConfig cfg;
    cfg.mvr.enable_fingerprint_rules = fingerprint;
    Testbed tb(cfg);
    ScanOptions opts;
    opts.target = tb.addr().web_open;
    opts.ports = top_tcp_ports(60);
    opts.randomize_source_ports = randomized;
    ScanProbe probe(tb, opts);
    run_probe(tb, probe);
    return assess_risk(tb, "scan").evaded;
  };
  EXPECT_TRUE(run_scan(false, false));   // community rules: both evade
  EXPECT_TRUE(run_scan(false, true));
  EXPECT_FALSE(run_scan(true, false));   // bespoke rule: naive flagged
  EXPECT_TRUE(run_scan(true, true));     // hardened still evades
}

TEST(Fingerprinting, RandomizedScanStillAccurate) {
  TestbedConfig cfg;
  cfg.policy = censor::dropping_profile({TestbedAddresses{}.web_blocked});
  Testbed tb(cfg);
  ScanOptions opts;
  opts.target = tb.addr().web_blocked;
  opts.ports = top_tcp_ports(40);
  opts.randomize_source_ports = true;
  ScanProbe probe(tb, opts);
  EXPECT_EQ(run_probe(tb, probe).verdict, Verdict::BlockedTimeout);
}

TEST(Fingerprinting, RandomizedSportsAreSpread) {
  Testbed tb;
  ScanOptions opts;
  opts.target = tb.addr().web_open;
  opts.ports = top_tcp_ports(50);
  opts.randomize_source_ports = true;
  ScanProbe probe(tb, opts);
  std::set<uint16_t> sports;
  tb.web_open->add_promiscuous(
      [&](const packet::Decoded& d, const common::Bytes&) {
        if (d.tcp && d.tcp->syn() && !d.tcp->ack_flag())
          sports.insert(d.tcp->src_port);
      });
  run_probe(tb, probe);
  ASSERT_EQ(sports.size(), 50u);  // all distinct
  // Not a contiguous block: the span is far wider than the count.
  EXPECT_GT(*sports.rbegin() - *sports.begin(), 1000);
}

TEST(SetTtl, RewritesAndFixesChecksum) {
  packet::Packet p = packet::make_tcp(common::Ipv4Address(1, 1, 1, 1),
                                      common::Ipv4Address(2, 2, 2, 2), 1, 2,
                                      packet::TcpFlags::kSyn, 0, 0);
  ASSERT_TRUE(packet::set_ttl(p.data(), 200));
  EXPECT_EQ(p.data()[8], 200);
  EXPECT_TRUE(packet::verify_checksums(p.data()));
  common::Bytes tiny{1, 2};
  EXPECT_FALSE(packet::set_ttl(tiny, 5));
}

}  // namespace
}  // namespace sm::core
