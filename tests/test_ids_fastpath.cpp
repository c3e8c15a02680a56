// Equivalence proof for the IDS fast path: the rule-group index +
// Aho-Corasick prefilter must produce byte-identical verdicts, alerts,
// and stats (minus the prefilter instrumentation counters) versus the
// legacy linear scan, across randomized rulesets and packet streams.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ids/engine.hpp"
#include "ids/fastpattern.hpp"
#include "packet/packet.hpp"

namespace sm::ids {
namespace {

using common::Ipv4Address;
using common::Rng;
using common::SimTime;
using packet::TcpFlags;

struct PacketBox {
  common::Bytes storage;
  packet::Decoded decoded;
};

PacketBox tcp_pkt(Ipv4Address src, Ipv4Address dst, uint16_t sp, uint16_t dp,
                  uint8_t flags, uint32_t seq, uint32_t ack,
                  std::string_view payload) {
  PacketBox box;
  packet::Packet p = packet::make_tcp(src, dst, sp, dp, flags, seq, ack,
                                      common::to_bytes(payload));
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

PacketBox udp_pkt(Ipv4Address src, Ipv4Address dst, uint16_t sp, uint16_t dp,
                  std::string_view payload) {
  PacketBox box;
  packet::Packet p =
      packet::make_udp(src, dst, sp, dp, common::to_bytes(payload));
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

void expect_same_alert(const Alert& a, const Alert& b, size_t packet_no) {
  EXPECT_EQ(a.sid, b.sid) << "packet " << packet_no;
  EXPECT_EQ(a.time, b.time) << "packet " << packet_no;
  EXPECT_EQ(a.msg, b.msg) << "packet " << packet_no;
  EXPECT_EQ(a.action, b.action) << "packet " << packet_no;
  EXPECT_EQ(a.src, b.src) << "packet " << packet_no;
  EXPECT_EQ(a.dst, b.dst) << "packet " << packet_no;
  EXPECT_EQ(a.src_port, b.src_port) << "packet " << packet_no;
  EXPECT_EQ(a.dst_port, b.dst_port) << "packet " << packet_no;
}

void expect_same_verdict(const Verdict& vl, const Verdict& vf,
                         size_t packet_no) {
  ASSERT_EQ(vl.drop, vf.drop) << "packet " << packet_no;
  ASSERT_EQ(vl.reject, vf.reject) << "packet " << packet_no;
  ASSERT_EQ(vl.alerts.size(), vf.alerts.size()) << "packet " << packet_no;
  for (size_t i = 0; i < vl.alerts.size(); ++i)
    expect_same_alert(vl.alerts[i], vf.alerts[i], packet_no);
}

/// Runs the same packet through both engines and compares outcomes.
void expect_equivalent(Engine& linear, Engine& fast, SimTime now,
                       const packet::Decoded& d, size_t packet_no) {
  Verdict vl = linear.process(now, d);
  Verdict vf = fast.process(now, d);
  expect_same_verdict(vl, vf, packet_no);
}

void expect_same_core_stats(const Engine& linear, const Engine& fast) {
  EXPECT_EQ(linear.stats().packets, fast.stats().packets);
  EXPECT_EQ(linear.stats().alerts, fast.stats().alerts);
  EXPECT_EQ(linear.stats().drops, fast.stats().drops);
}

// ---------------------------------------------------------------------------
// Directed cases for the tricky index paths.

TEST(FastPatternIndex, MarksOnlyPresentPatterns) {
  FastPatternIndex idx;
  uint32_t a = idx.add("falun");
  uint32_t b = idx.add("TOR");    // folded to "tor"
  uint32_t c = idx.add("falun");  // deduplicated
  EXPECT_EQ(a, c);
  EXPECT_EQ(idx.pattern_count(), 2u);
  idx.build();

  auto hay = common::to_bytes("connect via ToR bridge");
  idx.begin_scan();
  idx.scan(hay);
  EXPECT_FALSE(idx.hit(a));
  EXPECT_TRUE(idx.hit(b));

  // Marks accumulate across scans of the same epoch (payload + stream).
  auto hay2 = common::to_bytes("FALUN gong");
  idx.scan(hay2);
  EXPECT_TRUE(idx.hit(a));

  // ...and reset at the next epoch.
  idx.begin_scan();
  EXPECT_FALSE(idx.hit(a));
  EXPECT_FALSE(idx.hit(b));
}

TEST(FastPatternIndex, OverlappingPatternsAllHit) {
  FastPatternIndex idx;
  uint32_t a = idx.add("he");
  uint32_t b = idx.add("she");
  uint32_t c = idx.add("hers");
  idx.build();
  auto hay = common::to_bytes("ushers");
  idx.begin_scan();
  idx.scan(hay);
  EXPECT_TRUE(idx.hit(a));
  EXPECT_TRUE(idx.hit(b));
  EXPECT_TRUE(idx.hit(c));
}

const char* kDirectedRules =
    "pass tcp any any -> any 22 (msg:\"ssh ok\"; sid:1;)\n"
    "drop tcp any any -> any 22 (msg:\"never fires\"; sid:2;)\n"
    "alert tcp any any -> any 80 (msg:\"kw\"; content:\"falun\"; nocase; "
    "sid:3;)\n"
    "alert tcp any 6667 <> any any (msg:\"irc either way\"; sid:4;)\n"
    "reject tcp any any -> any [1000:2000] (msg:\"range\"; "
    "content:\"probe\"; sid:5;)\n"
    "alert udp any any -> any 53 (msg:\"dns kw\"; content:\"blocked\"; "
    "sid:6;)\n"
    "alert ip any any -> any any (msg:\"catchall\"; content:\"beacon\"; "
    "sid:7;)\n"
    "alert tcp any any -> any 80 (msg:\"neg\"; content:!\"safe\"; "
    "dsize:>4; sid:8;)\n";

TEST(FastpathEquivalence, DirectedRuleShapes) {
  Engine linear = Engine::from_text(
      kDirectedRules, {}, EngineOptions{.mode = MatchMode::Linear});
  // prefilter_min_candidates = 0 forces the Aho-Corasick scan even for
  // this small ruleset, so the directed cases exercise the prefilter.
  Engine fast = Engine::from_text(
      kDirectedRules, {},
      EngineOptions{.prefilter_min_candidates = 0,
                    .mode = MatchMode::Fastpath});

  Ipv4Address c1(10, 0, 0, 1), s1(192, 0, 2, 80);
  std::vector<PacketBox> packets;
  // pass rule shields sid:2 on port 22.
  packets.push_back(tcp_pkt(c1, s1, 4000, 22, TcpFlags::kSyn, 1, 0, ""));
  // keyword alert, case-insensitive.
  packets.push_back(
      tcp_pkt(c1, s1, 4001, 80, TcpFlags::kAck, 1, 1, "GET /FaLuN"));
  // bidirectional rule: src port in forward direction...
  packets.push_back(tcp_pkt(c1, s1, 6667, 9999, TcpFlags::kAck, 1, 1, "x"));
  // ...and in the reverse direction (packet's dst port matches rule src).
  packets.push_back(tcp_pkt(s1, c1, 9999, 6667, TcpFlags::kAck, 1, 1, "x"));
  // port-range reject rule (fallback bucket).
  packets.push_back(
      tcp_pkt(c1, s1, 4002, 1500, TcpFlags::kAck, 1, 1, "probe payload"));
  // udp content rule.
  packets.push_back(udp_pkt(c1, s1, 5353, 53, "blocked.example"));
  // ip-proto catchall sees tcp and udp alike.
  packets.push_back(tcp_pkt(c1, s1, 4003, 8080, TcpFlags::kAck, 1, 1,
                            "beacon here"));
  packets.push_back(udp_pkt(c1, s1, 4004, 9, "beacon there"));
  // negated content with dsize.
  packets.push_back(
      tcp_pkt(c1, s1, 4005, 80, TcpFlags::kAck, 1, 1, "unsafe data"));
  packets.push_back(
      tcp_pkt(c1, s1, 4006, 80, TcpFlags::kAck, 1, 1, "safe data"));

  for (size_t i = 0; i < packets.size(); ++i)
    expect_equivalent(linear, fast, SimTime(static_cast<int64_t>(i) * 1000),
                      packets[i].decoded, i);
  expect_same_core_stats(linear, fast);
  // The directed stream actually exercised the prefilter.
  EXPECT_GT(fast.stats().fastpath_candidates, 0u);
  EXPECT_GT(fast.stats().prefilter_hits, 0u);
}

TEST(FastpathEquivalence, StreamSplitKeywordStillFires) {
  // Keyword split across two TCP segments: only the reassembled stream
  // contains it, so the fast path must take the lazy stream-scan branch.
  const char* rules =
      "alert tcp any any -> any 80 (msg:\"split\"; content:\"falun\"; "
      "flow:established; sid:9;)\n";
  Engine linear =
      Engine::from_text(rules, {}, EngineOptions{.mode = MatchMode::Linear});
  Engine fast = Engine::from_text(
      rules, {},
      EngineOptions{.prefilter_min_candidates = 0,
                    .mode = MatchMode::Fastpath});

  Ipv4Address c(10, 0, 0, 7), s(192, 0, 2, 80);
  std::vector<PacketBox> stream;
  stream.push_back(tcp_pkt(c, s, 5000, 80, TcpFlags::kSyn, 100, 0, ""));
  stream.push_back(
      tcp_pkt(s, c, 80, 5000, TcpFlags::kSyn | TcpFlags::kAck, 500, 101, ""));
  stream.push_back(tcp_pkt(c, s, 5000, 80, TcpFlags::kAck, 101, 501, ""));
  stream.push_back(
      tcp_pkt(c, s, 5000, 80, TcpFlags::kAck, 101, 501, "GET /?q=fal"));
  stream.push_back(
      tcp_pkt(c, s, 5000, 80, TcpFlags::kAck, 112, 501, "un HTTP/1.1"));

  size_t total_alerts = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    Verdict vl = linear.process(SimTime(static_cast<int64_t>(i) * 1000),
                                stream[i].decoded);
    Verdict vf = fast.process(SimTime(static_cast<int64_t>(i) * 1000),
                              stream[i].decoded);
    ASSERT_EQ(vl.alerts.size(), vf.alerts.size()) << "packet " << i;
    total_alerts += vf.alerts.size();
  }
  EXPECT_EQ(total_alerts, 1u);  // fires exactly once, on reassembled data
  EXPECT_GT(fast.stats().stream_scans, 0u);
  expect_same_core_stats(linear, fast);
}

// ---------------------------------------------------------------------------
// Randomized equivalence sweep.

const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> pool = {
      "falun",  "tor",     "VPN",      "proxy",  "beacon", "probe",
      "Gong",   "blocked", "freedom",  "xyzzy",  "GET /",  "HTTP/1.1",
      "ultras", "urfing",  "tunnel0",  "qqmail", "dns",    "censor",
  };
  return pool;
}

std::string random_rules(Rng& rng, size_t n) {
  std::string text;
  const auto& pool = word_pool();
  for (size_t i = 0; i < n; ++i) {
    double a = rng.uniform();
    const char* action = a < 0.55   ? "alert"
                         : a < 0.70 ? "drop"
                         : a < 0.80 ? "reject"
                         : a < 0.92 ? "pass"
                                    : "log";
    double pr = rng.uniform();
    const char* proto = pr < 0.55   ? "tcp"
                        : pr < 0.80 ? "udp"
                        : pr < 0.92 ? "ip"
                                    : "icmp";
    auto port_spec = [&]() -> std::string {
      double p = rng.uniform();
      if (p < 0.35) return "any";
      uint16_t base = static_cast<uint16_t>(20 + rng.bounded(120));
      if (p < 0.80) return std::to_string(base);
      if (p < 0.92)
        return "[" + std::to_string(base) + ":" +
               std::to_string(base + 30) + "]";
      return "!" + std::to_string(base);
    };
    std::string src_ports = port_spec();
    std::string dst_ports = port_spec();
    const char* dir = rng.chance(0.18) ? "<>" : "->";

    std::string options;
    size_t contents = rng.bounded(3);  // 0..2 content options
    for (size_t c = 0; c < contents; ++c) {
      const std::string& w = pool[rng.bounded(pool.size())];
      bool negated = rng.chance(0.15);
      options += " content:" + std::string(negated ? "!" : "") + "\"" + w +
                 "\";";
      if (rng.chance(0.5)) options += " nocase;";
      if (rng.chance(0.2))
        options += " offset:" + std::to_string(rng.bounded(6)) + ";";
      if (rng.chance(0.2))
        options += " depth:" + std::to_string(40 + rng.bounded(200)) + ";";
    }
    if (std::string(proto) == "tcp" && rng.chance(0.15)) options += " flags:A+;";
    if (rng.chance(0.15))
      options += " dsize:>" + std::to_string(rng.bounded(30)) + ";";
    if (std::string(proto) == "tcp" && rng.chance(0.1))
      options += " flow:established;";
    if (rng.chance(0.1))
      options += " threshold: type limit, track by_src, count 3, seconds 60;";

    text += std::string(action) + " " + proto + " any " + src_ports + " " +
            dir + " any " + dst_ports + " (msg:\"r" + std::to_string(i) +
            "\"; sid:" + std::to_string(1000 + i) + ";" + options + ")\n";
  }
  return text;
}

std::string random_payload(Rng& rng) {
  const auto& pool = word_pool();
  std::string payload;
  size_t words = rng.bounded(5);
  for (size_t i = 0; i < words; ++i) {
    payload += pool[rng.bounded(pool.size())];
    payload += ' ';
  }
  size_t filler = rng.bounded(120);
  for (size_t i = 0; i < filler; ++i)
    payload += static_cast<char>('a' + rng.bounded(26));
  return payload;
}

TEST(FastpathEquivalence, RandomizedSweep) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    std::string rules = random_rules(rng, 60);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine linear =
        Engine::from_text(rules, {}, EngineOptions{.mode = MatchMode::Linear});
    // Default crossover heuristic and always-on prefilter must both be
    // equivalent to the linear scan.
    Engine fast = Engine::from_text(
        rules, {}, EngineOptions{.mode = MatchMode::Fastpath});
    Engine forced = Engine::from_text(
        rules, {},
        EngineOptions{.prefilter_min_candidates = 0,
                      .mode = MatchMode::Fastpath});
    ASSERT_EQ(linear.rule_count(), fast.rule_count());

    // A small endpoint population so flows repeat and establish.
    std::vector<Ipv4Address> hosts;
    for (int i = 0; i < 6; ++i)
      hosts.push_back(Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));

    for (size_t i = 0; i < 2500; ++i) {
      Ipv4Address src = hosts[rng.bounded(hosts.size())];
      Ipv4Address dst = hosts[rng.bounded(hosts.size())];
      uint16_t sp = static_cast<uint16_t>(20 + rng.bounded(140));
      uint16_t dp = static_cast<uint16_t>(20 + rng.bounded(140));
      SimTime now(static_cast<int64_t>(i) * 2000);
      std::string payload = random_payload(rng);
      PacketBox box;
      double kind = rng.uniform();
      if (kind < 0.55) {
        uint8_t flags = TcpFlags::kAck;
        double f = rng.uniform();
        if (f < 0.15)
          flags = TcpFlags::kSyn;
        else if (f < 0.3)
          flags = TcpFlags::kSyn | TcpFlags::kAck;
        else if (f < 0.35)
          flags = TcpFlags::kFin | TcpFlags::kAck;
        box = tcp_pkt(src, dst, sp, dp, flags,
                      static_cast<uint32_t>(rng.bounded(100000)),
                      flags & TcpFlags::kAck ? 1 : 0, payload);
      } else {
        box = udp_pkt(src, dst, sp, dp, payload);
      }
      Verdict vl = linear.process(now, box.decoded);
      Verdict vf = fast.process(now, box.decoded);
      Verdict vo = forced.process(now, box.decoded);
      expect_same_verdict(vl, vf, i);
      expect_same_verdict(vl, vo, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_core_stats(linear, fast);
    expect_same_core_stats(linear, forced);
    // Sanity: the sweep must actually exercise the fast path machinery.
    EXPECT_GT(fast.stats().fastpath_candidates, 0u);
    EXPECT_GT(forced.stats().prefilter_skips, 0u);
  }
}

// ---------------------------------------------------------------------------
// Differential sweep over impaired traffic: the packets an impaired link
// delivers — payload-corrupted (slipped past checksums) and reordered
// segments — must still yield identical verdicts from both engines.

TEST(FastpathEquivalence, CorruptedTrafficMatchesLegacy) {
  for (uint64_t seed : {21ULL, 22ULL}) {
    Rng rng(seed);
    std::string rules = random_rules(rng, 40);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine linear =
        Engine::from_text(rules, {}, EngineOptions{.mode = MatchMode::Linear});
    Engine fast = Engine::from_text(
        rules, {},
        EngineOptions{.prefilter_min_candidates = 0,
                      .mode = MatchMode::Fastpath});

    std::vector<Ipv4Address> hosts;
    for (int i = 0; i < 4; ++i)
      hosts.push_back(Ipv4Address(10, 0, 1, static_cast<uint8_t>(i + 1)));

    size_t processed = 0, corrupted = 0;
    for (size_t i = 0; i < 1200; ++i) {
      Ipv4Address src = hosts[rng.bounded(hosts.size())];
      Ipv4Address dst = hosts[rng.bounded(hosts.size())];
      uint16_t sp = static_cast<uint16_t>(20 + rng.bounded(140));
      uint16_t dp = static_cast<uint16_t>(20 + rng.bounded(140));
      std::string payload = random_payload(rng);
      PacketBox box = rng.chance(0.6)
                          ? tcp_pkt(src, dst, sp, dp, TcpFlags::kAck,
                                    static_cast<uint32_t>(rng.bounded(100000)),
                                    1, payload)
                          : udp_pkt(src, dst, sp, dp, payload);
      // Flip a few bytes the way a lossy link would, then take whatever
      // still parses — exactly what a tap behind an impaired link sees.
      if (rng.chance(0.5) && !box.storage.empty()) {
        size_t flips = 1 + rng.bounded(3);
        for (size_t f = 0; f < flips; ++f)
          box.storage[rng.bounded(box.storage.size())] ^=
              static_cast<uint8_t>(1 + rng.bounded(255));
        auto d = packet::decode(std::span<const uint8_t>(box.storage));
        if (!d) continue;
        box.decoded = *d;
        ++corrupted;
      }
      Verdict vl = linear.process(SimTime(static_cast<int64_t>(i) * 2000),
                                  box.decoded);
      Verdict vf = fast.process(SimTime(static_cast<int64_t>(i) * 2000),
                                box.decoded);
      expect_same_verdict(vl, vf, i);
      if (::testing::Test::HasFatalFailure()) return;
      ++processed;
    }
    expect_same_core_stats(linear, fast);
    EXPECT_GT(processed, 600u);
    EXPECT_GT(corrupted, 100u);  // the sweep really fed mangled packets
  }
}

TEST(FastpathEquivalence, ReorderedStreamsMatchLegacy) {
  // TCP streams carrying keywords split across segments, delivered out of
  // order (as reorder jitter produces). Both engines see the identical
  // scrambled sequence and must agree packet-for-packet — including on
  // whether the out-of-order reassembly still surfaces the keyword.
  const char* rules =
      "alert tcp any any -> any 80 (msg:\"kw\"; content:\"falun\"; "
      "sid:11;)\n"
      "drop tcp any any -> any 80 (msg:\"kw2\"; content:\"beacon\"; "
      "flow:established; sid:12;)\n"
      "alert udp any any -> any 53 (msg:\"dns\"; content:\"tor\"; sid:13;)\n";
  for (uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine linear =
        Engine::from_text(rules, {}, EngineOptions{.mode = MatchMode::Linear});
    Engine fast = Engine::from_text(
        rules, {},
        EngineOptions{.prefilter_min_candidates = 0,
                      .mode = MatchMode::Fastpath});

    // A batch of handshake + split-keyword streams from distinct ports.
    std::vector<PacketBox> packets;
    for (int f = 0; f < 12; ++f) {
      Ipv4Address c(10, 0, 2, static_cast<uint8_t>(f + 1));
      Ipv4Address s(192, 0, 2, 80);
      uint16_t sp = static_cast<uint16_t>(6000 + f);
      uint32_t iss = 1000 * static_cast<uint32_t>(f + 1);
      std::string kw = f % 2 ? "falun" : "beacon";
      std::string a = "GET /?q=" + kw.substr(0, 3);
      std::string b = kw.substr(3) + " HTTP/1.1";
      packets.push_back(tcp_pkt(c, s, sp, 80, TcpFlags::kSyn, iss, 0, ""));
      packets.push_back(tcp_pkt(s, c, 80, sp, TcpFlags::kSyn | TcpFlags::kAck,
                                500, iss + 1, ""));
      packets.push_back(
          tcp_pkt(c, s, sp, 80, TcpFlags::kAck, iss + 1, 501, ""));
      packets.push_back(
          tcp_pkt(c, s, sp, 80, TcpFlags::kAck, iss + 1, 501, a));
      packets.push_back(tcp_pkt(c, s, sp, 80, TcpFlags::kAck,
                                iss + 1 + static_cast<uint32_t>(a.size()),
                                501, b));
      packets.push_back(udp_pkt(c, s, sp, 53, "query tor bridge"));
    }
    // Seeded local scramble: swap each packet a bounded distance back,
    // mirroring bounded reorder jitter rather than a full shuffle.
    for (size_t i = packets.size(); i-- > 1;) {
      if (rng.chance(0.4)) {
        size_t back = 1 + rng.bounded(std::min<size_t>(i, 3));
        std::swap(packets[i], packets[i - back]);
      }
    }
    size_t alerts = 0;
    for (size_t i = 0; i < packets.size(); ++i) {
      Verdict vl = linear.process(SimTime(static_cast<int64_t>(i) * 1000),
                                  packets[i].decoded);
      Verdict vf = fast.process(SimTime(static_cast<int64_t>(i) * 1000),
                                packets[i].decoded);
      expect_same_verdict(vl, vf, i);
      if (::testing::Test::HasFatalFailure()) return;
      alerts += vf.alerts.size();
    }
    expect_same_core_stats(linear, fast);
    EXPECT_GT(alerts, 0u);  // scrambling must not silence every rule
  }
}

// ---------------------------------------------------------------------------
// Dual-stack equivalence: v6 traffic, with and without extension-header
// chains, must flow through both engines verdict-for-verdict. The engine
// normalizes the chain away (payload offsets come from the decoded
// header's ext_length), so a HBH/DestOpts detour must change nothing.

PacketBox tcp6_pkt(common::Ipv6Address src, common::Ipv6Address dst,
                   uint16_t sp, uint16_t dp, uint8_t flags, uint32_t seq,
                   uint32_t ack, std::string_view payload,
                   packet::Ipv6Options ip = {}) {
  PacketBox box;
  packet::Packet p = packet::make_tcp6(src, dst, sp, dp, flags, seq, ack,
                                       common::to_bytes(payload), ip);
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

PacketBox udp6_pkt(common::Ipv6Address src, common::Ipv6Address dst,
                   uint16_t sp, uint16_t dp, std::string_view payload,
                   packet::Ipv6Options ip = {}) {
  PacketBox box;
  packet::Packet p =
      packet::make_udp6(src, dst, sp, dp, common::to_bytes(payload), ip);
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

packet::Ipv6Options random_ext_chain(Rng& rng) {
  packet::Ipv6Options ip;
  size_t chain = rng.bounded(3);
  for (size_t i = 0; i < chain; ++i) {
    packet::Ipv6ExtSpec ext;
    if (i == 0 && rng.chance(0.4)) {
      ext.type = static_cast<uint8_t>(packet::IpProto::HopByHop);
    } else {
      ext.type = rng.chance(0.5)
                     ? static_cast<uint8_t>(packet::IpProto::Routing)
                     : static_cast<uint8_t>(packet::IpProto::DestOpts);
    }
    common::Bytes body(rng.bounded(16));
    for (auto& byte : body) byte = static_cast<uint8_t>(rng.bounded(256));
    ext.body = std::move(body);
    ip.ext.push_back(std::move(ext));
  }
  return ip;
}

TEST(FastpathEquivalence, DirectedV6RuleShapesWithExtHeaders) {
  Engine linear = Engine::from_text(kDirectedRules, {},
                                    EngineOptions{.mode = MatchMode::Linear});
  Engine fast = Engine::from_text(
      kDirectedRules, {},
      EngineOptions{.prefilter_min_candidates = 0,
                    .mode = MatchMode::Fastpath});

  common::Ipv6Address c1 = common::map_v6(Ipv4Address(10, 0, 0, 1));
  common::Ipv6Address s1 = common::map_v6(Ipv4Address(192, 0, 2, 80));
  packet::Ipv6Options hbh;
  hbh.ext.push_back(
      {static_cast<uint8_t>(packet::IpProto::HopByHop), common::Bytes{}});
  packet::Ipv6Options chain;
  chain.ext.push_back({static_cast<uint8_t>(packet::IpProto::Routing),
                       common::Bytes(8, 0)});
  chain.ext.push_back({static_cast<uint8_t>(packet::IpProto::DestOpts),
                       common::Bytes{1, 2, 3}});

  std::vector<PacketBox> packets;
  // Keyword alert with no chain, behind HBH, and behind a two-header
  // chain — the content offset must survive normalization in all three.
  packets.push_back(
      tcp6_pkt(c1, s1, 4001, 80, TcpFlags::kAck, 1, 1, "GET /FaLuN"));
  packets.push_back(
      tcp6_pkt(c1, s1, 4002, 80, TcpFlags::kAck, 1, 1, "GET /FaLuN", hbh));
  packets.push_back(
      tcp6_pkt(c1, s1, 4003, 80, TcpFlags::kAck, 1, 1, "GET /FaLuN", chain));
  // pass-shielded port, range reject, udp content, catchall — over v6.
  packets.push_back(tcp6_pkt(c1, s1, 4000, 22, TcpFlags::kSyn, 1, 0, ""));
  packets.push_back(tcp6_pkt(c1, s1, 4004, 1500, TcpFlags::kAck, 1, 1,
                             "probe payload", hbh));
  packets.push_back(udp6_pkt(c1, s1, 5353, 53, "blocked.example", chain));
  packets.push_back(
      udp6_pkt(c1, s1, 4005, 9, "beacon there", hbh));
  packets.push_back(
      tcp6_pkt(c1, s1, 4006, 80, TcpFlags::kAck, 1, 1, "unsafe data"));

  size_t alerts = 0;
  for (size_t i = 0; i < packets.size(); ++i) {
    Verdict vl = linear.process(SimTime(static_cast<int64_t>(i) * 1000),
                                packets[i].decoded);
    Verdict vf = fast.process(SimTime(static_cast<int64_t>(i) * 1000),
                              packets[i].decoded);
    expect_same_verdict(vl, vf, i);
    if (::testing::Test::HasFatalFailure()) return;
    alerts += vf.alerts.size();
  }
  expect_same_core_stats(linear, fast);
  EXPECT_GE(alerts, 5u);  // the v6 cells really fired, ext chain included
}

TEST(FastpathEquivalence, RandomizedDualStackSweep) {
  for (uint64_t seed : {41ULL, 42ULL}) {
    Rng rng(seed);
    std::string rules = random_rules(rng, 60);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine linear =
        Engine::from_text(rules, {}, EngineOptions{.mode = MatchMode::Linear});
    Engine fast = Engine::from_text(
        rules, {},
        EngineOptions{.prefilter_min_candidates = 0,
                      .mode = MatchMode::Fastpath});

    std::vector<Ipv4Address> hosts;
    for (int i = 0; i < 6; ++i)
      hosts.push_back(Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));

    size_t v6_packets = 0, with_ext = 0;
    for (size_t i = 0; i < 2500; ++i) {
      Ipv4Address src = hosts[rng.bounded(hosts.size())];
      Ipv4Address dst = hosts[rng.bounded(hosts.size())];
      uint16_t sp = static_cast<uint16_t>(20 + rng.bounded(140));
      uint16_t dp = static_cast<uint16_t>(20 + rng.bounded(140));
      SimTime now(static_cast<int64_t>(i) * 2000);
      std::string payload = random_payload(rng);
      bool v6 = rng.chance(0.5);
      bool tcp = rng.chance(0.6);
      PacketBox box;
      if (v6) {
        ++v6_packets;
        packet::Ipv6Options ip = random_ext_chain(rng);
        if (!ip.ext.empty()) ++with_ext;
        box = tcp ? tcp6_pkt(common::map_v6(src), common::map_v6(dst), sp,
                             dp, TcpFlags::kAck,
                             static_cast<uint32_t>(rng.bounded(100000)), 1,
                             payload, ip)
                  : udp6_pkt(common::map_v6(src), common::map_v6(dst), sp,
                             dp, payload, ip);
      } else {
        box = tcp ? tcp_pkt(src, dst, sp, dp, TcpFlags::kAck,
                            static_cast<uint32_t>(rng.bounded(100000)), 1,
                            payload)
                  : udp_pkt(src, dst, sp, dp, payload);
      }
      Verdict vl = linear.process(now, box.decoded);
      Verdict vf = fast.process(now, box.decoded);
      expect_same_verdict(vl, vf, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_core_stats(linear, fast);
    EXPECT_GT(v6_packets, 1000u);
    EXPECT_GT(with_ext, 300u);  // ext chains really mixed into the sweep
  }
}

}  // namespace
}  // namespace sm::ids
