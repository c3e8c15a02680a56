#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "surveillance/analyst.hpp"
#include "surveillance/classify.hpp"
#include "surveillance/mvr.hpp"
#include "surveillance/store.hpp"

namespace sm::surveillance {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;
using packet::TcpFlags;

packet::Decoded decode_keep(packet::Packet p, common::Bytes& storage) {
  storage = p.data();
  return *packet::decode(storage);
}

TEST(Classifier, PortClasses) {
  common::Bytes s;
  auto web = decode_keep(packet::make_tcp(Ipv4Address(1, 1, 1, 1),
                                          Ipv4Address(2, 2, 2, 2), 5000, 80,
                                          TcpFlags::kSyn, 0, 0),
                         s);
  EXPECT_EQ(port_class(web), TrafficClass::Web);
  common::Bytes s2;
  auto dns = decode_keep(packet::make_udp(Ipv4Address(1, 1, 1, 1),
                                          Ipv4Address(2, 2, 2, 2), 5000, 53,
                                          common::to_bytes("q")),
                         s2);
  EXPECT_EQ(port_class(dns), TrafficClass::Dns);
  common::Bytes s3;
  auto mail = decode_keep(packet::make_tcp(Ipv4Address(1, 1, 1, 1),
                                           Ipv4Address(2, 2, 2, 2), 5000, 25,
                                           TcpFlags::kSyn, 0, 0),
                          s3);
  EXPECT_EQ(port_class(mail), TrafficClass::Mail);
}

TEST(Classifier, P2pByPortAndPayload) {
  common::Bytes s;
  auto bt_port = decode_keep(
      packet::make_tcp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                       5000, 6881, TcpFlags::kSyn, 0, 0),
      s);
  EXPECT_TRUE(looks_p2p(bt_port));
  common::Bytes s2;
  auto bt_payload = decode_keep(
      packet::make_tcp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                       5000, 9999, TcpFlags::kAck, 1, 1,
                       common::to_bytes("\x13"
                                        "BitTorrent protocol")),
      s2);
  EXPECT_TRUE(looks_p2p(bt_payload));
  common::Bytes s3;
  auto plain = decode_keep(
      packet::make_tcp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                       5000, 80, TcpFlags::kSyn, 0, 0),
      s3);
  EXPECT_FALSE(looks_p2p(plain));
}

TEST(Classifier, ScanDetectionByFanout) {
  Classifier c(ClassifierConfig{.scan_fanout_threshold = 10,
                                .scan_window = Duration::seconds(10),
                                .ddos_rate_threshold = 1000,
                                .ddos_window = Duration::seconds(10)});
  Ipv4Address scanner(10, 0, 0, 9);
  TrafficClass last = TrafficClass::Other;
  for (int i = 0; i < 12; ++i) {
    common::Bytes s;
    auto pkt = decode_keep(
        packet::make_tcp(scanner, Ipv4Address(198, 18, 0, 80), 40000,
                         static_cast<uint16_t>(100 + i), TcpFlags::kSyn, 0,
                         0),
        s);
    last = c.classify(SimTime(i * 1000), pkt);
  }
  EXPECT_EQ(last, TrafficClass::Scanning);
}

TEST(Classifier, ScanWindowExpires) {
  Classifier c(ClassifierConfig{.scan_fanout_threshold = 5,
                                .scan_window = Duration::seconds(1),
                                .ddos_rate_threshold = 1000,
                                .ddos_window = Duration::seconds(10)});
  Ipv4Address src(10, 0, 0, 9);
  // 4 SYNs, then a long pause, then 4 more: never 5 in one window.
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 4; ++i) {
      common::Bytes s;
      auto pkt = decode_keep(
          packet::make_tcp(src, Ipv4Address(198, 18, 0, 80), 40000,
                           static_cast<uint16_t>(burst * 100 + i),
                           TcpFlags::kSyn, 0, 0),
          s);
      SimTime t(burst * Duration::seconds(10).count() + i);
      EXPECT_NE(c.classify(t, pkt), TrafficClass::Scanning);
    }
  }
}

TEST(Classifier, DdosByRequestRate) {
  Classifier c(ClassifierConfig{.scan_fanout_threshold = 1000,
                                .scan_window = Duration::seconds(10),
                                .ddos_rate_threshold = 20,
                                .ddos_window = Duration::seconds(10)});
  Ipv4Address bot(10, 0, 0, 9);
  Ipv4Address victim(198, 18, 0, 80);
  TrafficClass last = TrafficClass::Other;
  for (int i = 0; i < 25; ++i) {
    common::Bytes s;
    auto pkt = decode_keep(
        packet::make_tcp(bot, victim, 40000, 80, TcpFlags::kAck, 1, 1,
                         common::to_bytes("GET / HTTP/1.1\r\n\r\n")),
        s);
    last = c.classify(SimTime(i * 1000), pkt);
  }
  EXPECT_EQ(last, TrafficClass::DdosLike);
}

/// The classifier's window logic over std::deque and ordered containers:
/// the reference its compacting windows must agree with.
struct ReferenceClassifier {
  ClassifierConfig cfg;
  struct Source {
    std::deque<std::pair<SimTime, uint64_t>> syn_targets;
    std::set<uint64_t> distinct_targets;
    std::deque<std::pair<SimTime, uint32_t>> requests;
    std::map<uint32_t, size_t> per_dst_count;
  };
  std::map<uint32_t, Source> sources;

  TrafficClass classify(SimTime now, const packet::Decoded& d) {
    if (looks_p2p(d)) return TrafficClass::P2p;
    Source& st = sources[common::host_identity(d.src_addr()).value()];
    while (!st.syn_targets.empty() &&
           now - st.syn_targets.front().first > cfg.scan_window) {
      st.distinct_targets.erase(st.syn_targets.front().second);
      st.syn_targets.pop_front();
    }
    while (!st.requests.empty() &&
           now - st.requests.front().first > cfg.ddos_window) {
      auto it = st.per_dst_count.find(st.requests.front().second);
      if (it != st.per_dst_count.end() && --it->second == 0)
        st.per_dst_count.erase(it);
      st.requests.pop_front();
    }
    uint32_t dst_id = common::host_identity(d.dst_addr()).value();
    if (d.tcp && d.tcp->syn() && !d.tcp->ack_flag()) {
      uint64_t target = (uint64_t{dst_id} << 16) | d.tcp->dst_port;
      st.syn_targets.emplace_back(now, target);
      st.distinct_targets.insert(target);
      if (st.distinct_targets.size() >= cfg.scan_fanout_threshold)
        return TrafficClass::Scanning;
    }
    if (d.tcp && (!d.l4_payload.empty() || d.tcp->syn())) {
      st.requests.emplace_back(now, dst_id);
      if (++st.per_dst_count[dst_id] >= cfg.ddos_rate_threshold)
        return TrafficClass::DdosLike;
    }
    return port_class(d);
  }
};

TEST(Classifier, WindowsAgreeWithADequeReference) {
  // Bursts and lulls make the windows fill, drain to empty, and slide
  // over hundreds of entries, so every compaction path runs.
  ClassifierConfig cfg{.scan_fanout_threshold = 40,
                       .scan_window = Duration::millis(200),
                       .ddos_rate_threshold = 20,
                       .ddos_window = Duration::millis(300)};
  Classifier fast(cfg);
  ReferenceClassifier ref{cfg, {}};
  common::Rng rng(2015);
  int64_t now = 0;
  size_t scans = 0, ddos = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.chance(0.01) ? Duration::millis(400).count()
                            : static_cast<int64_t>(rng.bounded(1'000'000));
    Ipv4Address src(10, 0, 0, static_cast<uint8_t>(1 + rng.bounded(3)));
    Ipv4Address dst(198, 18, 0, static_cast<uint8_t>(rng.bounded(8)));
    auto port = static_cast<uint16_t>(rng.bounded(24));
    bool syn = rng.chance(0.6);
    common::Bytes storage;
    packet::Decoded d = decode_keep(
        packet::make_tcp(src, dst, 40000, port,
                         syn ? TcpFlags::kSyn : TcpFlags::kAck, 1, 1,
                         syn ? common::Bytes{} : common::to_bytes("data")),
        storage);
    TrafficClass got = fast.classify(SimTime(now), d);
    ASSERT_EQ(got, ref.classify(SimTime(now), d)) << "packet " << i;
    scans += got == TrafficClass::Scanning;
    ddos += got == TrafficClass::DdosLike;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(ddos, 0u);
  EXPECT_EQ(fast.tracked_sources(), 3u);
}

TEST(RetentionStoreTest, EvictsBeyondWindow) {
  ContentStore store(Duration::seconds(10));
  for (int i = 0; i < 5; ++i) {
    ContentItem item;
    item.time = SimTime(Duration::seconds(i).count());
    item.bytes = 100;
    store.add(item.time, item, 100);
  }
  EXPECT_EQ(store.count(), 5u);
  EXPECT_EQ(store.bytes(), 500u);
  store.evict(SimTime(Duration::seconds(13).count()));
  // Items at t=0..3 have age >= 10s relative to t=13; only t=4 survives.
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.bytes(), 100u);
}

TEST(RetentionStoreTest, ZeroAgeSurvives) {
  MetadataStore store(Duration::days(30));
  MetadataItem item;
  item.time = SimTime(0);
  store.add(SimTime(0), item, 64);
  store.evict(SimTime(0));
  EXPECT_EQ(store.count(), 1u);
}

TEST(Analyst, SuspicionScoringAndThreshold) {
  Analyst analyst(AnalystConfig{.weight_interesting = 10.0,
                                .weight_censored_touch = 0.1,
                                .weight_content_mb = 0.5,
                                .investigation_threshold = 10.0});
  Ipv4Address user(10, 0, 0, 5);
  EXPECT_FALSE(analyst.would_investigate(user));
  analyst.record_interesting_alert(SimTime(0), user, /*priority=*/1);
  EXPECT_TRUE(analyst.would_investigate(user));
  EXPECT_DOUBLE_EQ(analyst.suspicion(user), 10.0);
}

TEST(Analyst, CensoredTouchesBarelyScore) {
  // The Syria insight: 1.57% of everyone touches censored content, so a
  // single touch cannot make anyone investigable.
  Analyst analyst;
  Ipv4Address user(10, 0, 0, 5);
  for (int i = 0; i < 50; ++i)
    analyst.record_censored_touch(SimTime(i), user);
  EXPECT_FALSE(analyst.would_investigate(user));
  EXPECT_EQ(analyst.dossier(user)->censored_touches, 50u);
}

TEST(Analyst, NoiseAlertsNeverScore) {
  Analyst analyst;
  Ipv4Address user(10, 0, 0, 5);
  for (int i = 0; i < 1000; ++i)
    analyst.record_noise_alert(SimTime(i), user);
  EXPECT_DOUBLE_EQ(analyst.suspicion(user), 0.0);
  EXPECT_EQ(analyst.dossier(user)->noise_alerts, 1000u);
}

TEST(Analyst, PriorityScalesScore) {
  Analyst analyst;
  Ipv4Address hi(10, 0, 0, 1), lo(10, 0, 0, 2);
  analyst.record_interesting_alert(SimTime(0), hi, 1);
  analyst.record_interesting_alert(SimTime(0), lo, 4);
  EXPECT_GT(analyst.suspicion(hi), analyst.suspicion(lo));
}

TEST(Analyst, TopSuspectsSorted) {
  Analyst analyst;
  analyst.record_interesting_alert(SimTime(0), Ipv4Address(10, 0, 0, 1), 2);
  analyst.record_interesting_alert(SimTime(0), Ipv4Address(10, 0, 0, 2), 1);
  analyst.record_interesting_alert(SimTime(0), Ipv4Address(10, 0, 0, 2), 1);
  auto top = analyst.top_suspects(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].user, Ipv4Address(10, 0, 0, 2));
}

TEST(Rules, CommunityRulesetHasNoiseAndTargeted) {
  auto rules = community_ruleset();
  bool has_noise = false, has_targeted = false;
  for (const auto& r : rules) {
    if (noise_classtypes().count(r.classtype)) has_noise = true;
    if (r.classtype == "measurement-tool") has_targeted = true;
  }
  EXPECT_TRUE(has_noise);
  EXPECT_TRUE(has_targeted);
}

// --- MVR pipeline over a small network ---

class MvrNetTest : public ::testing::Test {
 protected:
  MvrNetTest() {
    client_ = net_.add_host("c", Ipv4Address(10, 1, 1, 10));
    server_ = net_.add_host("s", Ipv4Address(198, 18, 0, 80));
    router_ = net_.add_router("r");
    net_.connect(client_, router_);
    net_.connect(server_, router_);
    MvrConfig cfg;
    cfg.content_retention_fraction = 0.5;  // amplified for small tests
    // Raise volume-heuristic thresholds: these unit tests direct bursts
    // at one server and must not trip the scan/ddos classifiers.
    cfg.classifier.ddos_rate_threshold = 100000;
    cfg.classifier.scan_fanout_threshold = 100000;
    mvr_ = std::make_unique<MvrTap>(cfg);
    router_->add_tap(mvr_.get());
  }
  netsim::Network net_;
  netsim::Host* client_;
  netsim::Host* server_;
  netsim::Router* router_;
  std::unique_ptr<MvrTap> mvr_;
};

TEST_F(MvrNetTest, MetadataAlwaysRecorded) {
  client_->send_udp(server_->address(), 1000, 80, common::to_bytes("x"));
  net_.run_for(Duration::millis(10));
  EXPECT_EQ(mvr_->metadata_store().count(), 1u);
  EXPECT_EQ(mvr_->stats().packets_seen, 1u);
}

TEST_F(MvrNetTest, P2pBytesDiscarded) {
  common::Bytes payload = common::to_bytes("d1:ad2:id20:xxxxxxxxxxxxxxxx");
  for (int i = 0; i < 20; ++i)
    client_->send_udp(server_->address(), 6881, 6881, payload);
  net_.run_for(Duration::millis(100));
  EXPECT_GT(mvr_->stats().bytes_discarded, 0u);
  EXPECT_GT(mvr_->stats().bytes_by_class.at(TrafficClass::P2p), 0u);
}

TEST_F(MvrNetTest, MeasurementSignatureIsInterestingAlert) {
  // A TCP segment carrying an overt platform fingerprint.
  client_->send(packet::make_tcp(
      client_->address(), server_->address(), 4000, 80, TcpFlags::kAck, 1,
      1, common::to_bytes("GET / HTTP/1.1\r\nUser-Agent: OONI-Probe\r\n")));
  net_.run_for(Duration::millis(10));
  EXPECT_EQ(mvr_->interesting_alerts_for(client_->address()), 1u);
  EXPECT_GT(mvr_->analyst().suspicion(client_->address()), 0.0);
  EXPECT_EQ(mvr_->alert_store().count(), 1u);
}

TEST_F(MvrNetTest, SpamSignatureIsNoise) {
  client_->send(packet::make_tcp(
      client_->address(), server_->address(), 4000, 25, TcpFlags::kAck, 1,
      1, common::to_bytes("MAIL FROM:<spam@bulk.example>\r\n")));
  net_.run_for(Duration::millis(10));
  EXPECT_EQ(mvr_->noise_alerts_for(client_->address()), 1u);
  EXPECT_EQ(mvr_->interesting_alerts_for(client_->address()), 0u);
  EXPECT_DOUBLE_EQ(mvr_->analyst().suspicion(client_->address()), 0.0);
}

TEST_F(MvrNetTest, RetentionFractionRoughlyHolds) {
  // Web traffic (retained class) sampled at the configured fraction.
  for (int i = 0; i < 400; ++i) {
    client_->send(packet::make_tcp(client_->address(), server_->address(),
                                   static_cast<uint16_t>(10000 + i), 8080,
                                   TcpFlags::kAck, 1, 1,
                                   common::to_bytes("payload")));
  }
  net_.run_for(Duration::seconds(1));
  double fraction = mvr_->retained_fraction();
  EXPECT_NEAR(fraction, 0.5, 0.12);
}

TEST_F(MvrNetTest, PassiveTapNeverDrops) {
  client_->send_udp(server_->address(), 1, 80, common::to_bytes("x"));
  net_.run_for(Duration::millis(10));
  EXPECT_EQ(router_->counters().dropped_by_tap, 0u);
  EXPECT_EQ(router_->counters().forwarded, 1u);
}

}  // namespace
}  // namespace sm::surveillance
