// Observability layer: metrics registry determinism, logging sink
// capture, the TraceTap record cap, and the no-behaviour-change
// guarantee when the layer is enabled on a full testbed run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/workloads.hpp"
#include "common/bytes.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "core/probe.hpp"
#include "core/report_json.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "core/top_ports.hpp"
#include "netsim/engine.hpp"
#include "netsim/topology.hpp"
#include "netsim/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "surveillance/mvr.hpp"

namespace sm {
namespace {

using common::Duration;
using common::SimTime;

// --- Registry ---------------------------------------------------------

TEST(Registry, CounterGaugeBasics) {
  obs::Registry reg;
  obs::Counter c = reg.counter("sm_test_total");
  c->inc();
  c->inc(4);
  EXPECT_EQ(c->value(), 5u);
  c->set(42);
  EXPECT_EQ(c->value(), 42u);
  // Same (name, labels) -> same series; the pointer is stable.
  EXPECT_EQ(reg.counter("sm_test_total"), c);

  obs::Gauge g = reg.gauge("sm_test_depth");
  g->set(3.5);
  g->add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Registry, LabeledSeriesAreIndependentAndOrderInsensitive) {
  obs::Registry reg;
  obs::Counter a = reg.counter("sm_x_total", {{"k", "1"}});
  obs::Counter b = reg.counter("sm_x_total", {{"k", "2"}});
  EXPECT_NE(a, b);
  a->inc(7);
  EXPECT_EQ(b->value(), 0u);
  // Label order must not mint a new series.
  obs::Counter c1 =
      reg.counter("sm_y_total", {{"b", "2"}, {"a", "1"}});
  obs::Counter c2 =
      reg.counter("sm_y_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(c1, c2);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("sm_kind_total");
  EXPECT_THROW(reg.gauge("sm_kind_total"), std::invalid_argument);
  reg.histogram("sm_hist", 0, 10, 5);
  EXPECT_THROW(reg.histogram("sm_hist", 0, 20, 5), std::invalid_argument);
}

TEST(Registry, JsonSnapshotIsDeterministic) {
  // Two registries populated in opposite orders serialize identically:
  // ordering comes from the (name, labels) keys, not insertion history.
  obs::Registry a, b;
  a.counter("sm_one_total", {{"z", "9"}})->set(1);
  a.gauge("sm_two")->set(2.5);
  a.counter("sm_one_total", {{"a", "0"}})->set(3);
  b.counter("sm_one_total", {{"a", "0"}})->set(3);
  b.counter("sm_one_total", {{"z", "9"}})->set(1);
  b.gauge("sm_two")->set(2.5);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_prometheus(), b.to_prometheus());
  EXPECT_NE(a.to_json().find("\"sm_one_total\""), std::string::npos);
}

TEST(Registry, PrometheusExposition) {
  obs::Registry reg;
  reg.counter("sm_packets_total", {{"instance", "mvr"}}, "packets seen")
      ->set(12);
  auto* h = reg.histogram("sm_lat", 0.0, 10.0, 2, {}, "latency");
  h->observe(1.0);
  h->observe(6.0);
  h->observe(100.0);  // clamps into the last bin
  std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP sm_packets_total packets seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sm_packets_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sm_packets_total{instance=\"mvr\"} 12"),
            std::string::npos);
  // Buckets are cumulative; the final bucket is +Inf and equals _count.
  EXPECT_NE(text.find("sm_lat_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sm_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("sm_lat_count 3"), std::string::npos);
  EXPECT_NE(text.find("sm_lat_sum 107"), std::string::npos);
}

TEST(Registry, HistogramQuantiles) {
  obs::Registry reg;
  auto* h = reg.histogram("sm_q", 0.0, 10.0, 10);
  // Uniform fill: 10 observations per bin. Linear interpolation then
  // lands on exact doubles: p50 = 5.0, p90 = 9.0, p99 = 9.9.
  for (int bin = 0; bin < 10; ++bin) {
    for (int i = 0; i < 10; ++i) h->observe(bin + 0.5);
  }
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.9), 9.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 9.9);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 10.0);

  std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("sm_q{quantile=\"0.5\"} 5"), std::string::npos);
  EXPECT_NE(text.find("sm_q{quantile=\"0.9\"} 9"), std::string::npos);
  EXPECT_NE(text.find("sm_q{quantile=\"0.99\"} 9.9"), std::string::npos);
}

TEST(Registry, EmptyHistogramEmitsNoQuantileLines) {
  obs::Registry reg;
  reg.histogram("sm_empty", 0.0, 1.0, 4);
  EXPECT_EQ(reg.histogram("sm_empty", 0.0, 1.0, 4)->quantile(0.5), 0.0);
  EXPECT_EQ(reg.to_prometheus().find("quantile"), std::string::npos);
}

TEST(Registry, QuantileExpositionIsByteDeterministic) {
  auto build = [] {
    obs::Registry reg;
    auto* h = reg.histogram("sm_lat_seconds", 0.0, 2.0, 8,
                            {{"phase", "run"}}, "trial latency");
    for (int i = 0; i < 97; ++i) h->observe(0.013 * i);
    return reg.to_prometheus();
  };
  EXPECT_EQ(build(), build());
}

TEST(Registry, HistogramObserveAndReset) {
  obs::Registry reg;
  auto* h = reg.histogram("sm_h", 0.0, 4.0, 4);
  for (double x : {0.5, 1.5, 1.6, 3.9}) h->observe(x);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->histogram().bins()[1], 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 7.5);
  h->reset();
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->histogram().bins()[1], 0u);
  // Shape survives the reset.
  EXPECT_DOUBLE_EQ(h->hi(), 4.0);
}

TEST(Registry, DisabledRegistryIsANoOpSink) {
  obs::Registry reg;
  reg.set_enabled(false);
  obs::Counter c = reg.counter("sm_ignored_total");
  c->inc(100);  // goes to the shared dummy, not a series
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_EQ(reg.to_json(), "{\"metrics\":[]}");
  EXPECT_EQ(reg.to_prometheus(), "");
}

// --- Registry merge (campaign deterministic-merge building block) -----

TEST(RegistryMerge, CountersGaugesAndHistogramsCombine) {
  obs::Registry a, b;
  a.counter("c", {{"k", "v"}})->inc(3);
  b.counter("c", {{"k", "v"}})->inc(4);
  b.counter("c", {{"k", "w"}})->inc(1);  // series missing in a
  b.counter("only_b")->inc(9);           // family missing in a
  a.gauge("g")->set(1.5);
  b.gauge("g")->set(2.25);
  a.histogram("h", 0.0, 10.0, 5)->observe(1.0);
  b.histogram("h", 0.0, 10.0, 5)->observe(9.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c", {{"k", "v"}})->value(), 7u);
  EXPECT_EQ(a.counter("c", {{"k", "w"}})->value(), 1u);
  EXPECT_EQ(a.counter("only_b")->value(), 9u);
  EXPECT_DOUBLE_EQ(a.gauge("g")->value(), 3.75);
  auto* h = a.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->histogram().bins()[0], 1u);
  EXPECT_EQ(h->histogram().bins()[4], 1u);
}

TEST(RegistryMerge, MergeOrderDoesNotChangeSnapshotBytes) {
  // Series identity is (name, sorted labels) in ordered maps, so folding
  // the same snapshots in any grouping yields byte-identical JSON — the
  // property the campaign runner's -j1 vs -jN guarantee rests on.
  auto fill = [](obs::Registry& r, uint64_t c, double g) {
    r.counter("sm_x_total", {{"i", "1"}})->inc(c);
    r.gauge("sm_y")->add(g);
    r.histogram("sm_z", 0.0, 1.0, 4)->observe(g / 10.0);
  };
  obs::Registry s1, s2, s3;
  fill(s1, 1, 0.5);
  fill(s2, 2, 1.5);
  fill(s3, 3, 2.5);

  obs::Registry left;  // (s1+s2)+s3
  left.merge(s1);
  left.merge(s2);
  left.merge(s3);
  obs::Registry right;  // s3 folded before s1/s2 creates families first
  right.merge(s3);
  right.merge(s1);
  right.merge(s2);
  EXPECT_EQ(left.to_json(), right.to_json());
  EXPECT_EQ(left.to_prometheus(), right.to_prometheus());
}

TEST(RegistryMerge, KindConflictThrows) {
  obs::Registry a, b;
  a.counter("m")->inc();
  b.gauge("m")->set(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(RegistryMerge, HistogramShapeConflictThrows) {
  obs::Registry a, b;
  a.histogram("h", 0.0, 10.0, 5)->observe(1.0);
  b.histogram("h", 0.0, 10.0, 4)->observe(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(RegistryMerge, EmptyHelpAdoptsTheFirstHelpOffered) {
  obs::Registry a, b, c;
  a.counter("c")->inc();  // registered without help
  a.gauge("g")->set(1.0);
  a.gauge("g", {}, "set by an accessor");  // a later accessor's help
  b.counter("c", {}, "what c counts")->inc(2);
  a.merge(b);
  c.counter("c", {}, "other help")->inc();
  a.merge(c);  // a help text already set is kept
  std::string prom = a.to_prometheus();
  EXPECT_NE(prom.find("# HELP c what c counts\n"), std::string::npos);
  EXPECT_NE(prom.find("# HELP g set by an accessor\n"), std::string::npos);
  EXPECT_EQ(prom.find("other help"), std::string::npos);
  EXPECT_EQ(a.counter("c")->value(), 4u);
}

TEST(RegistryMerge, DisabledTargetIgnoresMerge) {
  obs::Registry a, b;
  a.set_enabled(false);
  b.counter("c")->inc(5);
  a.merge(b);
  a.set_enabled(true);
  EXPECT_EQ(a.series_count(), 0u);
  EXPECT_EQ(a.to_json(), "{\"metrics\":[]}");
}

TEST(HistogramMetricMerge, MomentsAndClampInteraction) {
  obs::HistogramMetric a(0.0, 10.0, 5);
  obs::HistogramMetric b(0.0, 10.0, 5);
  a.observe(2.0);
  a.observe(4.0);
  b.observe(6.0);
  // A non-finite observation clamps into the edge bin but poisons the
  // running moments (NaN mean) — merge must still keep the integer side
  // (count, buckets) exact.
  b.observe(std::numeric_limits<double>::infinity());
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.histogram().bins()[4], 1u);  // +inf clamped high
  EXPECT_EQ(a.moments().count(), 4u);
  EXPECT_TRUE(std::isinf(a.moments().max()));
}

// --- Registry under threads (thread-backend workers) -----------------

const obs::Family kStressFamily{obs::Kind::Counter, "sm_stress_total",
                                "series interned by every thread",
                                {"owner", "slot"}};

TEST(RegistryConcurrency, ThreadsInternEachSeriesOnceAndRenderAlike) {
  // Every thread interns the same 64 labeled series, through a declared
  // family and by name, each in its own order, and 64 series only it
  // uses; it renders while the others are still interning. A shared
  // series must get one id whichever thread interned it first, and the
  // shared registries must serialize alike.
  constexpr int kThreads = 4, kSeries = 64;
  std::vector<std::vector<uint32_t>> shared(kThreads), own(kThreads);
  std::vector<std::string> json(kThreads), prom(kThreads);
  std::vector<std::unique_ptr<obs::Registry>> regs(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      auto reg = std::make_unique<obs::Registry>();
      obs::Registry mine;
      shared[t].resize(kSeries);
      for (int i = 0; i < kSeries; ++i) {
        const int k = (i * 37 + t * 11) % kSeries;
        const std::string slot = std::to_string(k);
        obs::Counter c = reg->counter(kStressFamily, {"all", slot});
        c->inc(static_cast<uint64_t>(k));
        shared[t][k] = c.id();
        reg->counter("sm_stress_named_total", {{"slot", slot}}, "by name")
            ->inc(static_cast<uint64_t>(k));
        own[t].push_back(
            mine.counter(kStressFamily, {"t" + std::to_string(t), slot})
                .id());
        if (i % 16 == 0) mine.to_json();  // render mid-way
      }
      json[t] = reg->to_json();
      prom[t] = reg->to_prometheus();
      regs[t] = std::move(reg);
    });
  }
  for (auto& th : pool) th.join();
  std::set<uint32_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared[t], shared[0]) << t;
    EXPECT_EQ(json[t], json[0]) << t;
    EXPECT_EQ(prom[t], prom[0]) << t;
    ids.insert(own[t].begin(), own[t].end());
  }
  ids.insert(shared[0].begin(), shared[0].end());
  EXPECT_EQ(ids.size(), size_t{kSeries * (kThreads + 1)});  // all distinct
  obs::Registry merged;
  for (const auto& reg : regs) merged.merge(*reg);
  EXPECT_EQ(merged.counter(kStressFamily, {"all", "63"})->value(),
            uint64_t{63 * kThreads});
  EXPECT_EQ(merged.series_count(), size_t{2 * kSeries});
}

// --- netsim::Engine instrumentation -----------------------------------

TEST(EngineObservability, MetricsExport) {
  netsim::Engine engine;
  int fired = 0;
  engine.schedule(Duration::millis(1), [&] { ++fired; });
  engine.schedule(Duration::millis(2), [&] { ++fired; });
  engine.run_until(SimTime(Duration::millis(5).count()));
  EXPECT_EQ(fired, 2);

  obs::Registry reg;
  engine.export_metrics(reg);
  EXPECT_EQ(reg.counter("sm_netsim_events_executed_total")->value(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("sm_netsim_queue_high_water")->value(), 2.0);
}

// --- TraceTap cap ------------------------------------------------------

TEST(TraceTapCap, DropsOldestAndCounts) {
  netsim::Engine engine;
  netsim::Router router(engine, "r");
  netsim::TraceTap tap;
  tap.set_max_records(3);

  auto send = [&](uint16_t sport) {
    packet::Packet p = packet::make_tcp(
        common::Ipv4Address(10, 0, 0, 1), common::Ipv4Address(10, 0, 0, 2),
        sport, 80, packet::TcpFlags::kSyn, 1, 0);
    common::Bytes wire = p.data();
    auto decoded = packet::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    netsim::TapContext ctx{engine.now(), packet::PacketView(wire, *decoded),
                           0, 1};
    tap.process(ctx, router);
  };
  for (uint16_t i = 0; i < 5; ++i) send(static_cast<uint16_t>(1000 + i));
  EXPECT_EQ(tap.size(), 3u);
  EXPECT_EQ(tap.dropped(), 2u);
  EXPECT_EQ(tap.max_records(), 3u);

  // Tightening the cap sheds immediately.
  tap.set_max_records(1);
  EXPECT_EQ(tap.size(), 1u);
  EXPECT_EQ(tap.dropped(), 4u);

  // 0 removes the bound again.
  tap.set_max_records(0);
  for (uint16_t i = 0; i < 5; ++i) send(static_cast<uint16_t>(2000 + i));
  EXPECT_EQ(tap.size(), 6u);
  EXPECT_EQ(tap.dropped(), 4u);
}

TEST(TraceTapCap, WrappedCaptureIsOrderedAndExportsDeterministically) {
  auto capture = [](const std::string& path) {
    netsim::Engine engine;
    netsim::Router router(engine, "r");
    netsim::TraceTap tap;
    tap.set_max_records(4);
    std::vector<uint16_t> retained_ports;
    for (uint16_t i = 0; i < 11; ++i) {
      packet::Packet p = packet::make_tcp(
          common::Ipv4Address(10, 0, 0, 1),
          common::Ipv4Address(10, 0, 0, 2),
          static_cast<uint16_t>(1000 + i), 80, packet::TcpFlags::kSyn, 1,
          0);
      common::Bytes wire = p.data();
      auto decoded = packet::decode(wire);
      EXPECT_TRUE(decoded.has_value());
      netsim::TapContext ctx{engine.now(),
                             packet::PacketView(wire, *decoded), 0, 1};
      tap.process(ctx, router);
    }
    EXPECT_EQ(tap.size(), 4u);
    EXPECT_EQ(tap.dropped(), 7u);
    // Oldest-first after the wrap: the 4 newest packets, in send order.
    for (size_t r = 0; r < tap.records().size(); ++r) {
      auto decoded = packet::decode(tap.records()[r].data);
      ASSERT_TRUE(decoded.has_value() && decoded->tcp);
      EXPECT_EQ(decoded->tcp->src_port, 1007 + r);
    }
    EXPECT_TRUE(tap.save(path));
  };
  std::string a = ::testing::TempDir() + "wrap_a.pcap";
  std::string b = ::testing::TempDir() + "wrap_b.pcap";
  capture(a);
  capture(b);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                      std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// --- Logging sink ------------------------------------------------------

TEST(LoggingSink, CapturesAndRestores) {
  using common::LogLevel;
  std::vector<std::string> captured;
  common::set_log_level(LogLevel::Info);
  common::set_log_sink([&](LogLevel, const std::string& component,
                           const std::string& message) {
    captured.push_back(component + ": " + message);
  });
  EXPECT_TRUE(common::log_enabled(LogLevel::Warn));
  EXPECT_FALSE(common::log_enabled(LogLevel::Debug));
  common::log_info("obs", "hello");
  common::log_debug("obs", "filtered out");
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "obs: hello");

  common::set_log_level(LogLevel::Off);
  EXPECT_FALSE(common::log_enabled(LogLevel::Error));
  common::log_error("obs", "muted");
  EXPECT_EQ(captured.size(), 1u);

  common::set_log_sink(nullptr);
  common::set_log_level(LogLevel::Warn);
}

// --- Full-campaign integration ----------------------------------------

core::TestbedConfig observed_config() {
  core::TestbedConfig config;
  config.policy = censor::gfc_profile();
  config.policy.blocked_ips.push_back(core::TestbedAddresses{}.web_blocked);
  config.neighbor_count = 4;
  config.enable_observability = true;
  config.enable_provenance = true;
  return config;
}

core::ProbeReport run_scan(core::Testbed& tb) {
  core::ScanOptions options;
  options.target = tb.addr().web_blocked;
  options.ports = core::top_tcp_ports(20);
  options.expected_open = {80};
  core::ScanProbe probe(tb, options);
  return core::run_probe(tb, probe);
}

TEST(ObservedCampaign, SameSeedSnapshotsAreByteIdentical) {
  std::string json[2], trace[2], prom[2];
  for (int i = 0; i < 2; ++i) {
    core::Testbed tb(observed_config());
    run_scan(tb);
    json[i] = tb.metrics_json();
    prom[i] = tb.metrics_snapshot().to_prometheus();
    trace[i] = obs::to_chrome_json(tb.provenance());
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(prom[0], prom[1]);
  EXPECT_EQ(trace[0], trace[1]);
  EXPECT_TRUE(common::Json::parse(json[0]));
  EXPECT_TRUE(common::Json::parse(trace[0]));
  // The snapshot bridged every layer.
  EXPECT_NE(json[0].find("sm_netsim_events_executed_total"),
            std::string::npos);
  EXPECT_NE(json[0].find("sm_router_forwarded_total"), std::string::npos);
  EXPECT_NE(json[0].find("\"instance\":\"mvr\""), std::string::npos);
  EXPECT_NE(json[0].find("\"instance\":\"censor\""), std::string::npos);
  EXPECT_NE(json[0].find("sm_probe_runs_total"), std::string::npos);
  EXPECT_NE(trace[0].find("\"name\":\"scan\",\"cat\":\"probe\""),
            std::string::npos);
}

TEST(ObservedCampaign, SnapshotIsIdempotent) {
  core::Testbed tb(observed_config());
  run_scan(tb);
  std::string first = tb.metrics_json();
  std::string second = tb.metrics_json();  // re-snapshot, no new traffic
  EXPECT_EQ(first, second);
}

TEST(ObservedCampaign, EnablingObservabilityChangesNoBehaviour) {
  core::TestbedConfig on = observed_config();
  core::TestbedConfig off = observed_config();
  off.enable_observability = false;
  off.enable_provenance = false;

  core::Testbed tb_on(on);
  core::Testbed tb_off(off);
  core::ProbeReport r_on = run_scan(tb_on);
  core::ProbeReport r_off = run_scan(tb_off);

  EXPECT_EQ(r_on.verdict, r_off.verdict);
  EXPECT_EQ(r_on.detail, r_off.detail);
  EXPECT_EQ(r_on.packets_sent, r_off.packets_sent);
  EXPECT_EQ(tb_on.mvr->stats().packets_seen, tb_off.mvr->stats().packets_seen);
  EXPECT_EQ(tb_on.mvr->stats().interesting_alerts,
            tb_off.mvr->stats().interesting_alerts);
  EXPECT_EQ(tb_on.censor_tap->stats().packets_seen,
            tb_off.censor_tap->stats().packets_seen);
  EXPECT_EQ(tb_on.net.engine().executed(), tb_off.net.engine().executed());
  EXPECT_EQ(tb_on.net.engine().now(), tb_off.net.engine().now());

  // And the disabled side exported nothing.
  EXPECT_EQ(tb_off.metrics_json(), "{\"metrics\":[]}");
  EXPECT_EQ(tb_off.provenance().total(), 0u);
}

// --- Surveillance export goldens --------------------------------------
//
// The map→open-addressing swap in src/surveillance must not move a byte
// of any export surface. These fixtures were generated while the hot
// paths still used std::map and are the regression proof: MVR metrics
// (JSON + Prometheus) and the flow-record JSONL ledger from a fixed
// seeded scenario must stay byte-identical. Regenerate only for an
// *intentional* format change: UPDATE_GOLDEN=1 ./build/tests/test_obs

std::string obs_golden_path(const std::string& name) {
  return std::string(SM_TEST_DIR) + "/golden/" + name;
}

void obs_check_golden(const std::string& name, const std::string& actual) {
  const std::string path = obs_golden_path(name);
  if (std::getenv("UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (run with UPDATE_GOLDEN=1 to create it)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "surveillance export drifted from " << path
      << "; container iteration order must never reach an output — if the "
         "format change is intentional, regenerate with UPDATE_GOLDEN=1";
}

/// A fixed scenario that pushes traffic through every classifier bucket
/// and alert path: web (some touching censored content), an overt
/// measurement probe, DNS, spam, p2p, and a port scanner — from several
/// sources so the per-user ledgers and flow table hold many keys, with
/// an idle gap mid-run so flush_idle emits a batch before flush_all.
std::unique_ptr<surveillance::MvrTap> run_surveillance_scenario(
    netsim::Network& net) {
  using common::Ipv4Address;
  using packet::TcpFlags;
  auto* router = net.add_router("r");
  surveillance::MvrConfig cfg;
  cfg.content_retention_fraction = 0.075;
  auto mvr = std::make_unique<surveillance::MvrTap>(cfg);
  router->add_tap(mvr.get());

  auto* server = net.add_host("srv", Ipv4Address(198, 18, 0, 80));
  net.connect(server, router);
  std::vector<netsim::Host*> users;
  for (int i = 0; i < 6; ++i) {
    users.push_back(net.add_host("u" + std::to_string(i),
                                 Ipv4Address(10, 1, 0, 10 + i)));
    net.connect(users.back(), router);
  }

  // Web chatter from every user; u1 and u4 touch censored content
  // (policy-violation), u2 runs an overt measurement probe.
  for (int i = 0; i < 6; ++i) {
    std::string payload = "GET /news HTTP/1.1\r\nHost: example\r\n";
    if (i == 1 || i == 4) payload = "GET /falun HTTP/1.1\r\nHost: x\r\n";
    if (i == 2)
      payload = "GET / HTTP/1.1\r\nUser-Agent: OONI-Probe/3.0\r\n";
    users[i]->send(packet::make_tcp(
        users[i]->address(), server->address(),
        static_cast<uint16_t>(30000 + i), 80, TcpFlags::kAck, 1, 1,
        common::to_bytes(payload)));
  }
  // DNS from u0, spam from u3 (noise alert), p2p from u5 (discarded).
  users[0]->send_udp(server->address(), 5353, 53,
                     common::to_bytes("\x01\x02query"));
  users[3]->send(packet::make_tcp(
      users[3]->address(), server->address(), 2525, 25, TcpFlags::kAck, 1,
      1, common::to_bytes("MAIL FROM:<spam@bulk.example>\r\n")));
  for (int i = 0; i < 3; ++i) {
    users[5]->send_udp(server->address(), 6881, 6881,
                       common::to_bytes("d1:ad2:id20:aabbccddeeff00112233"));
  }
  // u4 also scans: SYNs to 30 distinct ports.
  for (int p = 0; p < 30; ++p) {
    users[4]->send(packet::make_tcp(users[4]->address(), server->address(),
                                    41000, static_cast<uint16_t>(1000 + p),
                                    TcpFlags::kSyn, 0, 0));
  }
  net.run_for(Duration::seconds(1));

  // Idle past the flow timeout, then a second wave so flush_idle runs
  // with the first wave's flows expired.
  for (int i = 0; i < 3; ++i) {
    users[i]->send(packet::make_tcp(
        users[i]->address(), server->address(),
        static_cast<uint16_t>(30100 + i), 443, TcpFlags::kAck, 1, 1,
        common::to_bytes("wave2")));
  }
  net.run_for(Duration::seconds(90));
  for (int i = 0; i < 3; ++i) {
    users[i]->send(packet::make_tcp(
        users[i]->address(), server->address(),
        static_cast<uint16_t>(30200 + i), 443, TcpFlags::kAck, 1, 1,
        common::to_bytes("wave3")));
  }
  net.run_for(Duration::seconds(1));
  mvr->flow_records().flush_all();
  return mvr;
}

TEST(SurveillanceGolden, MvrMetricsJsonAndPrometheus) {
  netsim::Network net;
  auto mvr = run_surveillance_scenario(net);
  obs::Registry registry;
  mvr->export_metrics(registry);
  obs_check_golden("mvr_metrics.json", registry.to_json());
  obs_check_golden("mvr_metrics.prom", registry.to_prometheus());
}

TEST(SurveillanceGolden, FlowRecordLedgerJsonl) {
  netsim::Network net;
  auto mvr = run_surveillance_scenario(net);
  const auto& flows = mvr->flow_records();
  EXPECT_GT(flows.finished().size(), 10u);
  obs_check_golden("mvr_flows.jsonl", flows.finished_jsonl());
}

// --- Registry handover: a trial's registry, not a copy of it ----------

/// Reference for Registry::merge: every series of `src` re-registered
/// through the public accessors, which sort its labels and build the
/// family and series keys anew. It walks src's encode() bytes, the one
/// public view of every series.
void reference_merge(obs::Registry& dst, const obs::Registry& src) {
  common::ByteWriter w;
  src.encode(w);
  common::ByteReader r(w.data());
  auto str = [&r] { return r.text(r.u32()); };
  auto f64 = [&r] { return std::bit_cast<double>(r.u64()); };
  for (uint32_t f = r.u32(); f > 0; --f) {
    std::string name = str();
    uint8_t kind = r.u8();
    std::string help = str();
    for (uint32_t n = r.u32(); n > 0; --n) {
      obs::Labels labels(r.u32());
      for (auto& [k, v] : labels) {
        k = str();
        v = str();
      }
      if (kind == 0) {
        dst.counter(name, labels, help)->inc(r.u64());
      } else if (kind == 1) {
        dst.gauge(name, labels, help)->add(f64());
      } else {
        double lo = f64();
        double hi = f64();
        std::vector<size_t> bins(r.u32());
        for (size_t& b : bins) b = r.u64();
        size_t count = r.u64();
        double mean = f64();
        double m2 = f64();
        double min = f64();
        double max = f64();
        obs::HistogramMetric h(lo, hi, bins.size());
        h.restore(common::Histogram::from_parts(lo, hi, bins),
                  common::OnlineStats::from_parts(count, mean, m2, min, max));
        dst.histogram(name, lo, hi, bins.size(), labels, help)->merge(h);
      }
    }
  }
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.remaining(), 0u);
}

common::Bytes encoded(const obs::Registry& reg) {
  common::ByteWriter w;
  reg.encode(w);
  return w.data();
}

void expect_same_bytes(const obs::Registry& a, const obs::Registry& b,
                       const std::string& what) {
  EXPECT_EQ(a.to_json(), b.to_json()) << what;
  EXPECT_EQ(a.to_prometheus(), b.to_prometheus()) << what;
  EXPECT_EQ(encoded(a), encoded(b)) << what;
}

TEST(RegistryHandover, ReleasedRegistryMatchesTheMergedCopy) {
  // Every observability trial of synthetic:1024 (one in four). A trial
  // hands on its Testbed's registry itself, which must serialize to the
  // same bytes as a merged copy of it, and folding the snapshots into a
  // campaign registry must give what the reference merge gives.
  const auto trials = campaign::build_workload("synthetic:1024");
  const campaign::CampaignOptions options;
  std::vector<std::unique_ptr<obs::Registry>> snapshots;
  for (size_t i = 0; i < trials.size(); ++i) {
    if (!trials[i].config.enable_observability) continue;
    core::TestbedConfig config = trials[i].config;
    const uint64_t seed = options.campaign_seed;
    config.sav_seed = campaign::trial_seed(seed, i, 0);
    config.mvr.sampling_seed = campaign::trial_seed(seed, i, 1);
    config.netsim_seed = campaign::trial_seed(seed, i, 2);
    core::Testbed tb(config);
    auto probe = trials[i].factory(tb);
    core::run_probe(tb, *probe, trials[i].probe_timeout);
    tb.run_for(trials[i].drain);
    core::assess_risk(tb, trials[i].name);

    obs::Registry copy;
    reference_merge(copy, tb.metrics_snapshot());
    std::unique_ptr<obs::Registry> released = tb.release_metrics();
    const std::string what = "trial " + std::to_string(i);
    expect_same_bytes(*released, copy, what);
    // The testbed keeps an empty, disabled registry.
    EXPECT_FALSE(tb.metrics().enabled()) << what;
    EXPECT_EQ(tb.metrics().series_count(), 0u) << what;

    // execute_trial hands on the same registry.
    campaign::TrialResult slot;
    std::unique_ptr<obs::Registry> executed;
    campaign::execute_trial(trials[i], i, options, slot, &executed);
    ASSERT_TRUE(executed) << what;
    expect_same_bytes(*executed, *released, what);
    snapshots.push_back(std::move(released));
  }
  ASSERT_EQ(snapshots.size(), 256u);

  // Twice over, so the second pass finds every family and series.
  obs::Registry merged, reference;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& snapshot : snapshots) {
      merged.merge(*snapshot);
      reference_merge(reference, *snapshot);
    }
  }
  expect_same_bytes(merged, reference, "campaign merge");
}

TEST(ObservedCampaign, JsonlCarriesMetricsBlock) {
  core::Testbed tb(observed_config());
  core::ProbeReport report = run_scan(tb);
  core::RiskReport risk = core::assess_risk(tb, report.technique);
  std::string jsonl = core::to_jsonl({{report, risk}}) +
                      tb.metrics_snapshot().to_json() + "\n";
  // Two lines: the measurement row and the metrics block.
  size_t newlines = 0;
  for (char c : jsonl) newlines += c == '\n';
  EXPECT_EQ(newlines, 2u);
  EXPECT_NE(jsonl.find("{\"measurement\":"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"metrics\":["), std::string::npos);
}

}  // namespace
}  // namespace sm
