// The provenance layer: causal event graph, alert attribution, the
// explain narrative, the Chrome trace export, and the end-to-end
// byte-determinism contract.
//
// The graph is the observability tentpole behind every verdict: probe
// attempts cause packets, packets cause per-hop and tap events, stored
// MVR alerts hang off the packet that triggered them, and the verdict
// references the evidence conclude() used. These tests pin (a) the ring
// mechanics, (b) chain walking and attribution through real testbed
// runs, (c) byte-identical export across campaign thread counts and
// shard modes, (d) the Chrome trace view's spans, tids and instants, and
// (e) the checked-in golden fixtures for censored and clean E2-style
// scenarios.
//
// Regenerate fixtures after an intentional format change:
//   UPDATE_GOLDEN=1 ./build/tests/test_provenance
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "censor/gfc.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/ping.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/synprobe.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "simcheck/json.hpp"

using namespace sm;
using common::SimTime;
using obs::ProvenanceGraph;
using obs::ProvKind;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(SM_TEST_DIR) + "/golden/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
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
      << "provenance export drifted from " << path
      << "; if intentional, regenerate with UPDATE_GOLDEN=1 and review "
         "the fixture diff";
}

core::TestbedConfig prov_config() {
  core::TestbedConfig cfg;
  cfg.enable_provenance = true;
  return cfg;
}

/// The censored E2 cell behind provenance_censored.json: an overt HTTP
/// fetch of the keyword-RST'd site, then a 2 s drain.
void run_censored_overt_http(core::Testbed& tb) {
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
}

/// Structural checks on the Chrome export of `g`: no raw control byte,
/// it parses, each probe span has a tid of its own, every attempt span
/// lies inside the probe span on its tid (tid 0 when its probe-start was
/// evicted), and every event that is neither a probe-start nor an
/// attempt is one instant. Returns the number of probe spans.
size_t expect_chrome_shape(const ProvenanceGraph& g) {
  const std::string json = obs::to_chrome_json(g);
  EXPECT_TRUE(std::all_of(json.begin(), json.end(),
                          [](unsigned char c) { return c >= 0x20; }));
  auto doc = simcheck::Json::parse(json);
  if (!doc || !doc->get("traceEvents")) {
    ADD_FAILURE() << "Chrome export does not parse: " << json;
    return 0;
  }
  auto ns = [](const simcheck::Json& ev, const char* key) {
    return std::llround(ev.get(key)->as_double() * 1000);
  };
  // Events come in id order, so a probe's span precedes its attempts.
  std::map<int64_t, std::pair<int64_t, int64_t>> probes;  // tid -> span
  size_t instants = 0;
  for (const simcheck::Json& ev : doc->get("traceEvents")->items()) {
    const int64_t tid = ev.get("tid")->as_int();
    if (ev.get("ph")->as_string() == "i") {
      ++instants;
      continue;
    }
    const int64_t begin = ns(ev, "ts"), end = begin + ns(ev, "dur");
    if (ev.get("cat")->as_string() == "probe") {
      EXPECT_TRUE(probes.emplace(tid, std::pair{begin, end}).second)
          << "two probe spans on tid " << tid;
    } else if (auto probe = probes.find(tid); probe != probes.end()) {
      EXPECT_GE(begin, probe->second.first);
      EXPECT_LE(end, probe->second.second);
    } else {
      EXPECT_EQ(tid, 0) << "attempt span on tid " << tid << " has no probe";
    }
  }
  size_t spans = 0;
  for (const obs::ProvEvent& ev : g.events())
    spans += ev.kind == ProvKind::ProbeStart || ev.kind == ProvKind::Attempt;
  EXPECT_EQ(instants, g.size() - spans);
  return probes.size();
}

}  // namespace

// --- Graph mechanics ---------------------------------------------------

TEST(ProvenanceGraph, RecordAssignsDenseIdsAndKeepsLinks) {
  ProvenanceGraph g;
  uint64_t start = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "ping",
                            "10.0.0.2");
  uint64_t attempt =
      g.record(ProvKind::Attempt, SimTime(10), start, 0, "attempt", "1");
  uint64_t pkt = g.record(ProvKind::PacketSent, SimTime(20), attempt, 0,
                          "icmp echo");
  EXPECT_EQ(start, 1u);
  EXPECT_EQ(attempt, 2u);
  EXPECT_EQ(pkt, 3u);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.total(), 3u);
  ASSERT_NE(g.find(pkt), nullptr);
  EXPECT_EQ(g.find(pkt)->cause, attempt);
  EXPECT_EQ(g.chain(pkt), (std::vector<uint64_t>{pkt, attempt, start}));
  EXPECT_EQ(g.root_of(pkt), start);
  EXPECT_EQ(g.root_of(start), start);
}

TEST(ProvenanceGraph, RingDropsOldestAndCountsExactly) {
  ProvenanceGraph g(4);
  for (int i = 0; i < 10; ++i) {
    g.record(ProvKind::Forward, SimTime(i), 0, 0,
             "r" + std::to_string(i));
  }
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.total(), 10u);
  EXPECT_EQ(g.dropped(), 6u);
  auto events = g.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained is id 7 (events 1..6 fell off); order chronological.
  EXPECT_EQ(events.front().id, 7u);
  EXPECT_EQ(events.back().id, 10u);
  // Evicted ids are gone, retained ones still resolve.
  EXPECT_EQ(g.find(3), nullptr);
  ASSERT_NE(g.find(8), nullptr);
  EXPECT_EQ(g.find(8)->what, "r7");
}

TEST(ProvenanceGraph, ChainStopsAtEvictedAncestor) {
  ProvenanceGraph g(3);
  uint64_t a = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "a");
  uint64_t b = g.record(ProvKind::Attempt, SimTime(1), a, 0, "b");
  uint64_t c = g.record(ProvKind::PacketSent, SimTime(2), b, 0, "c");
  uint64_t d = g.record(ProvKind::Forward, SimTime(3), c, 0, "d");
  // `a` has been evicted (capacity 3); the chain walks to the last
  // retained ancestor and root_of reports it.
  EXPECT_EQ(g.chain(d), (std::vector<uint64_t>{d, c, b}));
  EXPECT_EQ(g.root_of(d), b);
}

TEST(ProvenanceGraph, ExportAfterWrapIsDeterministic) {
  auto build = [] {
    ProvenanceGraph g(8);
    for (int i = 0; i < 40; ++i) {
      g.record(i % 2 ? ProvKind::Forward : ProvKind::Drop, SimTime(i * 5),
               static_cast<uint64_t>(i), 0, "hop", "detail");
    }
    return g.to_json();
  };
  std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_NE(first.find("\"dropped\":32"), std::string::npos);
  EXPECT_NE(first.find("\"total\":40"), std::string::npos);
}

TEST(ProvenanceGraph, AppendRawRebuildsIdenticalExport) {
  ProvenanceGraph g;
  uint64_t s = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "syn-reach",
                        "10.0.0.2:80");
  uint64_t a = g.record(ProvKind::Attempt, SimTime(100), s, 0, "attempt",
                        "1");
  uint64_t p = g.record(ProvKind::PacketSent, SimTime(200), a, 0,
                        "tcp 10.0.0.1:50000>10.0.0.2:80");
  uint64_t e = g.record(ProvKind::Evidence, SimTime(300), a, p, "syn-ack");
  g.record_verdict(SimTime(400), s, "reachable", "open confirmed", {e});

  ProvenanceGraph rebuilt;
  for (const obs::ProvEvent& ev : g.events()) rebuilt.append_raw(ev);
  EXPECT_EQ(rebuilt.to_json(), g.to_json());
  EXPECT_EQ(rebuilt.root_of(e), s);
}

TEST(ProvenanceGraph, AppendRawCountsIdGapsAsDrops) {
  ProvenanceGraph g;
  obs::ProvEvent ev;
  ev.id = 5;  // events 1..4 were dropped before export
  ev.kind = ProvKind::Forward;
  ev.what = "hop";
  g.append_raw(ev);
  EXPECT_EQ(g.total(), 5u);
  EXPECT_EQ(g.dropped(), 4u);
}

TEST(ProvenanceGraph, KindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(ProvKind::Verdict); ++k) {
    auto kind = static_cast<ProvKind>(k);
    auto parsed = obs::prov_kind_from_string(obs::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << obs::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::prov_kind_from_string("no-such-kind").has_value());
}

TEST(ProvenanceGraph, SummarizeWire) {
  packet::Packet p = packet::make_tcp(
      common::Ipv4Address(10, 0, 0, 1), common::Ipv4Address(10, 0, 0, 2),
      1234, 80, packet::TcpFlags::kSyn, 1, 0);
  EXPECT_EQ(obs::summarize_wire(p.data().data(), p.size()),
            "tcp 10.0.0.1:1234>10.0.0.2:80");
  uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(obs::summarize_wire(garbage, sizeof(garbage)), "raw");
}

// --- Chrome trace export ----------------------------------------------

TEST(ChromeExport, HandBuiltGraphRendersSpansAndInstants) {
  ProvenanceGraph g;
  uint64_t s = g.record(ProvKind::ProbeStart, SimTime(1000), 0, 0,
                        "syn-reach", "10.0.0.2:80");
  uint64_t a1 = g.record(ProvKind::Attempt, SimTime(2000), s, 0, "attempt",
                         "1");
  uint64_t p = g.record(ProvKind::PacketSent, SimTime(2500), a1, 0,
                        "tcp 10.0.0.1:5>10.0.0.2:80");
  uint64_t a2 = g.record(ProvKind::Attempt, SimTime(5000), s, 0, "attempt",
                         "2");
  uint64_t e = g.record(ProvKind::Evidence, SimTime(6000), a2, p, "rst");
  g.record_verdict(SimTime(7250), s, "blocked-rst", "likely", {e});
  g.record(ProvKind::Forward, SimTime(8000), 0, 0, "background");
  EXPECT_EQ(
      obs::to_chrome_json(g),
      "{\"traceEvents\":["
      "{\"name\":\"syn-reach\",\"cat\":\"probe\",\"ph\":\"X\",\"ts\":1.000,"
      "\"dur\":6.250,\"pid\":1,\"tid\":1,\"args\":{\"technique\":\"syn-reach\","
      "\"target\":\"10.0.0.2:80\",\"verdict\":\"blocked-rst\","
      "\"confidence\":\"likely\"}},"
      "{\"name\":\"attempt 1\",\"cat\":\"attempt\",\"ph\":\"X\",\"ts\":2.000,"
      "\"dur\":3.000,\"pid\":1,\"tid\":1,\"args\":{\"id\":2}},"
      "{\"name\":\"packet\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":2.500,\"pid\":1,\"tid\":1,\"args\":{\"id\":3,\"cause\":2,"
      "\"packet\":0,\"what\":\"tcp 10.0.0.1:5>10.0.0.2:80\",\"detail\":\"\"}},"
      "{\"name\":\"attempt 2\",\"cat\":\"attempt\",\"ph\":\"X\",\"ts\":5.000,"
      "\"dur\":2.250,\"pid\":1,\"tid\":1,\"args\":{\"id\":4}},"
      "{\"name\":\"evidence\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":6.000,\"pid\":1,\"tid\":1,\"args\":{\"id\":5,\"cause\":4,"
      "\"packet\":3,\"what\":\"rst\",\"detail\":\"\"}},"
      "{\"name\":\"verdict\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":7.250,\"pid\":1,\"tid\":1,\"args\":{\"id\":6,\"cause\":1,"
      "\"packet\":0,\"what\":\"blocked-rst\",\"detail\":\"likely\"}},"
      "{\"name\":\"forward\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":8.000,\"pid\":1,\"tid\":0,\"args\":{\"id\":7,\"cause\":0,"
      "\"packet\":0,\"what\":\"background\",\"detail\":\"\"}}"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim\","
      "\"total\":7,\"dropped\":0}}");
  EXPECT_EQ(expect_chrome_shape(g), 1u);
}

TEST(ChromeExport, EvictedProbeStartMovesItsEventsToTidZero) {
  ProvenanceGraph g(3);
  uint64_t s = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "syn");
  uint64_t a = g.record(ProvKind::Attempt, SimTime(1000), s, 0, "attempt",
                        "1");
  uint64_t p = g.record(ProvKind::PacketSent, SimTime(2000), a, 0, "tcp");
  g.record(ProvKind::Forward, SimTime(4000), p, p, "hop");
  // The probe-start fell off the ring: the orphaned attempt still spans
  // (to the newest event, with no verdict to end it), on tid 0.
  const std::string json = obs::to_chrome_json(g);
  EXPECT_NE(json.find("\"name\":\"attempt 1\",\"cat\":\"attempt\",\"ph\":\"X\","
                      "\"ts\":1.000,\"dur\":3.000,\"pid\":1,\"tid\":0"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"tid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":4,\"dropped\":1"), std::string::npos) << json;
  EXPECT_EQ(expect_chrome_shape(g), 0u);
}

TEST(ExportEscaping, ControlCharactersRoundTrip) {
  // RFC 8259 forbids raw control bytes inside strings; every JSON export
  // escapes them through common::json_escape and parses back exactly.
  const std::string nasty = "\t\r\x01";
  obs::Registry reg;
  reg.counter("sm_test_total", {{"label", nasty}})->inc();
  ProvenanceGraph g;
  g.record(ProvKind::Evidence, SimTime(0), 0, 0, "what", nasty);
  for (const std::string& json :
       {reg.to_json(), g.to_json(), obs::to_chrome_json(g)}) {
    for (char c : json) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
    ASSERT_TRUE(simcheck::Json::parse(json)) << json;
  }
  auto metrics = simcheck::Json::parse(reg.to_json());
  EXPECT_EQ(metrics->get("metrics")->items()[0].get("labels")->get("label")
                ->as_string(),
            nasty);
  auto prov = simcheck::Json::parse(g.to_json());
  EXPECT_EQ(prov->get("events")->items()[0].get("detail")->as_string(),
            nasty);
  auto chrome = simcheck::Json::parse(obs::to_chrome_json(g));
  EXPECT_EQ(chrome->get("traceEvents")->items()[0].get("args")->get("detail")
                ->as_string(),
            nasty);
}

// --- Through the testbed ----------------------------------------------

TEST(ProvenanceTestbed, DisabledByDefaultAndCostsNoEvents) {
  core::Testbed tb;
  EXPECT_EQ(tb.prov_sink(), nullptr);
  core::OvertDnsProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  EXPECT_EQ(tb.provenance_json(), "");
  EXPECT_EQ(tb.provenance().total(), 0u);
}

TEST(ProvenanceTestbed, VerdictCarriesEvidenceChain) {
  core::Testbed tb(prov_config());
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_open, .port = 80});
  core::run_probe(tb, probe);
  const ProvenanceGraph& g = tb.provenance();
  ASSERT_GT(g.size(), 0u);

  const obs::ProvEvent* verdict = nullptr;
  const obs::ProvEvent* start = nullptr;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::Verdict) verdict = g.find(ev.id);
    if (ev.kind == ProvKind::ProbeStart) start = g.find(ev.id);
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->what, "reachable");
  EXPECT_EQ(verdict->cause, start->id);
  ASSERT_FALSE(verdict->refs.empty());
  // Every evidence ref chains back to the probe start.
  for (uint64_t ref : verdict->refs) {
    EXPECT_EQ(g.root_of(ref), start->id) << "evidence " << ref;
  }
  // The syn-ack evidence is packet-scoped? At minimum the probe's SYN
  // is in the graph as a PacketSent caused by the attempt.
  bool saw_probe_packet = false;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::PacketSent && g.root_of(ev.id) == start->id)
      saw_probe_packet = true;
  }
  EXPECT_TRUE(saw_probe_packet);
}

TEST(ProvenanceTestbed, CensorInjectionChainsToTriggeringPacket) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example"});
  core::ProbeReport report = core::run_probe(tb, probe);
  EXPECT_EQ(report.verdict, core::Verdict::BlockedRst);
  const ProvenanceGraph& g = tb.provenance();

  // The censor's keyword-rst action must reference the packet that
  // tripped the rule, and that packet must trace back to the probe.
  const obs::ProvEvent* censor = nullptr;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::CensorAction && ev.what == "keyword-rst")
      censor = g.find(ev.id);
  }
  ASSERT_NE(censor, nullptr);
  ASSERT_NE(censor->cause, 0u);
  const obs::ProvEvent* trigger = g.find(censor->cause);
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->kind, ProvKind::PacketSent);
  const obs::ProvEvent* root = g.find(g.root_of(censor->id));
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, ProvKind::ProbeStart);
}

TEST(ProvenanceTestbed, StoredAlertsResolveToCausingPackets) {
  // The acceptance scenario: a mimicry probe fetching a censored
  // keyword, with MVR surveillance watching. Every stored alert must
  // resolve through the graph to the packet that triggered it.
  core::TestbedConfig cfg = prov_config();
  core::Testbed tb(cfg);
  core::StatefulMimicryProbe probe(tb,
                                   {.path = "/search?q=falun",
                                    .cover_flows = 3});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));

  const ProvenanceGraph& g = tb.provenance();
  auto attributions = obs::attribute_alerts(g);
  // One AlertStored event per stored (non-noise) alert, MVR-wide —
  // the risk report's per-client counts are a subset of these.
  EXPECT_EQ(attributions.size(), tb.mvr->stats().interesting_alerts);
  for (const obs::AlertAttribution& a : attributions) {
    EXPECT_NE(a.packet, 0u) << "alert event " << a.alert
                            << " does not resolve to a packet";
    ASSERT_NE(g.find(a.packet), nullptr);
    EXPECT_EQ(g.find(a.packet)->kind, ProvKind::PacketSent);
    EXPECT_NE(a.root, 0u);
  }
  // The keyword flows are client traffic: at least one alert must be
  // probe-caused and the explain narrative must say so.
  if (!attributions.empty()) {
    std::string text = obs::explain_text(g);
    EXPECT_NE(text.find("alerts:"), std::string::npos);
  }
}

TEST(ProvenanceTestbed, OvertProbeAlertsAreProbeCaused) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example",
                                  .user_agent = "OONI-Probe/2.0"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  core::RiskReport risk = core::assess_risk(tb, "overt-http");
  ASSERT_GT(risk.targeted_alerts, 0u);

  auto attributions = obs::attribute_alerts(tb.provenance());
  ASSERT_FALSE(attributions.empty());
  size_t probe_caused = 0;
  for (const obs::AlertAttribution& a : attributions) {
    EXPECT_NE(a.packet, 0u);
    if (a.probe_caused) ++probe_caused;
  }
  EXPECT_GT(probe_caused, 0u)
      << "no stored alert chains back to the overt probe";
}

TEST(ProvenanceTestbed, ExplainTextRendersVerdictAndAlerts) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example",
                                  .user_agent = "OONI-Probe/2.0"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  std::string text = obs::explain_text(tb.provenance());
  EXPECT_NE(text.find("verdict"), std::string::npos) << text;
  EXPECT_NE(text.find("blocked-rst"), std::string::npos) << text;
  EXPECT_NE(text.find("alerts:"), std::string::npos) << text;
  EXPECT_NE(text.find("probe-caused"), std::string::npos) << text;
}

TEST(ProvenanceTestbed, SameSeedExportsAreByteIdentical) {
  auto run = [] {
    core::Testbed tb(prov_config());
    run_censored_overt_http(tb);
    return tb.provenance_json();
  };
  std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(ProvenanceTestbed, ChromeExportIsDeterministicAndNested) {
  // Two probes on one testbed: each gets its own tid and span, and the
  // export of a graph is the same bytes every time and every same-seed run.
  auto run = [] {
    auto tb = std::make_unique<core::Testbed>(prov_config());
    {
      core::SynReachabilityProbe probe(
          *tb, {.target = tb->addr().web_open, .port = 80});
      core::run_probe(*tb, probe);
    }
    run_censored_overt_http(*tb);
    return tb;
  };
  auto tb = run();
  const std::string first = obs::to_chrome_json(tb->provenance());
  EXPECT_EQ(obs::to_chrome_json(tb->provenance()), first);
  EXPECT_EQ(obs::to_chrome_json(run()->provenance()), first);
  EXPECT_EQ(expect_chrome_shape(tb->provenance()), 2u);
  EXPECT_NE(first.find("\"verdict\":\"reachable\""), std::string::npos);
  EXPECT_NE(first.find("\"verdict\":\"blocked-rst\""), std::string::npos);
}

TEST(ProvenanceTestbed, MetricsGaugesExportedOnlyWhenEnabled) {
  core::TestbedConfig cfg = prov_config();
  cfg.enable_observability = true;
  core::Testbed tb(cfg);
  core::OvertDnsProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  std::string json = tb.metrics_json();
  EXPECT_NE(json.find("sm_provenance_events_total"), std::string::npos);

  core::TestbedConfig off;
  off.enable_observability = true;
  core::Testbed tb2(off);
  core::OvertDnsProbe probe2(tb2, {.domain = "open.example"});
  core::run_probe(tb2, probe2);
  EXPECT_EQ(tb2.metrics_json().find("sm_provenance"), std::string::npos);
}

// --- Campaign integration ---------------------------------------------

namespace {

std::vector<campaign::Trial> provenance_trials() {
  std::vector<campaign::Trial> trials;
  const char* domains[] = {"blocked.example", "open.example",
                           "youtube.com", "twitter.com"};
  for (const char* domain : domains) {
    campaign::Trial t;
    t.name = std::string("overt-http/") + domain;
    t.config = prov_config();
    t.factory = [domain](core::Testbed& tb) {
      return std::make_unique<core::OvertHttpProbe>(
          tb, core::OvertHttpOptions{.domain = domain});
    };
    trials.push_back(std::move(t));
  }
  return trials;
}

}  // namespace

TEST(ProvenanceCampaign, JsonlByteIdenticalAcrossThreadsAndShardModes) {
  auto trials = provenance_trials();
  campaign::CampaignOptions base;
  base.threads = 1;
  std::string reference = campaign::run(trials, base).to_jsonl();
  EXPECT_NE(reference.find("\"provenance\":{\"events\":["),
            std::string::npos);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (campaign::Shard shard :
         {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
      campaign::CampaignOptions opts;
      opts.threads = threads;
      opts.shard = shard;
      EXPECT_EQ(campaign::run(trials, opts).to_jsonl(), reference)
          << "threads=" << threads
          << " shard=" << (shard == campaign::Shard::ByIndex ? "ByIndex"
                                                             : "Dynamic");
    }
  }
}

TEST(ProvenanceCampaign, MixedFamilyJsonlByteIdenticalAcrossShardModes) {
  // Dual-stack determinism: v4 and v6 trials interleaved in one campaign
  // must serialize byte-identically across thread counts and shard
  // modes, provenance graphs included.
  core::TestbedAddresses addr;
  core::TestbedConfig censored = prov_config();
  censored.policy = censor::dropping_profile({addr.web_blocked});
  censored.policy.blocked_ips6 = {common::map_v6(addr.web_blocked)};

  std::vector<campaign::Trial> trials;
  for (const auto& [cfg_name, cfg] :
       {std::pair<std::string, core::TestbedConfig>{"clean", prov_config()},
        {"censored", censored}}) {
    for (bool v6 : {false, true}) {
      trials.push_back(campaign::Trial{
          .name = cfg_name + "/syn-reach" + (v6 ? "-v6" : "-v4"),
          .config = cfg,
          .factory = [v6](core::Testbed& tb) {
            return std::make_unique<core::SynReachabilityProbe>(
                tb, core::SynReachabilityOptions{
                        .target = tb.addr().web_blocked,
                        .port = 80,
                        .ipv6 = v6});
          }});
      trials.push_back(campaign::Trial{
          .name = cfg_name + "/ping" + (v6 ? "-v6" : "-v4"),
          .config = cfg,
          .factory = [v6](core::Testbed& tb) {
            return std::make_unique<core::PingProbe>(
                tb, core::PingOptions{.target = tb.addr().web_blocked,
                                      .ipv6 = v6});
          }});
    }
  }

  campaign::CampaignOptions base;
  base.threads = 1;
  std::string reference = campaign::run(trials, base).to_jsonl();
  // The matrix really contains both families and both outcomes.
  EXPECT_NE(reference.find("syn-reach-v6"), std::string::npos);
  EXPECT_NE(reference.find("\"verdict\":\"blocked-timeout\""),
            std::string::npos);
  EXPECT_NE(reference.find("\"verdict\":\"reachable\""), std::string::npos);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (campaign::Shard shard :
         {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
      campaign::CampaignOptions opts;
      opts.threads = threads;
      opts.shard = shard;
      EXPECT_EQ(campaign::run(trials, opts).to_jsonl(), reference)
          << "threads=" << threads
          << " shard=" << (shard == campaign::Shard::ByIndex ? "ByIndex"
                                                             : "Dynamic");
    }
  }
}

TEST(ProvenanceCampaign, TelemetryTracksWorkersAndPhases) {
  auto trials = provenance_trials();
  size_t heartbeats = 0;
  size_t last_completed = 0;
  campaign::CampaignOptions opts;
  opts.threads = 2;
  opts.on_progress = [&](const campaign::Progress& p) {
    ++heartbeats;
    last_completed = p.completed;
    EXPECT_EQ(p.total, trials.size());
    EXPECT_GE(p.worker, 0);
  };
  campaign::CampaignResult result = campaign::run(trials, opts);
  EXPECT_EQ(heartbeats, trials.size());
  EXPECT_EQ(last_completed, trials.size());

  ASSERT_NE(result.telemetry, nullptr);
  std::string telemetry = result.telemetry->to_prometheus();
  EXPECT_NE(telemetry.find("sm_campaign_worker_trials_total"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_phase_wall_seconds_total"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_trial_wall_seconds"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_slow_trials"), std::string::npos);
  // Telemetry never leaks into the deterministic serialization.
  EXPECT_EQ(result.to_jsonl().find("sm_campaign_worker"),
            std::string::npos);

  for (const campaign::TrialResult& t : result.trials) {
    EXPECT_GE(t.wall_elapsed.count(), 0);
    EXPECT_GE(t.wall_setup.count(), 0);
    EXPECT_GE(t.wall_run.count(), 0);
    EXPECT_GE(t.wall_finish.count(), 0);
  }
}

// --- Golden fixtures ---------------------------------------------------

TEST(ProvenanceGolden, CensoredOvertHttp) {
  core::Testbed tb(prov_config());
  run_censored_overt_http(tb);
  check_golden("provenance_censored.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CensoredOvertHttpChrome) {
  core::Testbed tb(prov_config());
  run_censored_overt_http(tb);
  check_golden("provenance_censored.chrome.json",
               obs::to_chrome_json(tb.provenance()) + "\n");
}

TEST(ProvenanceGolden, CleanOvertHttp) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_clean.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CensoredV6SynReach) {
  // The v6 censored chain: a dual-stack null route silently eats the v6
  // SYNs, so the graph pins attempt → v6 packet → censor inline-drop →
  // blocked-timeout verdict.
  core::TestbedConfig cfg = prov_config();
  core::TestbedAddresses addr;
  cfg.policy = censor::dropping_profile({addr.web_blocked});
  cfg.policy.blocked_ips6 = {common::map_v6(addr.web_blocked)};
  core::Testbed tb(cfg);
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_blocked, .port = 80, .ipv6 = true});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_censored_v6.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CleanV6SynReach) {
  // The clean v6 chain: same probe, keyword-only default policy — the
  // SYN-ACK comes back over v6 and the verdict roots in it.
  core::Testbed tb(prov_config());
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_blocked, .port = 80, .ipv6 = true});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_clean_v6.json", tb.provenance_json() + "\n");
}
