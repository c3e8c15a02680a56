// Population-scale attribution bench (E23): the paper's anchors at the
// scale they were stated for.
//
// Builds a ~100k-host AS topology with asgen, floods it with flyweight
// background traffic, hides overt and mimicry measurement probes inside
// it, and measures what the surveillance MVR attributes to whom:
//
//   Part 1 — topology: hosts, ASes, routers.
//   Part 2 — attribution: the national border MVR tap observes the full
//     mix; every overt probe must be attributed, no mimicry probe, and
//     the population anchors must land in range (p2p byte share, discard
//     share, ~7.5% content retention, ~1.57% of users touching censored
//     content). A second run must reproduce the first's stats digest.
//   Part 3 — determinism: R replica simulations through
//     campaign::run_jobs at 1 and 4 threads; the concatenated replica
//     JSONL must be byte-identical.
//
// `--smoke` shrinks the population and replica count for ci.sh's perf
// stage. The anchor bands hold at both scales. Forwarding throughput
// (hops per CPU-second) is perfbench's population workload.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/time.hpp"
#include "netsim/asgen.hpp"
#include "netsim/bgtraffic.hpp"
#include "netsim/router.hpp"
#include "netsim/topology.hpp"
#include "report.hpp"
#include "surveillance/classify.hpp"
#include "surveillance/mvr.hpp"

using namespace sm;
using common::Duration;
using common::Ipv4Address;

namespace {

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

netsim::AsGenConfig population_config(bool smoke) {
  netsim::AsGenConfig config;
  if (smoke) {
    config.as_count = 6;
    config.transit_count = 2;
    config.routers_per_as = 3;
    config.subnets_per_router = 2;
    config.hosts_per_subnet = 140;  // 5,040 hosts
  } else {
    config.as_count = 12;
    config.transit_count = 3;
    config.routers_per_as = 4;
    config.subnets_per_router = 4;
    config.hosts_per_subnet = 520;  // 99,840 hosts
  }
  config.extra_peering = 2;
  return config;
}

/// One replica of the attribution experiment, small enough to run many
/// times: fixed topology seed, per-replica traffic seed, one overt and
/// one mimicry probe. Returns a single deterministic JSONL line.
std::string attribution_replica(size_t index) {
  netsim::Network net;
  netsim::AsGenConfig topo_config;
  topo_config.as_count = 4;
  topo_config.transit_count = 1;
  topo_config.routers_per_as = 2;
  topo_config.subnets_per_router = 2;
  topo_config.hosts_per_subnet = 16;  // 256 hosts
  netsim::AsTopology topo = netsim::AsTopology::generate(net, topo_config);

  surveillance::MvrTap mvr;
  for (const netsim::AsInfo& as : topo.ases()) {
    as.routers.front()->add_tap(&mvr);
  }

  netsim::BgTrafficConfig traffic;
  traffic.seed = 0xB6 + index;
  traffic.flows_per_second = 500;
  traffic.window = Duration::seconds(2);
  netsim::BgTraffic bg(net, topo, traffic);
  bg.start();
  Ipv4Address overt = bg.launch_probe(2 * index, /*mimicry=*/false);
  Ipv4Address mimic = bg.launch_probe(2 * index + 1, /*mimicry=*/true);
  net.run_for(Duration::seconds(4));

  const auto& s = bg.stats();
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"replica\":%zu,\"topo_digest\":%llu,\"flows\":%llu,"
      "\"packets\":%llu,\"bytes\":%llu,\"censored\":%llu,"
      "\"overt_targeted\":%llu,\"mimic_targeted\":%llu,"
      "\"mimic_censored_alerts\":%llu,\"mvr_bytes_seen\":%llu}",
      index, (unsigned long long)fnv1a(topo.describe()),
      (unsigned long long)s.flows_started,
      (unsigned long long)s.packets_emitted,
      (unsigned long long)s.bytes_emitted,
      (unsigned long long)s.flows_censored,
      (unsigned long long)mvr.targeted_alerts_for(overt),
      (unsigned long long)mvr.targeted_alerts_for(mimic),
      (unsigned long long)mvr.censored_access_alerts_for(mimic),
      (unsigned long long)mvr.stats().bytes_seen);
  return line;
}

std::string run_replicas(size_t n, size_t threads) {
  std::vector<std::string> lines(n);
  campaign::CampaignOptions options;
  options.threads = threads;
  auto errors = campaign::run_jobs(
      n, [&](size_t index, int) { lines[index] = attribution_replica(index); },
      options);
  std::string joined;
  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) return "error: " + errors[i];
    joined += lines[i];
    joined += '\n';
  }
  return joined;
}

/// Everything one topology-build + traffic run produces. The simulation
/// is deterministic, so a repeated run must reproduce `digest`.
struct TrafficRun {
  size_t hosts = 0, ases = 0, routers = 0;
  uint64_t flows = 0, packets_emitted = 0, hops = 0;
  size_t live_flows = 0;
  size_t probers = 0;
  size_t overt_hits = 0, mimic_hits = 0;
  size_t overt_censored = 0, mimic_censored = 0;
  double p2p_share = 0, discard_share = 0, retained_fraction = 0;
  double censored_user_fraction = 0, observed_censored_fraction = 0;
  std::string digest;
};

TrafficRun traffic_run(bool smoke) {
  TrafficRun out;
  netsim::Network net;
  netsim::AsTopology topo =
      netsim::AsTopology::generate(net, population_config(smoke));
  out.hosts = topo.population();
  out.ases = topo.ases().size();
  for (const netsim::AsInfo& as : topo.ases()) {
    out.routers += as.routers.size();
  }

  // The paper's MVR is a *national* surveillance system: one monitored
  // country (the last stub AS), its border instrumented — Fig. 1 at
  // population scale. Probers live inside the country; everything they
  // send crosses the tapped border alongside the country's background
  // traffic.
  const netsim::AsInfo& country = topo.ases().back();
  surveillance::MvrTap mvr;
  topo.border(country.index)->add_tap(&mvr);

  netsim::BgTrafficConfig traffic;
  traffic.flows_per_second = smoke ? 4000 : 25000;
  traffic.window = smoke ? Duration::seconds(2) : Duration::seconds(4);
  netsim::BgTraffic bg(net, topo, traffic);
  bg.start();

  // Probes hide across the country's population, spread by stride.
  out.probers = smoke ? 8 : 32;
  std::vector<Ipv4Address> overt_addrs;
  std::vector<Ipv4Address> mimic_addrs;
  size_t stride = country.host_count / (2 * out.probers + 1);
  for (size_t i = 0; i < out.probers; ++i) {
    overt_addrs.push_back(
        bg.launch_probe(country.first_host + (2 * i) * stride, false));
    mimic_addrs.push_back(
        bg.launch_probe(country.first_host + (2 * i + 1) * stride, true));
  }

  net.run_for(traffic.window + Duration::seconds(2));

  for (const netsim::AsInfo& as : topo.ases()) {
    for (const netsim::Router* r : as.routers) {
      out.hops += r->counters().forwarded;
    }
  }
  const auto& s = bg.stats();
  out.flows = s.flows_started;
  out.packets_emitted = s.packets_emitted;
  out.live_flows = bg.live_flows();

  for (Ipv4Address a : overt_addrs) {
    if (mvr.targeted_alerts_for(a) > 0) ++out.overt_hits;
    if (mvr.censored_access_alerts_for(a) > 0) ++out.overt_censored;
  }
  for (Ipv4Address a : mimic_addrs) {
    if (mvr.targeted_alerts_for(a) > 0) ++out.mimic_hits;
    if (mvr.censored_access_alerts_for(a) > 0) ++out.mimic_censored;
  }

  const auto& m = mvr.stats();
  auto p2p_it = m.bytes_by_class.find(surveillance::TrafficClass::P2p);
  uint64_t p2p_bytes = p2p_it == m.bytes_by_class.end() ? 0 : p2p_it->second;
  out.p2p_share = m.bytes_seen ? double(p2p_bytes) / m.bytes_seen : 0;
  out.discard_share =
      m.bytes_seen ? double(m.bytes_discarded) / m.bytes_seen : 0;
  uint64_t kept = m.bytes_seen - m.bytes_discarded;
  out.retained_fraction =
      kept ? double(m.bytes_content_retained) / kept : 0;
  out.censored_user_fraction =
      s.flows_web ? double(s.flows_censored) / s.flows_web : 0;
  // The paper's population anchor, measured rather than asserted: what
  // fraction of the monitored country's hosts did the MVR log touching
  // censored content? (Probers excluded — they are the signal under
  // test, not the population. Both probe kinds request censored content,
  // so both earn the alert their cover story implies.)
  size_t censored_hosts = 0;
  for (size_t h = country.first_host;
       h < country.first_host + country.host_count; ++h) {
    if (mvr.censored_access_alerts_for(topo.hosts()[h]->address()) > 0) {
      ++censored_hosts;
    }
  }
  censored_hosts -= out.mimic_censored + out.overt_censored;
  out.observed_censored_fraction =
      double(censored_hosts) / country.host_count;

  char digest[256];
  std::snprintf(digest, sizeof(digest),
                "%llu/%llu/%llu/%llu/%llu/%zu/%zu/%zu/%zu/%zu",
                (unsigned long long)out.flows,
                (unsigned long long)out.packets_emitted,
                (unsigned long long)out.hops,
                (unsigned long long)m.bytes_seen,
                (unsigned long long)m.bytes_discarded, out.overt_hits,
                out.mimic_hits, out.overt_censored, out.mimic_censored,
                censored_hosts);
  out.digest = digest;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("population", argc, argv);
  const bool smoke = metrics.smoke();

  // --- Parts 1+2: topology build, traffic, attribution -----------------
  TrafficRun run = traffic_run(smoke);
  std::printf("topology: %zu hosts, %zu ASes, %zu routers\n", run.hosts,
              run.ases, run.routers);
  bool repeats_identical = traffic_run(smoke).digest == run.digest;
  std::printf("traffic: %llu flows, %llu packets emitted, %llu hops\n",
              (unsigned long long)run.flows,
              (unsigned long long)run.packets_emitted,
              (unsigned long long)run.hops);

  const size_t probers = run.probers;
  double overt_rate = double(run.overt_hits) / probers;
  double mimic_rate = double(run.mimic_hits) / probers;
  std::printf("attribution: overt %.2f, mimicry %.2f (censored alerts on "
              "%zu/%zu mimics)\n",
              overt_rate, mimic_rate, run.mimic_censored, probers);
  std::printf("anchors: p2p byte share %.3f, discard share %.3f, content "
              "retention %.4f, censored flow fraction %.4f, "
              "observed censored-host fraction %.4f\n",
              run.p2p_share, run.discard_share, run.retained_fraction,
              run.censored_user_fraction, run.observed_censored_fraction);

  // --- Part 3: determinism across worker counts ------------------------
  const size_t replicas = smoke ? 2 : 4;
  std::string j1 = run_replicas(replicas, 1);
  std::string j4 = run_replicas(replicas, 4);
  bool deterministic = (j1 == j4) && j1.rfind("error:", 0) != 0;
  std::printf("determinism: %zu replicas, -j1 vs -j4 %s\n\n", replicas,
              deterministic ? "byte-identical" : "DIFFER");

  metrics.invariant("hosts", run.hosts, smoke ? 5040 : 99840, "hosts");
  metrics.require("repeats_identical", repeats_identical);
  metrics.invariant("overt_attribution_rate", overt_rate, 1, "fraction");
  metrics.invariant("mimicry_attribution_rate", mimic_rate, 0, "fraction");
  // Mimicry earns the population's censored-access alert.
  metrics.invariant("mimicry_censored_alerts", run.mimic_censored, probers,
                    "probers");
  // The population anchors. Lower edges at 0.8 x the full-scale values
  // 0.2974 / 0.3325 / 0.0711 / 0.0161 hold at both scales.
  metrics.anchor("p2p_byte_share", run.p2p_share, "fraction", 0.8 * 0.2974,
                 bench::kUnbounded);
  metrics.anchor("discard_share", run.discard_share, "fraction",
                 0.8 * 0.3325, bench::below(0.60));
  metrics.anchor("retained_fraction", run.retained_fraction, "fraction",
                 0.8 * 0.0711, bench::below(0.20));
  metrics.anchor("censored_user_fraction", run.censored_user_fraction,
                 "fraction", 0.8 * 0.0161, bench::below(0.025));
  metrics.anchor("observed_censored_fraction", run.observed_censored_fraction,
                 "fraction", bench::above(0.0), bench::below(0.10));
  metrics.require("replicas_j1_vs_j4_identical", deterministic);
  metrics.invariant("live_flows", run.live_flows, 0, "flows");
  return metrics.finish();
}
