// The `population` workload: bench_population's E23 run — a 99,840-host
// AS topology, flyweight background traffic, 32 overt and 32 mimicry
// probers inside the monitored country, one MVR on its border — repeated
// closed-loop. Each run is one "trial": set-up (topology, MVR, traffic
// and probe launch), Network::run_for over the traffic window, checks,
// teardown.
//
// No Testbed is built here. The traced pass wraps the border MvrTap in a
// benchmark-side tap that times each process() call; the border already
// carries a tap, so the router path of every packet is unchanged.
#include <cstdio>
#include <optional>

#include "common/recordio.hpp"
#include "netsim/asgen.hpp"
#include "netsim/bgtraffic.hpp"
#include "netsim/router.hpp"
#include "netsim/topology.hpp"
#include "obs/metrics.hpp"
#include "packet/copy_stats.hpp"
#include "perfbench.hpp"
#include "surveillance/mvr.hpp"

namespace sm::perfbench {

namespace {

using common::Duration;
using common::Ipv4Address;

constexpr size_t kMinRuns = 3;

netsim::AsGenConfig population_config(bool tiny) {
  netsim::AsGenConfig config;
  if (tiny) {
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

/// Times every MvrTap::process call.
class TimedMvr : public netsim::Tap {
 public:
  explicit TimedMvr(surveillance::MvrTap& mvr) : mvr_(mvr) {}
  netsim::TapDecision process(const netsim::TapContext& ctx,
                              netsim::Router& router) override {
    auto start = Clock::now();
    netsim::TapDecision decision = mvr_.process(ctx, router);
    ns_ += to_ns(Clock::now()) - to_ns(start);
    ++calls_;
    return decision;
  }
  int64_t ns() const { return ns_; }
  uint64_t calls() const { return calls_; }

 private:
  surveillance::MvrTap& mvr_;
  int64_t ns_ = 0;
  uint64_t calls_ = 0;
};

/// Everything one run owns, torn down together.
struct World {
  netsim::Network net;
  std::optional<netsim::AsTopology> topo;
  std::unique_ptr<surveillance::MvrTap> mvr;
  std::unique_ptr<TimedMvr> timed_mvr;
  std::unique_ptr<netsim::BgTraffic> bg;
};

struct RunResult {
  /// wall_s is the whole run: set-up, run_for, checks and teardown.
  double wall_s = 0, setup_s = 0, run_s = 0, run_cpu_s = 0;
  double hops = 0;
  size_t probers = 0, misattributed = 0;
  std::string digest;
};

RunResult population_run(const Options& opt, Tracer* tracer,
                         uint64_t trial_id, Counts& counts,
                         Report& report) {
  RunResult out;
  ScopedSpan trial(tracer, kTrialSpan, trial_id);
  packet::reset_copy_counters();
  auto start = Clock::now();
  auto world = std::make_unique<World>();
  {
    ScopedSpan s(tracer, "netsim.asgen", trial_id);
    world->topo.emplace(netsim::AsTopology::generate(
        world->net, population_config(opt.tiny)));
  }
  const netsim::AsTopology& topo = *world->topo;
  // One monitored country (the last stub AS) with the MVR on its border.
  const netsim::AsInfo& country = topo.ases().back();
  netsim::Router* border = topo.border(country.index);
  {
    ScopedSpan s(tracer, "surveillance.mvr_build", trial_id);
    world->mvr = std::make_unique<surveillance::MvrTap>();
    if (tracer) {
      world->timed_mvr = std::make_unique<TimedMvr>(*world->mvr);
      border->add_tap(world->timed_mvr.get());
    } else {
      border->add_tap(world->mvr.get());
    }
  }
  netsim::BgTrafficConfig traffic;
  traffic.seed = opt.seed;
  traffic.flows_per_second = opt.tiny ? 4000 : 25000;
  traffic.window = opt.tiny ? Duration::seconds(2) : Duration::seconds(4);
  out.probers = opt.tiny ? 8 : 32;
  std::vector<Ipv4Address> overt, mimic;
  {
    ScopedSpan s(tracer, "netsim.bgtraffic_start", trial_id);
    world->bg = std::make_unique<netsim::BgTraffic>(world->net, topo, traffic);
    world->bg->start();
    size_t stride = country.host_count / (2 * out.probers + 1);
    for (size_t i = 0; i < out.probers; ++i) {
      overt.push_back(world->bg->launch_probe(
          country.first_host + (2 * i) * stride, false));
      mimic.push_back(world->bg->launch_probe(
          country.first_host + (2 * i + 1) * stride, true));
    }
  }
  out.setup_s = seconds_since(start);

  double cpu0 = cpu_seconds();
  auto run0 = Clock::now();
  {
    ScopedSpan s(tracer, "netsim.run_for", trial_id);
    world->net.run_for(traffic.window + Duration::seconds(2));
    if (tracer) {
      tracer->add_aggregate("surveillance.mvr", world->timed_mvr->ns(),
                            world->timed_mvr->calls());
    }
  }
  out.run_s = seconds_since(run0);
  out.run_cpu_s = cpu_seconds() - cpu0;

  // Attribution: every overt prober logged, no mimicry prober logged.
  const surveillance::MvrTap& mvr = *world->mvr;
  size_t overt_censored = 0, mimic_censored = 0;
  for (Ipv4Address a : overt) {
    if (mvr.targeted_alerts_for(a) == 0) ++out.misattributed;
    if (mvr.censored_access_alerts_for(a) > 0) ++overt_censored;
  }
  for (Ipv4Address a : mimic) {
    if (mvr.targeted_alerts_for(a) > 0) ++out.misattributed;
    if (mvr.censored_access_alerts_for(a) > 0) ++mimic_censored;
  }

  // The E23 anchors, with bench_population's bands.
  const auto& m = mvr.stats();
  const auto& s = world->bg->stats();
  uint64_t kept = m.bytes_seen - m.bytes_discarded;
  double discard_share =
      m.bytes_seen ? double(m.bytes_discarded) / double(m.bytes_seen) : 0;
  double retained = kept ? double(m.bytes_content_retained) / double(kept) : 0;
  double censored_flows =
      s.flows_web ? double(s.flows_censored) / double(s.flows_web) : 0;
  size_t censored_hosts = 0;
  for (size_t h = country.first_host;
       h < country.first_host + country.host_count; ++h) {
    if (mvr.censored_access_alerts_for(topo.hosts()[h]->address()) > 0)
      ++censored_hosts;
  }
  censored_hosts -= overt_censored + mimic_censored;
  double observed_censored = double(censored_hosts) / country.host_count;
  auto anchor = [&](bool ok, const char* what) {
    if (!ok) report.problem(std::string("E23 anchor out of band: ") + what);
  };
  anchor(topo.population() == (opt.tiny ? 5040u : 99840u), "population size");
  anchor(mimic_censored == out.probers,
         "mimicry earns the population's censored-access alert");
  anchor(censored_flows > 0.008 && censored_flows < 0.025,
         "censored flow fraction near the 1.57% anchor");
  anchor(observed_censored > 0.0 && observed_censored < 0.10,
         "MVR-observed censored-host fraction");
  anchor(discard_share > 0.10 && discard_share < 0.60, "MVR discard share");
  anchor(retained > 0.02 && retained < 0.20,
         "content retention near the 7.5% anchor");
  anchor(world->bg->live_flows() == 0, "all background flows drained");

  double tapless_hops = 0;
  for (const netsim::AsInfo& as : topo.ases()) {
    for (const netsim::Router* r : as.routers) {
      out.hops += double(r->counters().forwarded);
      if (r != border) tapless_hops += double(r->counters().forwarded);
    }
  }
  char digest[256];
  std::snprintf(digest, sizeof(digest),
                "%llu/%llu/%.0f/%llu/%llu/%zu/%zu/%zu/%zu",
                (unsigned long long)s.flows_started,
                (unsigned long long)s.packets_emitted, out.hops,
                (unsigned long long)m.bytes_seen,
                (unsigned long long)m.bytes_discarded, out.misattributed,
                overt_censored, mimic_censored, censored_hosts);
  out.digest = digest;

  if (tracer) {
    counts["netsim.events"] += double(world->net.engine().executed());
    counts["netsim.hops"] += out.hops;
    counts["netsim.fastpath_hops"] += tapless_hops;
    uint64_t drops = 0;
    for (const auto& link : world->net.links()) drops += link->stats().dropped();
    counts["netsim.link_drops"] += double(drops);
    counts["surveillance.packets"] += double(m.packets_seen);
    counts["surveillance.alerts"] +=
        double(m.noise_alerts + m.interesting_alerts);
    obs::Registry registry;
    mvr.export_metrics(registry);
    counts["ids.mvr_payload_scans"] += double(
        registry.counter("sm_ids_payload_scans_total", {{"instance", "mvr"}})
            ->value());
  }
  {
    ScopedSpan s(tracer, "netsim.teardown", trial_id);
    world.reset();
  }
  out.wall_s = seconds_since(start);
  take_copies(counts);
  return out;
}

}  // namespace

void run_population(const Options& opt, Report& report) {
  // Each run is one window of the throughput medians.
  std::vector<double> run_wall_s, run_cpu_s, hops;
  common::EmpiricalCdf setups;
  std::string digest;
  Counts unused;
  auto phase = Clock::now();
  do {
    RunResult r = population_run(opt, nullptr, 0, unused, report);
    run_wall_s.push_back(r.wall_s);
    setups.add(r.setup_s);
    report.walls_ms.add(r.run_s * 1e3);
    run_cpu_s.push_back(r.run_cpu_s);
    hops.push_back(r.hops);
    report.attempted += 2 * r.probers;
    report.failed += r.misattributed;
    if (digest.empty()) digest = r.digest;
    if (r.digest != digest) report.problem("population stats differ between runs");
  } while (run_wall_s.size() < kMinRuns || seconds_since(phase) < opt.seconds);
  report.digest = common::crc32(digest);

  // A trial is a whole run; trial_ms_p50 is its run_for alone.
  report.metrics["trials_per_s"] =
      median_rate(std::vector<double>(run_wall_s.size(), 1.0), run_wall_s);
  report.metrics["trial_ms_p50"] = report.walls_ms.quantile(0.5);
  double hops_per_cpu_s = median_rate(hops, run_cpu_s);
  report.metrics["hops_per_cpu_s"] = hops_per_cpu_s;
  report.metrics["setup_s"] = setups.quantile(0.5);
  report.metrics["peak_rss_mb"] = peak_rss_mb();

  if (!opt.trace) return;
  Tracer tracer;
  Counts counts;
  std::vector<double> traced_hops, traced_cpu_s;
  uint64_t trial_id = 0;
  phase = Clock::now();
  do {
    RunResult r = population_run(opt, &tracer, trial_id++, counts, report);
    traced_hops.push_back(r.hops);
    traced_cpu_s.push_back(r.run_cpu_s);
    report.traced_digest = common::crc32(r.digest);
    if (r.digest != digest) report.problem("traced run stats differ");
  } while (seconds_since(phase) < opt.seconds);
  if (!opt.spans_path.empty() && !tracer.write_jsonl(opt.spans_path))
    report.problem("cannot write spans to " + opt.spans_path);

  summarize_trace(tracer, report);
  const auto& layers = report.layers;
  double n = double(report.traced_trials);
  for (const auto& [name, sum] : counts) report.metrics[name] = sum / n;
  double run_ns = double(layers.at("netsim.run_for").total_ns);
  double mvr_ns = double(layers.at("surveillance.mvr").total_ns);
  double mvr_calls = double(layers.at("surveillance.mvr").calls);
  report.metrics["netsim.asgen_s"] =
      double(layers.at("netsim.asgen").total_ns) / 1e9 / n;
  report.metrics["netsim.bgtraffic_start_s"] =
      double(layers.at("netsim.bgtraffic_start").total_ns) / 1e9 / n;
  report.metrics["netsim.ns_per_event"] = run_ns / counts["netsim.events"];
  report.metrics["netsim.fastpath_share"] =
      counts["netsim.fastpath_hops"] / counts["netsim.hops"];
  report.metrics["netsim.ns_per_hop_excl_mvr"] =
      (run_ns - mvr_ns) / counts["netsim.hops"];
  report.metrics["surveillance.mvr_ns_per_packet"] = mvr_ns / mvr_calls;
  report.metrics["surveillance.mvr_share"] = mvr_ns / run_ns;
  report.metrics["trace.overhead_share"] =
      1.0 - median_rate(traced_hops, traced_cpu_s) / hops_per_cpu_s;
}

}  // namespace sm::perfbench
