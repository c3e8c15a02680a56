// Event-core bench: the hierarchical timer wheel (netsim::Engine) versus
// the binary heap it replaced, plus the zero-copy packet pipeline.
//
// Part 1 measures the queue at 10^3..10^6 pending events against a
// reference binary-heap engine (the pre-PR6 implementation, inlined
// here so the comparison survives the heap's removal), in two regimes:
//   - burst: enqueue everything, then drain — the bulk-load corner,
//     where a fully cache-resident heap is genuinely hard to beat at
//     small n;
//   - hold: steady-state churn at constant pending count (each fired
//     event schedules a successor), the classic DES queue workload and
//     the one the netsim actually runs — every packet hop pops one
//     event and pushes the next.
// The floors reflect that: hold speedup >= 1 at EVERY scale, burst
// speedup >= 1 from 10^5 pending up (below that the speedup is still a
// contrast against the baseline, just without a floor).
// Part 2 pushes UDP datagrams through a host-router-host path with and
// without taps: each tapped config's throughput relative to the untapped
// one is a contrast, and the packet copy counters are invariants — the
// forwarding hop makes zero payload copies, the retaining tap exactly one
// per packet.
//
// `--smoke` shrinks the workload for ci.sh's perf stage (fewer scales and
// packets); the contrasts it shares with the full run are compared with
// the checked-in BENCH_event_core.json (see report.hpp).
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "netsim/topology.hpp"
#include "obs/provenance.hpp"
#include "packet/copy_stats.hpp"
#include "packet/packet.hpp"
#include "report.hpp"

using namespace sm;
using common::Duration;
using common::Ipv4Address;
using common::Rng;
using common::SimTime;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// The engine the timer wheel replaced: a binary heap over (when, seq),
/// kept bit-for-bit faithful to the old dispatch loop so the comparison
/// measures the data structure, not incidental API differences.
class HeapEngine {
 public:
  using Action = std::function<void()>;

  void schedule(Duration delay, Action action) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(action)});
  }
  size_t run(size_t max_events = SIZE_MAX) {
    size_t n = 0;
    while (!queue_.empty() && n < max_events) {
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.when;
      ev.action();
      ++n;
    }
    return n;
  }
  SimTime now() const { return now_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_{};
  uint64_t next_seq_ = 0;
};

/// One timed pass: enqueue `n` events with deadlines uniform over a 10s
/// horizon, then drain. Returns {enqueue_s, dispatch_s}.
template <typename Engine>
std::pair<double, double> time_workload(size_t n, uint64_t seed) {
  Engine engine;
  Rng rng(seed);
  // Pre-draw delays so RNG cost stays out of the enqueue timing.
  std::vector<Duration> delays;
  delays.reserve(n);
  for (size_t i = 0; i < n; ++i)
    delays.push_back(Duration(
        static_cast<int64_t>(rng.bounded(10'000'000'000ull))));

  uint64_t fired = 0;
  auto t0 = clock_type::now();
  for (size_t i = 0; i < n; ++i)
    engine.schedule(delays[i], [&fired] { ++fired; });
  double enqueue_s = seconds_since(t0);

  auto t1 = clock_type::now();
  engine.run();
  double dispatch_s = seconds_since(t1);
  if (fired != n) {
    std::fprintf(stderr, "BUG: %llu of %zu events fired\n",
                 static_cast<unsigned long long>(fired), n);
    std::exit(2);
  }
  return {enqueue_s, dispatch_s};
}

/// Steady-state hold: `n` events pending throughout; every fired event
/// schedules its successor at now + Exp(mean 100us) — link-latency
/// scale, like the netsim's own traffic. Times 3n pop+push pairs.
template <typename Engine>
double hold_workload(size_t n, uint64_t seed) {
  Engine engine;
  Rng rng(seed);
  constexpr double kMeanNs = 100'000.0;
  std::function<void()> churn = [&engine, &rng, &churn] {
    engine.schedule(
        Duration(static_cast<int64_t>(rng.exponential(1.0 / kMeanNs))),
        churn);
  };
  for (size_t i = 0; i < n; ++i)
    engine.schedule(
        Duration(static_cast<int64_t>(rng.bounded(200'000))), churn);
  size_t total = 3 * n;
  auto t0 = clock_type::now();
  engine.run(total);
  return static_cast<double>(total) / seconds_since(t0);
}

/// Best-of-`reps` events/sec — min-time repetition suppresses scheduler
/// noise on small machines.
struct QueueTiming {
  double total_eps = 0;
  double hold_eps = 0;
};

template <typename Engine>
QueueTiming best_of(size_t n, int reps) {
  QueueTiming best;
  for (int r = 0; r < reps; ++r) {
    auto [enq, dis] = time_workload<Engine>(n, 0xbe7c0 + r);
    double total = static_cast<double>(n) / (enq + dis);
    if (total > best.total_eps) best.total_eps = total;
  }
  int hold_reps = n >= 1'000'000 ? (reps > 2 ? 2 : reps) : reps;
  for (int r = 0; r < hold_reps; ++r) {
    double eps = hold_workload<Engine>(n, 0x401d + r);
    if (eps > best.hold_eps) best.hold_eps = eps;
  }
  return best;
}

struct PipelineResult {
  const char* config;
  double pps = 0;
  uint64_t hop_copies = 0;
  uint64_t total_copies = 0;
};

/// Pass-through tap (an MVR-shaped observer that keeps nothing).
class CountTap : public netsim::Tap {
 public:
  netsim::TapDecision process(const netsim::TapContext& ctx,
                              netsim::Router&) override {
    seen += ctx.pkt.wire().size();
    return netsim::TapDecision::Pass;
  }
  uint64_t seen = 0;
};

/// Retaining tap (a pcap-shaped sink): copies every packet, on purpose.
class RetainTap : public netsim::Tap {
 public:
  netsim::TapDecision process(const netsim::TapContext& ctx,
                              netsim::Router&) override {
    kept.push_back(ctx.pkt.retain(packet::CopySite::Pcap));
    return netsim::TapDecision::Pass;
  }
  std::vector<common::Bytes> kept;
};

PipelineResult run_pipeline_once(const char* config, size_t packets,
                                 netsim::Tap* tap,
                                 obs::ProvenanceGraph* provenance) {
  packet::reset_copy_counters();
  netsim::Network net;
  if (provenance) net.engine().set_provenance(provenance);
  netsim::Host* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
  netsim::Host* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
  netsim::Router* r = net.add_router("r");
  net.connect(a, r, netsim::LinkConfig{Duration::micros(10), 0, 0.0});
  net.connect(b, r, netsim::LinkConfig{Duration::micros(10), 0, 0.0});
  if (tap) r->add_tap(tap);

  uint64_t delivered = 0;
  b->udp_bind(9000, [&](const packet::Decoded&, std::span<const uint8_t>) {
    ++delivered;
  });
  common::Bytes payload(512, 0xab);

  auto t0 = clock_type::now();
  // Batched sends: keep a bounded number in flight so the event queue
  // stays realistic (a handful of packets per link, not a million).
  const size_t batch = 64;
  for (size_t sent = 0; sent < packets; sent += batch) {
    for (size_t i = 0; i < batch && sent + i < packets; ++i)
      a->send_udp(b->address(), 1234, 9000, payload);
    net.run_for(Duration::millis(1));
  }
  net.run_for(Duration::millis(10));
  double elapsed = seconds_since(t0);

  if (delivered != packets) {
    std::fprintf(stderr, "BUG: pipeline delivered %llu of %zu packets\n",
                 static_cast<unsigned long long>(delivered), packets);
    std::exit(2);
  }
  PipelineResult out;
  out.config = config;
  out.pps = static_cast<double>(packets) / elapsed;
  out.hop_copies = packet::copies(packet::CopySite::Hop);
  out.total_copies = 0;
  for (auto site :
       {packet::CopySite::Hop, packet::CopySite::Impairment,
        packet::CopySite::Pcap, packet::CopySite::Defrag,
        packet::CopySite::Stream})
    out.total_copies += packet::copies(site);
  return out;
}

/// Best-of-`reps` pipeline throughput: same min-time repetition the queue
/// benches use, because a single pass is at the mercy of one scheduler
/// hiccup and the gated tapped/untapped *ratios* amplify that noise.
/// Copy counters come from the last rep (they are identical every rep).
PipelineResult run_pipeline(const char* config, size_t packets, int reps,
                            netsim::Tap* tap,
                            obs::ProvenanceGraph* provenance = nullptr,
                            std::function<void()> reset_tap = {}) {
  PipelineResult best;
  for (int r = 0; r < reps; ++r) {
    if (provenance) provenance->clear();
    if (reset_tap) reset_tap();
    PipelineResult one = run_pipeline_once(config, packets, tap, provenance);
    if (one.pps > best.pps) best = one;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("event_core", argc, argv);
  std::vector<size_t> scales = {1'000, 10'000, 100'000, 1'000'000};
  if (metrics.smoke()) scales = {1'000, 10'000, 100'000};
  const int reps = 3;

  std::printf("event-core bench: binary heap vs hierarchical timer wheel\n\n");
  std::printf("%10s %13s %13s %8s %13s %13s %8s\n", "pending",
              "burst heap", "burst wheel", "burst x", "hold heap",
              "hold wheel", "hold x");
  for (size_t n : scales) {
    QueueTiming heap = best_of<HeapEngine>(n, reps);
    QueueTiming wheel = best_of<netsim::Engine>(n, reps);
    double burst_speedup = wheel.total_eps / heap.total_eps;
    double hold_speedup = wheel.hold_eps / heap.hold_eps;
    std::printf("%10zu %13.0f %13.0f %7.2fx %13.0f %13.0f %7.2fx\n", n,
                heap.total_eps, wheel.total_eps, burst_speedup,
                heap.hold_eps, wheel.hold_eps, hold_speedup);
    const std::string at = common::format("@%zu", n);
    metrics.contrast("burst_speedup" + at, burst_speedup,
                     n >= 100'000 ? std::optional<double>(1.0) : std::nullopt);
    metrics.contrast("hold_speedup" + at, hold_speedup, 1.0);
  }

  std::printf("\npacket pipeline: host -> router -> host, 512B UDP\n\n");
  std::printf("%12s %14s %12s %14s\n", "taps", "pkts/s", "hop copies",
              "total copies");
  const size_t pipeline_packets = metrics.smoke() ? 5'000 : 20'000;
  CountTap count_tap;
  RetainTap retain_tap;
  // Provenance enabled on a tapless path: every hop records PacketSent/
  // Forward events into the ring, the worst case for the graph itself.
  obs::ProvenanceGraph prov_graph(1 << 16);
  std::vector<PipelineResult> pipe;
  pipe.push_back(run_pipeline("none", pipeline_packets, reps, nullptr));
  pipe.push_back(run_pipeline("observe", pipeline_packets, reps, &count_tap,
                              nullptr, [&] { count_tap.seen = 0; }));
  pipe.push_back(run_pipeline("retain", pipeline_packets, reps, &retain_tap,
                              nullptr, [&] { retain_tap.kept.clear(); }));
  pipe.push_back(
      run_pipeline("prov", pipeline_packets, reps, nullptr, &prov_graph));
  uint64_t hop_copies = 0;
  for (size_t i = 0; i < pipe.size(); ++i) {
    const PipelineResult& p = pipe[i];
    hop_copies += p.hop_copies;
    std::printf("%12s %14.0f %12llu %14llu\n", p.config, p.pps,
                static_cast<unsigned long long>(p.hop_copies),
                static_cast<unsigned long long>(p.total_copies));
    // Each tapped config's throughput relative to the untapped path.
    if (i > 0)
      metrics.contrast(std::string("pipeline_rel@") + p.config,
                       p.pps / pipe[0].pps, std::nullopt);
  }
  metrics.invariant("hop_copies", hop_copies, 0, "copies");
  // The retain config counts exactly one Pcap copy per packet — the
  // counter is live, not decorative.
  metrics.invariant("retain_copies", pipe[2].total_copies, pipeline_packets,
                    "copies");
  std::printf("\n");
  return metrics.finish();
}
