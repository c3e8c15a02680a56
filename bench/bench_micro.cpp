// E9 — component microbenchmarks (google-benchmark).
//
// These characterize the implementation, not the paper's testbed: packet
// codec throughput over both IP families, the transit router's
// route_peek, checksums, BMH content matching, DNS wire codec, IDS
// rule evaluation with and without reassembly, flow-table updates, and
// raw event-loop throughput.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "ids/engine.hpp"
#include "netsim/engine.hpp"
#include "netsim/topology.hpp"
#include "packet/checksum.hpp"
#include "packet/fragment.hpp"
#include "packet/packet.hpp"
#include "proto/dns/message.hpp"
#include "spamfilter/corpus.hpp"
#include "spamfilter/scorer.hpp"
#include "surveillance/rules.hpp"

using namespace sm;
using common::Ipv4Address;
using packet::TcpFlags;

namespace {

common::Bytes make_payload(size_t n) {
  common::Rng rng(1);
  common::Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.bounded(256));
  return out;
}

/// The codec benches' datagram: an ACK from 10.0.0.1:1234 to
/// 192.0.2.1:80, over IPv4 or (family 6) their map_v6 addresses.
packet::Packet bench_tcp(int64_t family, std::span<const uint8_t> payload) {
  const Ipv4Address src(10, 0, 0, 1), dst(192, 0, 2, 1);
  if (family == 6)
    return packet::make_tcp6(common::map_v6(src), common::map_v6(dst), 1234,
                             80, TcpFlags::kAck, 1, 2, payload);
  return packet::make_tcp(src, dst, 1234, 80, TcpFlags::kAck, 1, 2, payload);
}

// Arguments: payload bytes, then the IP family (4 or 6).
void BM_PacketEncodeTcp(benchmark::State& state) {
  auto payload = make_payload(static_cast<size_t>(state.range(0)));
  size_t size = 0;
  for (auto _ : state) {
    auto p = bench_tcp(state.range(1), payload);
    benchmark::DoNotOptimize(p.data().data());
    size = p.size();
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}
BENCHMARK(BM_PacketEncodeTcp)->ArgsProduct({{64, 512, 1460}, {4, 6}});

void BM_PacketDecode(benchmark::State& state) {
  auto payload = make_payload(static_cast<size_t>(state.range(0)));
  auto p = bench_tcp(state.range(1), payload);
  for (auto _ : state) {
    auto d = packet::decode(p.data());
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(p.size()));
}
BENCHMARK(BM_PacketDecode)->ArgsProduct({{64, 1460}, {4, 6}});

// The transit router's per-hop parse. Argument: the IP family.
void BM_RoutePeek(benchmark::State& state) {
  auto payload = make_payload(64);
  auto p = bench_tcp(state.range(0), payload);
  for (auto _ : state) {
    auto dst = packet::route_peek(p.data());
    benchmark::DoNotOptimize(dst);
  }
}
BENCHMARK(BM_RoutePeek)->Arg(4)->Arg(6);

void BM_InternetChecksum(benchmark::State& state) {
  auto data = make_payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(packet::internet_checksum(data));
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1460)->Arg(65536);

void BM_BmhMatch(benchmark::State& state) {
  auto hay = make_payload(static_cast<size_t>(state.range(0)));
  ids::PatternMatcher matcher("needle-not-present", true);
  for (auto _ : state) benchmark::DoNotOptimize(matcher.find(hay));
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BmhMatch)->Arg(256)->Arg(1460)->Arg(16384);

void BM_DnsEncodeDecode(benchmark::State& state) {
  using namespace proto::dns;
  Message m = Message::query(1, Name("mail.blocked.example.com"),
                             RecordType::MX);
  m.header.qr = true;
  m.answers.push_back(ResourceRecord::mx(Name("mail.blocked.example.com"),
                                         10, Name("mx1.example.com")));
  m.answers.push_back(
      ResourceRecord::a(Name("mx1.example.com"), Ipv4Address(1, 2, 3, 4)));
  for (auto _ : state) {
    auto wire = encode(m);
    auto back = decode(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_IdsEngineCleanTraffic(benchmark::State& state) {
  ids::Engine engine(surveillance::community_ruleset());
  auto payload = make_payload(1000);
  auto p = packet::make_tcp(Ipv4Address(10, 0, 0, 1),
                            Ipv4Address(192, 0, 2, 1), 1234, 8080,
                            TcpFlags::kAck, 1, 2, payload);
  auto d = *packet::decode(p.data());
  int64_t t = 0;
  for (auto _ : state) {
    auto v = engine.process(common::SimTime(t += 1000), d);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(p.size()));
}
BENCHMARK(BM_IdsEngineCleanTraffic);

void BM_IdsEngineKeywordHit(benchmark::State& state) {
  ids::Engine engine = ids::Engine::from_text(
      "reject tcp any any -> any any (content:\"falun\"; nocase; sid:1;)");
  common::Bytes payload =
      common::to_bytes("GET /search?q=falun HTTP/1.1\r\n\r\n");
  auto p = packet::make_tcp(Ipv4Address(10, 0, 0, 1),
                            Ipv4Address(192, 0, 2, 1), 1234, 80,
                            TcpFlags::kAck, 1, 2, payload);
  auto d = *packet::decode(p.data());
  int64_t t = 0;
  for (auto _ : state) {
    auto v = engine.process(common::SimTime(t += 1000), d);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_IdsEngineKeywordHit);

void BM_FlowTableUpdate(benchmark::State& state) {
  ids::FlowTable table;
  common::Rng rng(3);
  std::vector<std::pair<common::Bytes, packet::Decoded>> packets;
  for (int i = 0; i < 256; ++i) {
    auto p = packet::make_tcp(
        Ipv4Address(static_cast<uint32_t>(0x0A000000 + rng.bounded(64))),
        Ipv4Address(192, 0, 2, 1),
        static_cast<uint16_t>(1024 + rng.bounded(1024)), 80,
        TcpFlags::kAck, static_cast<uint32_t>(i) * 100, 1,
        make_payload(100));
    auto wire = p.data();
    auto d = *packet::decode(wire);
    packets.emplace_back(std::move(wire), d);
    // Re-decode against the stored buffer so spans stay valid.
    packets.back().second = *packet::decode(packets.back().first);
  }
  int64_t t = 0;
  size_t i = 0;
  for (auto _ : state) {
    auto fc = table.update(common::SimTime(t += 1000),
                           packets[i++ % packets.size()].second);
    benchmark::DoNotOptimize(fc);
  }
}
BENCHMARK(BM_FlowTableUpdate);

// Event-queue scaling: enqueue N uniformly-distributed deadlines, then
// drain. The timer wheel must hold its per-event cost flat as the
// pending count grows (the heap's log N comparisons + std::function
// swaps did not).
void BM_EventQueuePending(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  common::Rng rng(7);
  std::vector<common::Duration> delays;
  delays.reserve(n);
  for (size_t i = 0; i < n; ++i)
    delays.push_back(common::Duration(
        static_cast<int64_t>(rng.bounded(10'000'000'000ull))));
  for (auto _ : state) {
    netsim::Engine engine;
    uint64_t fired = 0;
    for (size_t i = 0; i < n; ++i)
      engine.schedule(delays[i], [&fired] { ++fired; });
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_EventQueuePending)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// Per-hop packet delivery through host -> router -> host, with and
// without an observing tap on the router. The zero-copy contract says
// the tap costs one decode-borrowed view, never a payload copy.
void BM_RouterHopDelivery(benchmark::State& state) {
  class ObserveTap : public netsim::Tap {
   public:
    netsim::TapDecision process(const netsim::TapContext& ctx,
                                netsim::Router&) override {
      bytes += ctx.pkt.wire().size();
      return netsim::TapDecision::Pass;
    }
    uint64_t bytes = 0;
  };
  netsim::Network net;
  netsim::Host* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
  netsim::Host* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
  netsim::Router* r = net.add_router("r");
  net.connect(a, r,
              netsim::LinkConfig{common::Duration::micros(10), 0, 0.0});
  net.connect(b, r,
              netsim::LinkConfig{common::Duration::micros(10), 0, 0.0});
  ObserveTap tap;
  if (state.range(0)) r->add_tap(&tap);
  uint64_t delivered = 0;
  b->udp_bind(9000, [&](const packet::Decoded&, std::span<const uint8_t>) {
    ++delivered;
  });
  common::Bytes payload = make_payload(512);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      a->send_udp(b->address(), 1234, 9000, payload);
    net.run_for(common::Duration::millis(1));
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_RouterHopDelivery)->Arg(0)->Arg(1);

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Engine engine;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule(common::Duration::micros(i), [&counter] {
        ++counter;
      });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_EventLoopThroughput);

void BM_StreamReassembly(benchmark::State& state) {
  for (auto _ : state) {
    ids::StreamBuffer sb(64 * 1024);
    sb.set_base(0);
    auto chunk = make_payload(1460);
    // In-order fill followed by an out-of-order tail merge.
    for (uint32_t seq = 0; seq < 20 * 1460; seq += 1460)
      sb.add_segment(seq + 1460, chunk);  // gap at 0..1460
    sb.add_segment(0, chunk);             // fill the gap, merge all
    benchmark::DoNotOptimize(sb.contiguous().data());
  }
}
BENCHMARK(BM_StreamReassembly);

void BM_FragmentRoundTrip(benchmark::State& state) {
  auto payload = make_payload(static_cast<size_t>(state.range(0)));
  packet::IpOptions opt;
  opt.dont_fragment = false;
  opt.identification = 9;
  packet::Packet p = packet::make_udp(Ipv4Address(10, 0, 0, 1),
                                      Ipv4Address(10, 0, 0, 2), 1, 2,
                                      payload, opt);
  for (auto _ : state) {
    auto frags = packet::fragment(p, 1500);
    packet::Reassembler reassembler;
    std::optional<packet::Packet> whole;
    for (const auto& f : frags)
      whole = reassembler.add(common::SimTime(0), f.data());
    benchmark::DoNotOptimize(whole);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FragmentRoundTrip)->Arg(4000)->Arg(16000)->Arg(64000);

void BM_SpamScore(benchmark::State& state) {
  spamfilter::Scorer scorer;
  common::Rng rng(5);
  std::string message =
      spamfilter::make_spam_measurement_email(rng, "blocked.example");
  for (auto _ : state) {
    auto report = scorer.score_raw(message);
    benchmark::DoNotOptimize(report.score);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(message.size()));
}
BENCHMARK(BM_SpamScore);

}  // namespace

BENCHMARK_MAIN();
