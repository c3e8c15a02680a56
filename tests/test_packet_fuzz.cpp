// Property-based fuzzing of the wire codecs, seeded for reproducibility.
//
// Three properties, over randomized TCP/UDP/ICMP packets and DNS messages:
//   1. Round-trip: decode(encode(x)) reproduces every field we encode.
//   2. Robustness: decode() of a randomly mutated or truncated buffer
//      either fails cleanly or yields a self-consistent view — never a
//      crash or (under the ci.sh ASan/UBSan stage) undefined behaviour.
//   3. Lockstep: route_peek() accepts exactly what decode() accepts, in
//      both families, and names the same destination.
// A digest over both families pins every builder byte and every decoded
// field, so a codec rewrite that keeps the wire format can prove it.
// This is the receive path that impaired links exercise for real: byte
// corruption that slips past the checksums lands in these decoders.
#include <gtest/gtest.h>

#include "common/recordio.hpp"
#include "common/rng.hpp"
#include "packet/checksum.hpp"
#include "packet/fragment.hpp"
#include "packet/packet.hpp"
#include "proto/dns/message.hpp"

namespace sm {
namespace {

using common::Bytes;
using common::Ipv4Address;
using common::Rng;

Ipv4Address random_addr(Rng& rng) {
  return Ipv4Address(static_cast<uint32_t>(rng.next()));
}

Bytes random_payload(Rng& rng, size_t max_len) {
  Bytes out(rng.bounded(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.bounded(256));
  return out;
}

packet::IpOptions random_ip_options(Rng& rng) {
  packet::IpOptions ip;
  ip.ttl = static_cast<uint8_t>(1 + rng.bounded(255));
  ip.tos = static_cast<uint8_t>(rng.bounded(256));
  ip.identification = static_cast<uint16_t>(rng.bounded(65536));
  ip.dont_fragment = rng.chance(0.5);
  return ip;
}

/// Builds a random packet of a random flavour (TCP/UDP/ICMP).
packet::Packet random_packet(Rng& rng) {
  Bytes payload = random_payload(rng, 600);
  packet::IpOptions ip = random_ip_options(rng);
  switch (rng.bounded(3)) {
    case 0:
      return packet::make_tcp(
          random_addr(rng), random_addr(rng),
          static_cast<uint16_t>(rng.bounded(65536)),
          static_cast<uint16_t>(rng.bounded(65536)),
          static_cast<uint8_t>(rng.bounded(64)),
          static_cast<uint32_t>(rng.next()),
          static_cast<uint32_t>(rng.next()), payload, ip,
          static_cast<uint16_t>(rng.bounded(65536)));
    case 1:
      return packet::make_udp(random_addr(rng), random_addr(rng),
                              static_cast<uint16_t>(rng.bounded(65536)),
                              static_cast<uint16_t>(rng.bounded(65536)),
                              payload, ip);
    default:
      return packet::make_icmp(random_addr(rng), random_addr(rng),
                               static_cast<uint8_t>(rng.bounded(256)),
                               static_cast<uint8_t>(rng.bounded(256)),
                               static_cast<uint32_t>(rng.next()), payload,
                               ip);
  }
}

TEST(PacketFuzz, RoundTripPreservesEveryEncodedField) {
  Rng rng(0xF022);
  for (int iter = 0; iter < 500; ++iter) {
    Ipv4Address src = random_addr(rng), dst = random_addr(rng);
    uint16_t sport = static_cast<uint16_t>(rng.bounded(65536));
    uint16_t dport = static_cast<uint16_t>(rng.bounded(65536));
    Bytes payload = random_payload(rng, 400);
    packet::IpOptions ip = random_ip_options(rng);
    int flavour = static_cast<int>(rng.bounded(3));
    packet::Packet p;
    if (flavour == 0) {
      uint8_t flags = static_cast<uint8_t>(rng.bounded(64));
      uint32_t seq = static_cast<uint32_t>(rng.next());
      uint32_t ack = static_cast<uint32_t>(rng.next());
      p = packet::make_tcp(src, dst, sport, dport, flags, seq, ack,
                           payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->tcp);
      EXPECT_EQ(d->tcp->src_port, sport);
      EXPECT_EQ(d->tcp->dst_port, dport);
      EXPECT_EQ(d->tcp->flags, flags);
      EXPECT_EQ(d->tcp->seq, seq);
      EXPECT_EQ(d->tcp->ack, ack);
    } else if (flavour == 1) {
      p = packet::make_udp(src, dst, sport, dport, payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->udp);
      EXPECT_EQ(d->udp->src_port, sport);
      EXPECT_EQ(d->udp->dst_port, dport);
    } else {
      uint8_t type = static_cast<uint8_t>(rng.bounded(256));
      uint8_t code = static_cast<uint8_t>(rng.bounded(256));
      uint32_t rest = static_cast<uint32_t>(rng.next());
      p = packet::make_icmp(src, dst, type, code, rest, payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->icmp);
      EXPECT_EQ(d->icmp->type, type);
      EXPECT_EQ(d->icmp->code, code);
      EXPECT_EQ(d->icmp->rest, rest);
    }
    auto d = packet::decode(p);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->ip.src, src);
    EXPECT_EQ(d->ip.dst, dst);
    EXPECT_EQ(d->ip.ttl, ip.ttl);
    EXPECT_EQ(d->ip.tos, ip.tos);
    EXPECT_EQ(d->ip.identification, ip.identification);
    EXPECT_EQ(d->ip.dont_fragment, ip.dont_fragment);
    ASSERT_EQ(d->l4_payload.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           d->l4_payload.begin()));
    EXPECT_TRUE(packet::verify_checksums(
        std::span<const uint8_t>(p.data())));
  }
}

TEST(PacketFuzz, MutatedBuffersNeverCrashTheDecoder) {
  Rng rng(0xBADF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    packet::Packet p = random_packet(rng);
    Bytes wire = p.data();
    size_t flips = 1 + rng.bounded(8);
    for (size_t f = 0; f < flips && !wire.empty(); ++f) {
      wire[rng.bounded(wire.size())] ^=
          static_cast<uint8_t>(1 + rng.bounded(255));
    }
    // Must not crash; when decode succeeds the view must stay inside
    // the buffer (touch every byte the spans claim to reference).
    auto d = packet::decode(std::span<const uint8_t>(wire));
    if (d) {
      volatile uint8_t sink = 0;
      for (uint8_t b : d->l4_payload) sink = sink ^ b;
      (void)sink;
      EXPECT_LE(d->ip.header_length(), wire.size());
    }
    (void)packet::verify_checksums(std::span<const uint8_t>(wire));
  }
}

TEST(PacketFuzz, TruncatedBuffersNeverCrashTheDecoder) {
  Rng rng(0x7A11);
  for (int iter = 0; iter < 1000; ++iter) {
    packet::Packet p = random_packet(rng);
    const Bytes& wire = p.data();
    size_t cut = rng.bounded(wire.size() + 1);
    Bytes trunc(wire.begin(), wire.begin() + cut);
    auto d = packet::decode(std::span<const uint8_t>(trunc));
    if (d) {
      volatile uint8_t sink = 0;
      for (uint8_t b : d->l4_payload) sink = sink ^ b;
      (void)sink;
    }
    (void)packet::verify_checksums(std::span<const uint8_t>(trunc));
  }
}

// --- IPv6: random extension chains, fixpoint, truncation lockstep ---

common::Ipv6Address random_addr6(Rng& rng) {
  return common::Ipv6Address(rng.next(), rng.next());
}

packet::Ipv6Options random_ip6_options(Rng& rng) {
  packet::Ipv6Options ip;
  ip.hop_limit = static_cast<uint8_t>(1 + rng.bounded(255));
  ip.traffic_class = static_cast<uint8_t>(rng.bounded(256));
  ip.flow_label = static_cast<uint32_t>(rng.bounded(1u << 20));
  size_t chain = rng.bounded(4);  // 0..3 extension headers
  for (size_t i = 0; i < chain; ++i) {
    packet::Ipv6ExtSpec ext;
    // RFC 8200 §4.1: hop-by-hop is only valid immediately after the
    // fixed header, and decode() enforces it — so only offer it first.
    if (i == 0 && rng.chance(0.4)) {
      ext.type = static_cast<uint8_t>(packet::IpProto::HopByHop);
    } else {
      ext.type = rng.chance(0.5)
                     ? static_cast<uint8_t>(packet::IpProto::Routing)
                     : static_cast<uint8_t>(packet::IpProto::DestOpts);
    }
    ext.body = random_payload(rng, 24);
    ip.ext.push_back(std::move(ext));
  }
  return ip;
}

/// Builds a random v6 packet of a random flavour (TCP/UDP/ICMPv6), with
/// a random extension chain.
packet::Packet random_packet6(Rng& rng) {
  Bytes payload = random_payload(rng, 300);
  packet::Ipv6Options ip = random_ip6_options(rng);
  switch (rng.bounded(3)) {
    case 0:
      return packet::make_tcp6(
          random_addr6(rng), random_addr6(rng),
          static_cast<uint16_t>(rng.bounded(65536)),
          static_cast<uint16_t>(rng.bounded(65536)),
          static_cast<uint8_t>(rng.bounded(64)),
          static_cast<uint32_t>(rng.next()),
          static_cast<uint32_t>(rng.next()), payload, ip,
          static_cast<uint16_t>(rng.bounded(65536)));
    case 1:
      return packet::make_udp6(random_addr6(rng), random_addr6(rng),
                               static_cast<uint16_t>(rng.bounded(65536)),
                               static_cast<uint16_t>(rng.bounded(65536)),
                               payload, ip);
    default:
      return packet::make_icmp6(random_addr6(rng), random_addr6(rng),
                                static_cast<uint8_t>(rng.bounded(256)),
                                static_cast<uint8_t>(rng.bounded(256)),
                                static_cast<uint32_t>(rng.next()), payload,
                                ip);
  }
}

TEST(PacketFuzz, Ipv6RoundTripPreservesEveryEncodedField) {
  Rng rng(0x6F022);
  for (int iter = 0; iter < 3000; ++iter) {
    common::Ipv6Address src = random_addr6(rng), dst = random_addr6(rng);
    uint16_t sport = static_cast<uint16_t>(rng.bounded(65536));
    uint16_t dport = static_cast<uint16_t>(rng.bounded(65536));
    Bytes payload = random_payload(rng, 300);
    packet::Ipv6Options ip = random_ip6_options(rng);
    int flavour = static_cast<int>(rng.bounded(3));
    packet::Packet p;
    if (flavour == 0) {
      uint8_t flags = static_cast<uint8_t>(rng.bounded(64));
      uint32_t seq = static_cast<uint32_t>(rng.next());
      uint32_t ack = static_cast<uint32_t>(rng.next());
      p = packet::make_tcp6(src, dst, sport, dport, flags, seq, ack,
                            payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->tcp);
      EXPECT_EQ(d->tcp->src_port, sport);
      EXPECT_EQ(d->tcp->dst_port, dport);
      EXPECT_EQ(d->tcp->flags, flags);
      EXPECT_EQ(d->tcp->seq, seq);
      EXPECT_EQ(d->tcp->ack, ack);
    } else if (flavour == 1) {
      p = packet::make_udp6(src, dst, sport, dport, payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->udp);
      EXPECT_EQ(d->udp->src_port, sport);
      EXPECT_EQ(d->udp->dst_port, dport);
    } else {
      uint8_t type = static_cast<uint8_t>(rng.bounded(256));
      uint8_t code = static_cast<uint8_t>(rng.bounded(256));
      uint32_t rest = static_cast<uint32_t>(rng.next());
      p = packet::make_icmp6(src, dst, type, code, rest, payload, ip);
      auto d = packet::decode(p);
      ASSERT_TRUE(d) << "iter " << iter;
      ASSERT_TRUE(d->icmp);
      EXPECT_EQ(d->icmp->type, type);
      EXPECT_EQ(d->icmp->code, code);
      EXPECT_EQ(d->icmp->rest, rest);
    }
    auto d = packet::decode(p);
    ASSERT_TRUE(d);
    ASSERT_TRUE(d->is_v6());
    EXPECT_EQ(d->ip6->src, src);
    EXPECT_EQ(d->ip6->dst, dst);
    EXPECT_EQ(d->ip6->hop_limit, ip.hop_limit);
    EXPECT_EQ(d->ip6->traffic_class, ip.traffic_class);
    EXPECT_EQ(d->ip6->flow_label, ip.flow_label);
    ASSERT_EQ(d->ip6->ext_count, ip.ext.size()) << "iter " << iter;
    for (size_t i = 0; i < ip.ext.size(); ++i)
      EXPECT_EQ(d->ip6->ext_headers()[i].type, ip.ext[i].type);
    ASSERT_EQ(d->l4_payload.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           d->l4_payload.begin()));
    EXPECT_TRUE(packet::verify_checksums(
        std::span<const uint8_t>(p.data())));
  }
}

TEST(PacketFuzz, Ipv6DecodeReassembleReachesFixpoint) {
  Rng rng(0x6F1C5);
  for (int iter = 0; iter < 3000; ++iter) {
    packet::Packet p = random_packet6(rng);
    std::span<const uint8_t> wire(p.data());
    auto d = packet::decode(wire);
    ASSERT_TRUE(d && d->is_v6()) << "iter " << iter;
    packet::Packet rebuilt = packet::reassemble6(
        *d->ip6, wire.subspan(d->ip6->header_length()));
    ASSERT_EQ(rebuilt.data().size(), wire.size()) << "iter " << iter;
    EXPECT_TRUE(std::equal(rebuilt.data().begin(), rebuilt.data().end(),
                           wire.begin()))
        << "iter " << iter;
  }
}

TEST(PacketFuzz, Ipv6TruncationAtEveryByteKeepsDecodeRoutePeekLockstep) {
  // The sweep the dual-stack contract demands: for every prefix of every
  // packet, decode() and route_peek() accept or reject the exact same
  // bytes, and agree on the destination when both accept. Well past 10k
  // cases (~150 packets x ~250 byte average length).
  Rng rng(0x67A11);
  size_t cases = 0;
  for (int iter = 0; iter < 150; ++iter) {
    packet::Packet p = random_packet6(rng);
    const Bytes& wire = p.data();
    for (size_t cut = 0; cut <= wire.size(); ++cut, ++cases) {
      std::span<const uint8_t> trunc(wire.data(), cut);
      auto d = packet::decode(trunc);
      auto peek = packet::route_peek(trunc);
      ASSERT_EQ(d.has_value(), peek.has_value())
          << "iter " << iter << " cut " << cut;
      if (d) {
        EXPECT_EQ(*peek, d->dst_addr());
        volatile uint8_t sink = 0;
        for (uint8_t b : d->l4_payload) sink = sink ^ b;
        (void)sink;
        EXPECT_LE(d->ip6->header_length(), cut);
      }
      (void)packet::verify_checksums(trunc);
    }
  }
  EXPECT_GE(cases, 10000u);
}

TEST(PacketFuzz, Ipv6MutatedBuffersNeverCrashTheDecoder) {
  Rng rng(0x6BADF00D);
  for (int iter = 0; iter < 3000; ++iter) {
    packet::Packet p = random_packet6(rng);
    Bytes wire = p.data();
    size_t flips = 1 + rng.bounded(8);
    for (size_t f = 0; f < flips && !wire.empty(); ++f) {
      wire[rng.bounded(wire.size())] ^=
          static_cast<uint8_t>(1 + rng.bounded(255));
    }
    // Mutation may flip the version nibble or splice the ext chain; the
    // decode/route_peek lockstep must survive arbitrary bytes.
    auto d = packet::decode(std::span<const uint8_t>(wire));
    auto peek = packet::route_peek(std::span<const uint8_t>(wire));
    ASSERT_EQ(d.has_value(), peek.has_value()) << "iter " << iter;
    if (d) {
      EXPECT_EQ(*peek, d->dst_addr());
      volatile uint8_t sink = 0;
      for (uint8_t b : d->l4_payload) sink = sink ^ b;
      (void)sink;
      EXPECT_LE(d->net_header_length(), wire.size());
    }
    (void)packet::verify_checksums(std::span<const uint8_t>(wire));
  }
}

// --- Both families: decode/route_peek lockstep and a field-level digest ---

/// Random draws for one datagram, taken in a fixed order (a builder's
/// argument list would leave the order to the compiler).
struct Draw {
  Bytes payload;
  Ipv4Address src, dst;
  common::Ipv6Address src6, dst6;
  uint16_t sport, dport, window;
  uint8_t flags, type, code;
  uint32_t seq, ack, rest;

  explicit Draw(Rng& rng, size_t max_payload)
      : payload(random_payload(rng, max_payload)),
        src(random_addr(rng)),
        dst(random_addr(rng)),
        src6(addr6(rng)),
        dst6(addr6(rng)),
        sport(static_cast<uint16_t>(rng.bounded(65536))),
        dport(static_cast<uint16_t>(rng.bounded(65536))),
        window(static_cast<uint16_t>(rng.bounded(65536))),
        flags(static_cast<uint8_t>(rng.bounded(64))),
        type(static_cast<uint8_t>(rng.bounded(256))),
        code(static_cast<uint8_t>(rng.bounded(256))),
        seq(static_cast<uint32_t>(rng.next())),
        ack(static_cast<uint32_t>(rng.next())),
        rest(static_cast<uint32_t>(rng.next())) {}

  static common::Ipv6Address addr6(Rng& rng) {
    uint64_t hi = rng.next();
    return common::Ipv6Address(hi, rng.next());
  }
};

Bytes random_words(Rng& rng, size_t words) {
  Bytes out(4 * words);
  for (auto& b : out) b = static_cast<uint8_t>(rng.bounded(256));
  return out;
}

/// A v4 datagram whose transport bytes are the drawn payload, verbatim,
/// behind a header carrying `ip_options` (a multiple of 4 bytes).
packet::Packet raw_v4(const Draw& x, uint8_t protocol,
                      std::span<const uint8_t> ip_options,
                      const packet::IpOptions& opt) {
  packet::Ipv4Header h;
  h.src = x.src;
  h.dst = x.dst;
  h.protocol = protocol;
  h.ttl = opt.ttl;
  h.tos = opt.tos;
  h.identification = opt.identification;
  h.dont_fragment = opt.dont_fragment;
  h.options = ip_options;
  return packet::reassemble(h, x.payload);
}

/// The same TCP datagram with `options` (a multiple of 4 bytes) spliced
/// in after the fixed TCP header, data offset and checksum fixed up.
packet::Packet with_tcp_options(const packet::Packet& p,
                                std::span<const uint8_t> options) {
  auto d = packet::decode(p);
  std::span<const uint8_t> wire(p.data());
  Bytes seg(wire.begin() + static_cast<std::ptrdiff_t>(d->ip.header_length()),
            wire.end());
  seg.insert(seg.begin() + 20, options.begin(), options.end());
  seg[12] = static_cast<uint8_t>((5 + options.size() / 4) << 4);
  seg[16] = seg[17] = 0;
  uint16_t csum = packet::pseudo_header_checksum(
      d->ip.src, d->ip.dst, static_cast<uint8_t>(packet::IpProto::Tcp), seg);
  seg[16] = static_cast<uint8_t>(csum >> 8);
  seg[17] = static_cast<uint8_t>(csum);
  return packet::reassemble(d->ip, seg);
}

/// Every v4 shape a transit router forwards: TCP (some with options),
/// UDP, ICMP and another protocol, some with IP options, and some split
/// by packet::fragment into a first and non-first fragments.
std::vector<packet::Packet> random_v4_datagrams(Rng& rng) {
  Draw x(rng, 300);
  packet::IpOptions ip = random_ip_options(rng);
  bool split = rng.chance(0.3);
  if (split) ip.dont_fragment = false;
  packet::Packet p;
  switch (rng.bounded(5)) {
    case 0:
      p = packet::make_tcp(x.src, x.dst, x.sport, x.dport, x.flags, x.seq,
                           x.ack, x.payload, ip, x.window);
      if (rng.chance(0.5)) {
        size_t words = 1 + rng.bounded(10);
        p = with_tcp_options(p, random_words(rng, words));
      }
      break;
    case 1:
      p = packet::make_udp(x.src, x.dst, x.sport, x.dport, x.payload, ip);
      break;
    case 2:
      p = packet::make_icmp(x.src, x.dst, x.type, x.code, x.rest, x.payload,
                            ip);
      break;
    case 3:
      // The family-blind builders, with their default options.
      p = rng.chance(0.5)
              ? packet::make_tcp(common::IpAddress(x.src),
                                 common::IpAddress(x.dst), x.sport, x.dport,
                                 x.flags, x.seq, x.ack, x.payload)
              : packet::make_udp(common::IpAddress(x.src),
                                 common::IpAddress(x.dst), x.sport, x.dport,
                                 x.payload);
      break;
    default: {
      uint8_t proto = rng.chance(0.5) ? 47 : 132;  // GRE or SCTP
      Bytes opts = random_words(rng, rng.bounded(11));
      p = raw_v4(x, proto, opts, ip);
      break;
    }
  }
  if (rng.chance(0.3)) {
    // Re-encode the header with IP options in front of the same segment.
    auto d = packet::decode(p);
    Bytes opts = random_words(rng, 1 + rng.bounded(10));
    packet::Ipv4Header h = d->ip;
    h.options = opts;
    p = packet::reassemble(
        h, std::span<const uint8_t>(p.data()).subspan(d->ip.header_length()));
  }
  std::vector<packet::Packet> out{p};
  if (split && p.size() > 68) {
    auto frags = packet::fragment(p, 68 + rng.bounded(p.size() - 68));
    if (frags.size() > 1) out.insert(out.end(), frags.begin(), frags.end());
  }
  return out;
}

/// v6 counterpart: TCP, UDP or ICMPv6 over a random extension chain, and
/// sometimes its fragment6 split.
std::vector<packet::Packet> random_v6_datagrams(Rng& rng) {
  Draw x(rng, 300);
  packet::Ipv6Options ip = random_ip6_options(rng);
  packet::Packet p;
  switch (rng.bounded(4)) {
    case 0:
      p = packet::make_tcp6(x.src6, x.dst6, x.sport, x.dport, x.flags, x.seq,
                            x.ack, x.payload, ip, x.window);
      break;
    case 1:
      p = packet::make_udp6(x.src6, x.dst6, x.sport, x.dport, x.payload, ip);
      break;
    case 2:
      p = packet::make_icmp6(x.src6, x.dst6, x.type, x.code, x.rest,
                             x.payload, ip);
      break;
    default:
      p = rng.chance(0.5)
              ? packet::make_tcp(common::IpAddress(x.src6),
                                 common::IpAddress(x.dst6), x.sport, x.dport,
                                 x.flags, x.seq, x.ack, x.payload)
              : packet::make_udp(common::IpAddress(x.src6),
                                 common::IpAddress(x.dst6), x.sport, x.dport,
                                 x.payload);
      break;
  }
  std::vector<packet::Packet> out{p};
  if (rng.chance(0.3) && p.size() > 120) {
    size_t mtu = 120 + rng.bounded(p.size() - 120);
    auto frags = packet::fragment6(p, mtu, static_cast<uint32_t>(rng.next()));
    if (frags.size() > 1) out.insert(out.end(), frags.begin(), frags.end());
  }
  return out;
}

/// Every truncation of `wire`, then `mutations` copies with 1..8 random
/// byte flips each. Three flips in four land in the first 100 bytes,
/// where the length, offset and fragment fields are.
template <typename Fn>
void for_each_damaged(const Bytes& wire, size_t mutations, Rng& rng, Fn fn) {
  for (size_t cut = 0; cut <= wire.size(); ++cut)
    fn(std::span<const uint8_t>(wire.data(), cut));
  for (size_t m = 0; m < mutations; ++m) {
    Bytes mutated = wire;
    size_t flips = 1 + rng.bounded(8);
    for (size_t f = 0; f < flips && !mutated.empty(); ++f) {
      size_t reach = rng.chance(0.75) ? std::min<size_t>(mutated.size(), 100)
                                      : mutated.size();
      mutated[rng.bounded(reach)] ^=
          static_cast<uint8_t>(1 + rng.bounded(255));
    }
    fn(std::span<const uint8_t>(mutated));
  }
}

TEST(PacketFuzz, Ipv4TruncationAndMutationKeepDecodeRoutePeekLockstep) {
  // The v4 half of the transit contract: for every prefix and many
  // mutations of every generated datagram — IP options, TCP options,
  // first and non-first fragments, and transports the codec does not
  // parse included — decode() accepts exactly when route_peek() does,
  // and both name the same destination.
  Rng rng(0x4A11C0DE);
  size_t cases = 0, mismatches = 0, accepted = 0;
  size_t ip_options = 0, tcp_options = 0, later_fragments = 0, other = 0;
  for (int iter = 0; iter < 600; ++iter) {
    for (const packet::Packet& p : random_v4_datagrams(rng)) {
      for_each_damaged(p.data(), 12, rng, [&](std::span<const uint8_t> w) {
        ++cases;
        auto d = packet::decode(w);
        auto peek = packet::route_peek(w);
        if (d.has_value() != peek.has_value() ||
            (d && *peek != d->dst_addr())) {
          if (mismatches++ == 0)
            ADD_FAILURE() << "first mismatch: iter " << iter << ", "
                          << w.size() << " bytes, decode "
                          << d.has_value() << ", route_peek "
                          << peek.has_value();
          return;
        }
        if (!d) return;
        ++accepted;
        if (!d->is_v6()) {
          if (!d->ip.options.empty()) ++ip_options;
          if (d->tcp && !d->tcp->options.empty()) ++tcp_options;
          if (d->ip.fragment_offset != 0)
            ++later_fragments;
          else if (!d->tcp && !d->udp && !d->icmp)
            ++other;
        }
      });
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
  EXPECT_GE(cases, 100000u);
  // The generator reaches every shape the peek treats specially.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(ip_options, 1000u);
  EXPECT_GT(tcp_options, 400u);
  EXPECT_GT(later_fragments, 1000u);
  EXPECT_GT(other, 1000u);
}

/// Appends a span as (offset into `base`, size); a default (null) span
/// reads as offset 0xFFFFFFFF.
void put_span(common::ByteWriter& w, std::span<const uint8_t> s,
              const uint8_t* base) {
  w.u32(s.data() == nullptr ? 0xFFFFFFFFu
                            : static_cast<uint32_t>(s.data() - base));
  w.u32(static_cast<uint32_t>(s.size()));
}

/// Appends everything the codec says about `wire`: decode()'s
/// accept/reject and every field of the result (spans as offset and
/// size), route_peek()'s answer, and verify_checksums().
void describe(common::ByteWriter& w, std::span<const uint8_t> wire) {
  const uint8_t* base = wire.data();
  auto d = packet::decode(wire);
  w.u8(d.has_value());
  if (d) {
    const packet::Ipv4Header& ip = d->ip;
    w.u8(ip.tos);
    w.u16(ip.total_length);
    w.u16(ip.identification);
    w.u8(ip.dont_fragment);
    w.u8(ip.more_fragments);
    w.u16(ip.fragment_offset);
    w.u8(ip.ttl);
    w.u8(ip.protocol);
    w.u16(ip.checksum);
    w.u32(ip.src.value());
    w.u32(ip.dst.value());
    put_span(w, ip.options, base);
    w.u8(d->ip6.has_value());
    if (d->ip6) {
      const packet::Ipv6Header& h = *d->ip6;
      w.u8(h.traffic_class);
      w.u32(h.flow_label);
      w.u16(h.payload_length);
      w.u8(h.next_header);
      w.u8(h.hop_limit);
      w.bytes(h.src.to_bytes());
      w.bytes(h.dst.to_bytes());
      for (const packet::Ipv6ExtHeader& e : h.ext) {
        w.u8(e.type);
        put_span(w, e.data, base);
      }
      w.u8(h.ext_count);
      w.u32(static_cast<uint32_t>(h.ext_length));
      w.u8(h.l4_proto);
      w.u8(h.has_fragment);
      w.u8(h.more_fragments);
      w.u16(h.fragment_offset);
      w.u32(h.fragment_id);
      w.u8(h.frag_next);
      w.u32(static_cast<uint32_t>(h.frag_hdr_offset));
      w.u32(static_cast<uint32_t>(h.frag_prev_nh_offset));
    }
    w.u8(d->tcp.has_value());
    if (d->tcp) {
      const packet::TcpHeader& t = *d->tcp;
      w.u16(t.src_port);
      w.u16(t.dst_port);
      w.u32(t.seq);
      w.u32(t.ack);
      w.u8(t.flags);
      w.u16(t.window);
      w.u16(t.checksum);
      w.u16(t.urgent);
      put_span(w, t.options, base);
    }
    w.u8(d->udp.has_value());
    if (d->udp) {
      w.u16(d->udp->src_port);
      w.u16(d->udp->dst_port);
      w.u16(d->udp->length);
      w.u16(d->udp->checksum);
    }
    w.u8(d->icmp.has_value());
    if (d->icmp) {
      w.u8(d->icmp->type);
      w.u8(d->icmp->code);
      w.u16(d->icmp->checksum);
      w.u32(d->icmp->rest);
    }
    put_span(w, d->l4_payload, base);
  }
  auto peek = packet::route_peek(wire);
  w.u8(peek.has_value());
  if (peek) {
    w.u8(peek->is_v6());
    w.u32(peek->v4().value());
    w.bytes(peek->v6().to_bytes());
  }
  w.u8(packet::verify_checksums(wire));
}

TEST(PacketFuzz, CodecDigestIsStable) {
  // Pins every byte the builders write and every field the decoder
  // reads, over both families with IP options, extension chains,
  // fragments, every truncation and random byte flips. A codec change
  // that means to keep the wire format must keep both digests; one that
  // means to change it updates them and says why.
  Rng rng(0xC0DEC5EED);
  uint32_t built = 0, read = 0;
  size_t cases = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<packet::Packet> datagrams =
        iter % 2 == 0 ? random_v4_datagrams(rng) : random_v6_datagrams(rng);
    for (const packet::Packet& p : datagrams) {
      built = common::crc32(p.data(), built);
      for_each_damaged(p.data(), 6, rng, [&](std::span<const uint8_t> w) {
        ++cases;
        common::ByteWriter out;
        describe(out, w);
        read = common::crc32(out.data(), read);
      });
    }
  }
  EXPECT_EQ(cases, 111739u);
  EXPECT_EQ(built, 0x1c6faa54u);
  EXPECT_EQ(read, 0xf2273e2bu);
}

// --- DNS message codec ---

proto::dns::Message random_dns_message(Rng& rng) {
  using namespace proto::dns;
  Message m;
  m.header.id = static_cast<uint16_t>(rng.bounded(65536));
  m.header.qr = rng.chance(0.5);
  m.header.rd = rng.chance(0.5);
  m.header.aa = rng.chance(0.5);
  m.header.rcode = static_cast<Rcode>(rng.bounded(6));
  auto random_name = [&rng]() {
    std::string s;
    size_t labels = 1 + rng.bounded(4);
    for (size_t i = 0; i < labels; ++i) {
      if (i) s += '.';
      s += rng.alnum_string(1 + rng.bounded(12));
    }
    return Name(s);
  };
  size_t nq = 1 + rng.bounded(2);
  for (size_t i = 0; i < nq; ++i)
    m.questions.push_back(
        {random_name(), rng.chance(0.5) ? RecordType::A : RecordType::MX});
  size_t na = rng.bounded(4);
  for (size_t i = 0; i < na; ++i) {
    switch (rng.bounded(4)) {
      case 0:
        m.answers.push_back(ResourceRecord::a(
            random_name(), Ipv4Address(static_cast<uint32_t>(rng.next()))));
        break;
      case 1:
        m.answers.push_back(ResourceRecord::mx(
            random_name(), static_cast<uint16_t>(rng.bounded(100)),
            random_name()));
        break;
      case 2:
        m.answers.push_back(
            ResourceRecord::cname(random_name(), random_name()));
        break;
      default:
        m.answers.push_back(
            ResourceRecord::txt(random_name(), rng.alnum_string(20)));
        break;
    }
  }
  return m;
}

TEST(PacketFuzz, DnsRoundTripOverUdpPreservesStructure) {
  Rng rng(0xD0015);
  for (int iter = 0; iter < 300; ++iter) {
    proto::dns::Message m = random_dns_message(rng);
    // Through the full path: DNS wire → UDP/IP packet → decode both.
    Bytes dns_wire = proto::dns::encode(m);
    packet::Packet p = packet::make_udp(random_addr(rng), random_addr(rng),
                                        5353, 53, dns_wire);
    auto d = packet::decode(p);
    ASSERT_TRUE(d && d->udp);
    auto back = proto::dns::decode(d->l4_payload);
    ASSERT_TRUE(back) << "iter " << iter;
    EXPECT_EQ(back->header.id, m.header.id);
    EXPECT_EQ(back->header.qr, m.header.qr);
    EXPECT_EQ(back->header.rcode, m.header.rcode);
    ASSERT_EQ(back->questions.size(), m.questions.size());
    for (size_t i = 0; i < m.questions.size(); ++i) {
      EXPECT_EQ(back->questions[i].name, m.questions[i].name);
      EXPECT_EQ(back->questions[i].type, m.questions[i].type);
    }
    ASSERT_EQ(back->answers.size(), m.answers.size());
    for (size_t i = 0; i < m.answers.size(); ++i) {
      EXPECT_EQ(back->answers[i].name, m.answers[i].name);
      EXPECT_EQ(back->answers[i].type, m.answers[i].type);
    }
  }
}

TEST(PacketFuzz, MutatedDnsMessagesNeverCrashTheDecoder) {
  Rng rng(0xD0016);
  for (int iter = 0; iter < 1500; ++iter) {
    Bytes wire = proto::dns::encode(random_dns_message(rng));
    size_t flips = 1 + rng.bounded(6);
    for (size_t f = 0; f < flips && !wire.empty(); ++f)
      wire[rng.bounded(wire.size())] ^=
          static_cast<uint8_t>(1 + rng.bounded(255));
    if (rng.chance(0.3) && !wire.empty())
      wire.resize(rng.bounded(wire.size()));
    auto back = proto::dns::decode(std::span<const uint8_t>(wire));
    if (back) {
      // Whatever decoded must be re-encodable without crashing.
      (void)proto::dns::encode(*back);
    }
  }
}

}  // namespace
}  // namespace sm
