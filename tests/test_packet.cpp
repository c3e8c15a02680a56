#include <gtest/gtest.h>

#include "packet/checksum.hpp"
#include "packet/packet.hpp"

namespace sm::packet {
namespace {

using common::Bytes;
using common::Ipv4Address;

const Ipv4Address kSrc(10, 0, 0, 1);
const Ipv4Address kDst(192, 0, 2, 80);

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), static_cast<uint16_t>(~0xddf2 & 0xFFFF));
}

TEST(Checksum, OddLengthPadsWithZero) {
  Bytes even{0x12, 0x34, 0xAB, 0x00};
  Bytes odd{0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, EmptyIsAllOnes) {
  EXPECT_EQ(internet_checksum({}), 0xFFFF);
}

TEST(MakeTcp, RoundTripsThroughDecode) {
  Bytes payload = common::to_bytes("hello");
  Packet p = make_tcp(kSrc, kDst, 1234, 80,
                      TcpFlags::kSyn | TcpFlags::kAck, 111, 222, payload);
  auto d = decode(p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->ip.src, kSrc);
  EXPECT_EQ(d->ip.dst, kDst);
  EXPECT_EQ(d->ip.protocol, 6);
  ASSERT_TRUE(d->tcp);
  EXPECT_EQ(d->tcp->src_port, 1234);
  EXPECT_EQ(d->tcp->dst_port, 80);
  EXPECT_EQ(d->tcp->seq, 111u);
  EXPECT_EQ(d->tcp->ack, 222u);
  EXPECT_TRUE(d->tcp->syn());
  EXPECT_TRUE(d->tcp->ack_flag());
  EXPECT_FALSE(d->tcp->rst());
  EXPECT_EQ(common::to_string(d->l4_payload), "hello");
}

TEST(MakeTcp, ChecksumsVerify) {
  Bytes payload = common::to_bytes("data!");
  Packet p = make_tcp(kSrc, kDst, 4000, 443, TcpFlags::kAck, 9, 10, payload);
  EXPECT_TRUE(verify_checksums(p.data()));
}

TEST(MakeTcp, CorruptedPayloadFailsChecksum) {
  Bytes payload = common::to_bytes("data!");
  Packet p = make_tcp(kSrc, kDst, 4000, 443, TcpFlags::kAck, 9, 10, payload);
  p.data().back() ^= 0xFF;
  EXPECT_FALSE(verify_checksums(p.data()));
}

TEST(MakeUdp, RoundTripsThroughDecode) {
  Bytes payload = common::to_bytes("dns-ish");
  Packet p = make_udp(kSrc, kDst, 5353, 53, payload);
  auto d = decode(p);
  ASSERT_TRUE(d);
  ASSERT_TRUE(d->udp);
  EXPECT_EQ(d->udp->src_port, 5353);
  EXPECT_EQ(d->udp->dst_port, 53);
  EXPECT_EQ(d->udp->length, 8 + payload.size());
  EXPECT_EQ(common::to_string(d->l4_payload), "dns-ish");
  EXPECT_TRUE(verify_checksums(p.data()));
}

TEST(MakeUdp, EmptyPayload) {
  Packet p = make_udp(kSrc, kDst, 1, 2, {});
  auto d = decode(p);
  ASSERT_TRUE(d);
  EXPECT_TRUE(d->l4_payload.empty());
  EXPECT_TRUE(verify_checksums(p.data()));
}

TEST(MakeIcmp, EchoRoundTrip) {
  Bytes payload = common::to_bytes("ping");
  Packet p = make_icmp(kSrc, kDst, IcmpHeader::kEchoRequest, 0,
                       (7u << 16) | 1u, payload);
  auto d = decode(p);
  ASSERT_TRUE(d);
  ASSERT_TRUE(d->icmp);
  EXPECT_EQ(d->icmp->type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(d->icmp->rest >> 16, 7u);
  EXPECT_TRUE(verify_checksums(p.data()));
}

TEST(Decode, RejectsTruncated) {
  Packet p = make_tcp(kSrc, kDst, 1, 2, TcpFlags::kSyn, 0, 0);
  Bytes truncated(p.data().begin(), p.data().begin() + 15);
  EXPECT_FALSE(decode(truncated));
}

TEST(Decode, RejectsBadVersion) {
  Packet p = make_udp(kSrc, kDst, 1, 2, {});
  p.data()[0] = 0x65;  // version 6
  EXPECT_FALSE(decode(p.data()));
}

TEST(Decode, RejectsInconsistentLength) {
  Packet p = make_udp(kSrc, kDst, 1, 2, {});
  p.data()[2] = 0xFF;  // total_length way beyond buffer
  p.data()[3] = 0xFF;
  EXPECT_FALSE(decode(p.data()));
}

TEST(Decode, EmptyInput) {
  EXPECT_FALSE(decode(std::span<const uint8_t>{}));
}

TEST(IpOptionsTest, TtlAndDfPropagate) {
  IpOptions opt;
  opt.ttl = 3;
  opt.dont_fragment = false;
  opt.identification = 0x4242;
  Packet p = make_udp(kSrc, kDst, 1, 2, {}, opt);
  auto d = decode(p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->ip.ttl, 3);
  EXPECT_FALSE(d->ip.dont_fragment);
  EXPECT_EQ(d->ip.identification, 0x4242);
}

TEST(DecrementTtl, DecrementsAndKeepsChecksumValid) {
  Packet p = make_udp(kSrc, kDst, 1, 2, {});
  ASSERT_TRUE(verify_checksums(p.data()));
  ASSERT_TRUE(decrement_ttl(p.data()));
  auto d = decode(p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->ip.ttl, 63);
  EXPECT_TRUE(verify_checksums(p.data()));
}

TEST(DecrementTtl, StopsAtZero) {
  IpOptions opt;
  opt.ttl = 1;
  Packet p = make_udp(kSrc, kDst, 1, 2, {}, opt);
  ASSERT_TRUE(decrement_ttl(p.data()));  // 1 -> 0
  EXPECT_EQ(p.data()[8], 0);
  EXPECT_FALSE(decrement_ttl(p.data()));  // refuses below 0
}

TEST(DecrementTtl, RejectsShortBuffer) {
  Bytes tiny{1, 2, 3};
  EXPECT_FALSE(decrement_ttl(tiny));
}

// Property sweep: TTL decrement preserves checksum validity for many TTLs.
class TtlSweep : public ::testing::TestWithParam<int> {};

TEST_P(TtlSweep, ChecksumStaysValid) {
  IpOptions opt;
  opt.ttl = static_cast<uint8_t>(GetParam());
  Packet p = make_tcp(kSrc, kDst, 1, 2, TcpFlags::kSyn, 0, 0, {}, opt);
  while (p.data()[8] > 0 && decrement_ttl(p.data())) {
    EXPECT_TRUE(verify_checksums(p.data())) << "ttl=" << int(p.data()[8]);
  }
}

INSTANTIATE_TEST_SUITE_P(VariousTtls, TtlSweep,
                         ::testing::Values(1, 2, 5, 64, 128, 255));

TEST(Reassemble, PreservesHeaderFields) {
  Packet p = make_tcp(kSrc, kDst, 1, 2, TcpFlags::kAck, 5, 6,
                      common::to_bytes("xyz"));
  auto d = decode(p);
  ASSERT_TRUE(d);
  size_t ihl = d->ip.header_length();
  Packet rebuilt = reassemble(
      d->ip, std::span<const uint8_t>(p.data()).subspan(ihl));
  EXPECT_EQ(rebuilt.data(), p.data());
}

// --- IPv6 builders and normalization (thin units; depth in the fuzz) ---

TEST(Ipv6, TcpBuilderDecodesWithExtChain) {
  common::Ipv6Address src6 = common::map_v6(kSrc);
  common::Ipv6Address dst6 = common::map_v6(kDst);
  Ipv6Options opt;
  opt.hop_limit = 33;
  opt.ext.push_back({static_cast<uint8_t>(IpProto::HopByHop), {1, 2, 3}});
  opt.ext.push_back({static_cast<uint8_t>(IpProto::DestOpts), {}});
  Bytes payload = common::to_bytes("hello v6");
  Packet p = make_tcp6(src6, dst6, 4000, 80, TcpFlags::kSyn, 7, 0, payload,
                       opt);
  auto d = decode(p);
  ASSERT_TRUE(d && d->is_v6() && d->tcp);
  EXPECT_EQ(d->ip6->src, src6);
  EXPECT_EQ(d->ip6->dst, dst6);
  EXPECT_EQ(d->ip6->hop_limit, 33);
  EXPECT_EQ(d->ip6->ext_count, 2u);
  EXPECT_EQ(d->l4_proto(), static_cast<uint8_t>(IpProto::Tcp));
  EXPECT_EQ(common::to_string(d->l4_payload), "hello v6");
  EXPECT_TRUE(verify_checksums(p.data()));
  // Family-agnostic accessors agree with the v6 header.
  EXPECT_EQ(d->src_addr(), common::IpAddress(src6));
  EXPECT_EQ(d->ttl_hops(), 33);
}

TEST(Ipv6, RoutePeekMatchesDecodeDestination) {
  Packet p = make_udp6(common::map_v6(kSrc), common::map_v6(kDst), 1, 2,
                       common::to_bytes("x"));
  auto peek = route_peek(p.data());
  ASSERT_TRUE(peek);
  EXPECT_EQ(*peek, common::IpAddress(common::map_v6(kDst)));
}

TEST(Ipv6, StripExtHeadersNormalizes) {
  Ipv6Options opt;
  opt.ext.push_back({static_cast<uint8_t>(IpProto::HopByHop), {}});
  Packet with_ext = make_tcp6(common::map_v6(kSrc), common::map_v6(kDst),
                              4000, 80, TcpFlags::kAck, 1, 1,
                              common::to_bytes("falun"), opt);
  Packet bare = make_tcp6(common::map_v6(kSrc), common::map_v6(kDst), 4000,
                          80, TcpFlags::kAck, 1, 1,
                          common::to_bytes("falun"));
  ASSERT_TRUE(strip_ext_headers6(with_ext));
  EXPECT_EQ(with_ext.data(), bare.data());
  // Already-bare packets are untouched and report no rewrite.
  EXPECT_FALSE(strip_ext_headers6(bare));
}

TEST(Ipv6, HopLimitDecrementAndSet) {
  Packet p = make_icmp6(common::map_v6(kSrc), common::map_v6(kDst),
                        IcmpHeader::kEchoRequest6, 0, 42);
  ASSERT_TRUE(decrement_ttl(p.data()));
  auto d = decode(p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->ip6->hop_limit, 63);
  ASSERT_TRUE(set_ttl(p.data(), 5));
  EXPECT_EQ(decode(p)->ip6->hop_limit, 5);
  // v6 has no header checksum to fix; the ICMPv6 one must still verify.
  EXPECT_TRUE(verify_checksums(p.data()));
}

}  // namespace
}  // namespace sm::packet
