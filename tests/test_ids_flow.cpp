#include <gtest/gtest.h>

#include "ids/flow.hpp"
#include "packet/packet.hpp"

namespace sm::ids {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;
using packet::TcpFlags;

const Ipv4Address kClient(10, 0, 0, 1);
const Ipv4Address kServer(192, 0, 2, 80);

packet::Decoded tcp_packet(Ipv4Address src, Ipv4Address dst, uint16_t sp,
                           uint16_t dp, uint8_t flags, uint32_t seq,
                           uint32_t ack, const common::Bytes& payload,
                           common::Bytes& storage) {
  packet::Packet p = packet::make_tcp(src, dst, sp, dp, flags, seq, ack,
                                      payload);
  storage = p.data();
  return *packet::decode(storage);
}

TEST(StreamBuffer, InOrderAppend) {
  StreamBuffer sb(1024);
  sb.set_base(100);
  sb.add_segment(100, common::to_bytes("hello "));
  sb.add_segment(106, common::to_bytes("world"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "hello world");
}

TEST(StreamBuffer, OutOfOrderMerges) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(6, common::to_bytes("world"));
  EXPECT_EQ(sb.contiguous().size(), 0u);
  EXPECT_EQ(sb.buffered_bytes(), 5u);  // pending only
  sb.add_segment(0, common::to_bytes("hello "));
  EXPECT_EQ(common::to_string(sb.contiguous()), "hello world");
  EXPECT_EQ(sb.buffered_bytes(), 11u);  // pending drained into the buffer
}

TEST(StreamBuffer, DuplicateIgnored) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("abc"));
  sb.add_segment(0, common::to_bytes("abc"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "abc");
}

TEST(StreamBuffer, OverlapKeepsNewTail) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("abcd"));
  sb.add_segment(2, common::to_bytes("cdEF"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "abcdEF");
}

TEST(StreamBuffer, CapTrimsFront) {
  StreamBuffer sb(8);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("0123456789AB"));
  EXPECT_LE(sb.contiguous().size(), 8u);
  // The tail is what survives.
  EXPECT_EQ(common::to_string(sb.contiguous()), "456789AB");
}

TEST(StreamBuffer, BaseSetOnlyOnce) {
  StreamBuffer sb(64);
  sb.set_base(100);
  sb.set_base(500);  // ignored
  sb.add_segment(100, common::to_bytes("x"));
  EXPECT_EQ(sb.contiguous().size(), 1u);
}

TEST(StreamBuffer, GapBoundedPending) {
  StreamBuffer sb(16);
  sb.set_base(0);
  // Far out-of-order chunks beyond the cap are dropped, not hoarded.
  for (uint32_t i = 1; i < 10; ++i)
    sb.add_segment(100 * i, common::Bytes(10, 'x'));
  EXPECT_EQ(sb.buffered_bytes(), 10u);  // only the first chunk fits
  // A second segment at an already-pending sequence number is not
  // inserted, so it must not count against the cap either.
  sb.add_segment(100, common::Bytes(5, 'y'));
  EXPECT_EQ(sb.buffered_bytes(), 10u);
  sb.add_segment(50, common::Bytes(6, 'z'));
  EXPECT_EQ(sb.buffered_bytes(), 16u);
}

TEST(FlowKey, CanonicalSymmetric) {
  common::Bytes s1, s2;
  auto fwd = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kSyn, 0, 0,
                        {}, s1);
  auto rev = tcp_packet(kServer, kClient, 80, 1234, TcpFlags::kAck, 0, 0,
                        {}, s2);
  EXPECT_EQ(FlowKey::from(fwd), FlowKey::from(rev));
}

TEST(FlowTable, TracksHandshakeToEstablished) {
  FlowTable table;
  common::Bytes s;
  auto syn = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kSyn, 100, 0,
                        {}, s);
  auto fc1 = table.update(SimTime(0), syn);
  ASSERT_TRUE(fc1.state);
  EXPECT_TRUE(fc1.to_server);
  EXPECT_TRUE(fc1.state->syn_seen);
  EXPECT_FALSE(fc1.state->established);

  common::Bytes s2;
  auto synack = tcp_packet(kServer, kClient, 80, 1234,
                           TcpFlags::kSyn | TcpFlags::kAck, 500, 101, {}, s2);
  auto fc2 = table.update(SimTime(1), synack);
  EXPECT_FALSE(fc2.to_server);
  EXPECT_TRUE(fc2.state->synack_seen);

  common::Bytes s3;
  auto ack = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kAck, 101,
                        501, {}, s3);
  auto fc3 = table.update(SimTime(2), ack);
  EXPECT_TRUE(fc3.state->established);
  EXPECT_EQ(table.flow_count(), 1u);
}

TEST(FlowTable, ReassemblesAcrossSegments) {
  FlowTable table;
  common::Bytes s;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 1, 80,
                                      TcpFlags::kSyn, 100, 0, {}, s));
  common::Bytes s2;
  table.update(SimTime(1),
               tcp_packet(kServer, kClient, 80, 1,
                          TcpFlags::kSyn | TcpFlags::kAck, 200, 101, {}, s2));
  common::Bytes s3;
  auto fc = table.update(
      SimTime(2), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 101,
                             201, common::to_bytes("fal"), s3));
  common::Bytes s4;
  fc = table.update(
      SimTime(3), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 104,
                             201, common::to_bytes("un"), s4));
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(common::to_string(fc.state->to_server_stream.contiguous()),
            "falun");
}

TEST(FlowTable, MidStreamPickupAnchorsAtFirstPayload) {
  FlowTable table;
  common::Bytes s;
  auto fc = table.update(
      SimTime(0), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 5000,
                             1, common::to_bytes("midstream data"), s));
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(common::to_string(fc.state->to_server_stream.contiguous()),
            "midstream data");
}

TEST(FlowTable, UdpFlowsTracked) {
  FlowTable table;
  packet::Packet p = packet::make_udp(kClient, kServer, 5000, 53,
                                      common::to_bytes("q"));
  auto d = *packet::decode(p.data());
  auto fc = table.update(SimTime(0), d);
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(fc.state->packets_to_server, 1u);
}

TEST(FlowTable, NonTcpUdpIgnored) {
  FlowTable table;
  packet::Packet p = packet::make_icmp(kClient, kServer, 8, 0, 0);
  auto d = *packet::decode(p.data());
  auto fc = table.update(SimTime(0), d);
  EXPECT_EQ(fc.state, nullptr);
  EXPECT_EQ(table.flow_count(), 0u);
}

TEST(FlowTable, ExpiryEvictsIdleFlows) {
  FlowTable table(1024, Duration::seconds(10));
  common::Bytes s;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 1, 80,
                                      TcpFlags::kSyn, 0, 0, {}, s));
  common::Bytes s2;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 2, 80,
                                      TcpFlags::kSyn, 0, 0, {}, s2));
  EXPECT_EQ(table.flow_count(), 2u);
  // Refresh only the first flow late.
  common::Bytes s3;
  table.update(SimTime(Duration::seconds(9).count()),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 1, 1, {},
                          s3));
  EXPECT_EQ(table.expire(SimTime(Duration::seconds(15).count())), 1u);
  EXPECT_EQ(table.flow_count(), 1u);
}

TEST(FlowTable, ByteAccounting) {
  FlowTable table;
  common::Bytes s;
  table.update(SimTime(0),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kSyn, 0, 0, {},
                          s));
  common::Bytes s2;
  table.update(SimTime(1),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 1, 1,
                          common::to_bytes("12345"), s2));
  EXPECT_GE(table.buffered_bytes(), 5u);
}

}  // namespace
}  // namespace sm::ids
