// Family-blind packet building and reply matching: the IpAddress
// builders produce exactly the bytes of the per-family ones, a host
// answers from its address in the peer's family, and a reachability
// probe only accepts replies over the family it probed on.
#include <gtest/gtest.h>

#include "censor/gfc.hpp"
#include "core/probe.hpp"
#include "core/synprobe.hpp"
#include "packet/packet.hpp"

namespace sm {
namespace {

using common::IpAddress;
using common::Ipv4Address;
using packet::TcpFlags;

const Ipv4Address kA{10, 1, 1, 10};
const Ipv4Address kB{198, 18, 0, 80};

TEST(FamilyBlind, TcpBuilderMatchesPerFamilyBuilders) {
  const common::Bytes payload = common::to_bytes("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(packet::make_tcp(IpAddress(kA), IpAddress(kB), 40000, 80,
                             TcpFlags::kAck | TcpFlags::kPsh, 7, 9, payload)
                .data(),
            packet::make_tcp(kA, kB, 40000, 80,
                             TcpFlags::kAck | TcpFlags::kPsh, 7, 9, payload)
                .data());
  EXPECT_EQ(packet::make_tcp(IpAddress(common::map_v6(kA)),
                             IpAddress(common::map_v6(kB)), 40000, 80,
                             TcpFlags::kSyn, 7, 0)
                .data(),
            packet::make_tcp6(common::map_v6(kA), common::map_v6(kB), 40000,
                              80, TcpFlags::kSyn, 7, 0)
                .data());
}

TEST(FamilyBlind, UdpBuilderMatchesPerFamilyBuilders) {
  const common::Bytes payload = common::to_bytes("query");
  EXPECT_EQ(
      packet::make_udp(IpAddress(kA), IpAddress(kB), 5353, 53, payload).data(),
      packet::make_udp(kA, kB, 5353, 53, payload).data());
  EXPECT_EQ(packet::make_udp(IpAddress(common::map_v6(kA)),
                             IpAddress(common::map_v6(kB)), 5353, 53, payload)
                .data(),
            packet::make_udp6(common::map_v6(kA), common::map_v6(kB), 5353, 53,
                              payload)
                .data());
}

TEST(FamilyBlind, HostAnswersFromItsAddressInThePeersFamily) {
  netsim::Engine engine;
  netsim::Host host(engine, "h", kA);
  EXPECT_EQ(host.address_for(IpAddress(kB)), IpAddress(kA));
  EXPECT_EQ(host.address_for(IpAddress(common::map_v6(kB))),
            IpAddress(common::map_v6(kA)));
  const common::Ipv6Address own6 = *common::Ipv6Address::parse("fd00::1");
  host.set_address6(own6);
  EXPECT_EQ(host.address_for(IpAddress(common::map_v6(kB))), IpAddress(own6));
}

TEST(FamilyBlind, SynReachIgnoresSynAckFromTheOtherFamily) {
  // The target is null-routed in both families, so the only SYN/ACK the
  // client sees is one forged into it 1 ms in: from the target over the
  // probed family it proves reachability, over the other family it is
  // somebody else's traffic and the probe still times out.
  core::TestbedAddresses addr;
  for (bool v6 : {false, true}) {
    for (bool same_family : {true, false}) {
      core::TestbedConfig cfg;
      cfg.policy = censor::dropping_profile({addr.web_blocked});
      cfg.policy.blocked_ips6 = {common::map_v6(addr.web_blocked)};
      core::Testbed tb(cfg);
      // The probe takes the next ephemeral port; its ISS derives from it.
      const uint16_t sport = tb.client->alloc_ephemeral_port() + 1;
      const uint32_t iss = 0xC0DE0000 | sport;
      const IpAddress from =
          common::map_family(addr.web_blocked, same_family ? v6 : !v6);
      tb.net.engine().schedule(common::Duration::millis(1), [&]() {
        tb.client->receive(
            packet::make_tcp(from, tb.client->address_for(from), 80, sport,
                             TcpFlags::kSyn | TcpFlags::kAck, 1, iss + 1),
            0);
      });
      core::SynReachabilityProbe probe(
          tb, {.target = common::map_family(addr.web_blocked, v6)});
      core::ProbeReport report = core::run_probe(tb, probe);
      EXPECT_EQ(report.verdict, same_family ? core::Verdict::Reachable
                                            : core::Verdict::BlockedTimeout)
          << "v6=" << v6 << " same_family=" << same_family << ": "
          << report.to_string();
    }
  }
}

}  // namespace
}  // namespace sm
