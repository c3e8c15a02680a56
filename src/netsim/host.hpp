// End host: owns an IPv4 address, dispatches received packets to protocol
// handlers, and can originate arbitrary (including spoofed) datagrams.
//
// The host deliberately does not validate that outgoing source addresses
// match its own — IP spoofing is a first-class capability here, because
// the paper's cover-traffic techniques (§4) depend on it. Networks that
// deploy source-address validation model it at the router ingress instead.
#pragma once

#include <functional>
#include <map>

#include "common/ip.hpp"
#include "netsim/engine.hpp"
#include "netsim/node.hpp"
#include "packet/fragment.hpp"
#include "packet/packet.hpp"

namespace sm::netsim {

using common::Ipv4Address;
using common::Ipv6Address;

class Host : public Node {
 public:
  /// Handler for a decoded packet; `wire` is the full datagram.
  using PacketHandler =
      std::function<void(const packet::Decoded&, const common::Bytes& wire)>;
  /// UDP handler: decoded headers plus the UDP payload.
  using UdpHandler = std::function<void(const packet::Decoded&,
                                        std::span<const uint8_t> payload)>;

  /// Every host is dual-stack: its v6 address defaults to the
  /// deterministic map_v6 embedding of its v4 address (override with
  /// set_address6). Handlers and reassembly are shared across families.
  Host(Engine& engine, std::string name, Ipv4Address address);

  Engine& engine() { return engine_; }
  Ipv4Address address() const { return address_; }
  Ipv6Address address6() const { return address6_; }
  void set_address6(Ipv6Address addr) { address6_ = addr; }
  /// This host's address in `peer`'s family: the source of anything it
  /// sends to `peer`.
  common::IpAddress address_for(common::IpAddress peer) const {
    return peer.is_v6() ? common::IpAddress(address6_)
                        : common::IpAddress(address_);
  }

  /// Sends a fully formed datagram out of the uplink (port 0). The source
  /// address is whatever the packet says — spoofing allowed.
  void send(packet::Packet packet);

  /// Convenience: build and send a UDP datagram from this host's address.
  void send_udp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                std::span<const uint8_t> payload, uint8_t ttl = 64);
  void send_udp6(Ipv6Address dst, uint16_t src_port, uint16_t dst_port,
                 std::span<const uint8_t> payload, uint8_t hop_limit = 64);

  /// Binds a UDP handler to a local port (replaces any existing binding).
  void udp_bind(uint16_t port, UdpHandler handler);
  void udp_unbind(uint16_t port);

  /// All TCP segments addressed to this host go to one handler (the TCP
  /// stack in proto/tcp attaches here).
  void set_tcp_handler(PacketHandler handler) {
    tcp_handler_ = std::move(handler);
  }
  void set_icmp_handler(PacketHandler handler) {
    icmp_handler_ = std::move(handler);
  }

  /// Promiscuous hooks: each sees every packet delivered to this host's
  /// port, including ones addressed elsewhere (used by probes that watch
  /// raw replies, and by tests). Returns an id for remove_promiscuous —
  /// handlers that capture short-lived objects (probes) must deregister
  /// before those objects die.
  uint64_t add_promiscuous(PacketHandler handler) {
    promiscuous_.emplace_back(++next_promiscuous_id_, std::move(handler));
    return next_promiscuous_id_;
  }
  void remove_promiscuous(uint64_t id);

  /// When enabled (default), ICMP echo requests are answered.
  void set_ping_reply(bool enabled) { ping_reply_ = enabled; }

  /// Allocates an ephemeral source port (49152..65535, wrapping).
  uint16_t alloc_ephemeral_port();

  void receive(packet::Packet packet, int port) override;

  uint64_t packets_received() const { return packets_received_; }
  uint64_t packets_sent() const { return packets_sent_; }

 private:
  Engine& engine_;
  Ipv4Address address_;
  Ipv6Address address6_;
  std::map<uint16_t, UdpHandler> udp_handlers_;
  PacketHandler tcp_handler_;
  PacketHandler icmp_handler_;
  std::vector<std::pair<uint64_t, PacketHandler>> promiscuous_;
  uint64_t next_promiscuous_id_ = 0;
  bool ping_reply_ = true;
  packet::Reassembler reassembler_;
  uint16_t next_ephemeral_ = 49152;
  uint64_t packets_received_ = 0;
  uint64_t packets_sent_ = 0;
};

}  // namespace sm::netsim
