// Cover-traffic generation (§4.1): stateless and stateful mimicry.
//
// Stateless (Fig. 3a): the measurement client emits the same probe it
// sends for itself, but with source addresses spoofed from neighbors in
// its AS — DNS queries to any server, or SYN/RST reachability probes.
// From the surveillance tap's perspective the whole /24 is probing.
//
// Stateful (Fig. 3b): for targets we control, full spoofed TCP flows.
// The client spoofs a SYN; the cooperating server answers with a
// TTL-limited SYN/ACK that crosses the tap and then expires; the client,
// which can *predict* the server's ISN (shared secret), forges the ACK
// and any request data. The tap reconstructs a complete, plausible flow
// attributed to the spoofed host.
#pragma once

#include <functional>
#include <vector>

#include "common/ip.hpp"
#include "netsim/host.hpp"
#include "proto/dns/message.hpp"
#include "proto/tcp/stack.hpp"

namespace sm::spoof {

using common::Ipv4Address;

/// Deterministic ISN shared between mimicry client and server: both
/// compute it from the (secret, client, client port) tuple, so the client
/// can ACK a SYN/ACK it never received.
uint32_t predictable_isn(uint64_t secret, Ipv4Address client,
                         uint16_t client_port, Ipv4Address server,
                         uint16_t server_port);

/// Stateless cover: spoofed DNS queries from neighbors (Fig. 3a).
class StatelessDnsCover {
 public:
  StatelessDnsCover(netsim::Host& host, Ipv4Address dns_server)
      : host_(host), server_(dns_server) {}

  /// Emits one query for `name` from each address in `spoofed_sources`.
  /// Returns the number of packets sent.
  size_t emit(const std::vector<Ipv4Address>& spoofed_sources,
              const proto::dns::Name& name,
              proto::dns::RecordType type = proto::dns::RecordType::A);

 private:
  netsim::Host& host_;
  Ipv4Address server_;
  uint16_t next_id_ = 100;
};

/// Stateless SYN/RST reachability cover: spoofed SYNs to any target;
/// replies (SYN/ACK or RST) go to the spoofed hosts, whose stacks RST —
/// which is itself plausible cover for this stateless probe shape.
class StatelessSynCover {
 public:
  explicit StatelessSynCover(netsim::Host& host) : host_(host) {}

  /// Emits one SYN to `target` from each address in `spoofed_sources`, in
  /// the target's family. Toward a v6 target each neighbor is spoofed as
  /// its map_v6 identity, so the tap sees the same /24 probing over the
  /// other family; SAV judges the embedded v4 bits, so filtering behaves
  /// identically to v4 cover. Returns the number of packets sent.
  size_t emit(const std::vector<Ipv4Address>& spoofed_sources,
              common::IpAddress target, uint16_t port);

 private:
  netsim::Host& host_;
  uint32_t next_seq_ = 0x1000;
};

/// The cooperating measurement server for stateful mimicry. Wraps a TCP
/// stack: installs the predictable-ISN policy and a per-remote accept-TTL
/// policy that TTL-limits replies to registered spoofed cover addresses.
class MimicryServer {
 public:
  /// `service_port` must match the port the mimicry client targets (it is
  /// an input to the shared ISN function).
  MimicryServer(proto::tcp::Stack& stack, uint64_t secret,
                uint16_t service_port = 80);

  /// Replies to `spoofed_client` will carry `reply_ttl`.
  void register_cover_client(Ipv4Address spoofed_client, uint8_t reply_ttl);

  uint64_t secret() const { return secret_; }

 private:
  proto::tcp::Stack& stack_;
  uint64_t secret_;
  std::map<Ipv4Address, uint8_t> cover_ttls_;
};

/// The measurement client side of stateful mimicry: forges complete
/// client halves of TCP flows from spoofed neighbors toward the
/// cooperating server.
class StatefulMimicryClient {
 public:
  /// `rtt_estimate` paces the forged ACK/data so the tap sees packets in
  /// a realistic handshake order.
  StatefulMimicryClient(netsim::Host& host, Ipv4Address server,
                        uint16_t server_port, uint64_t secret,
                        common::Duration rtt_estimate =
                            common::Duration::millis(1));

  /// Forges one full flow from `spoofed_src`: SYN, ACK, `request` data,
  /// then FIN. Returns the client port used.
  uint16_t run_flow(Ipv4Address spoofed_src, std::string_view request);

  uint64_t flows_started() const { return flows_started_; }

 private:
  netsim::Host& host_;
  Ipv4Address server_;
  uint16_t server_port_;
  uint64_t secret_;
  common::Duration rtt_;
  uint16_t next_port_ = 20000;
  uint64_t flows_started_ = 0;
};

}  // namespace sm::spoof
