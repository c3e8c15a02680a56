#include "spoof/cover.hpp"

namespace sm::spoof {

using packet::TcpFlags;

uint32_t predictable_isn(uint64_t secret, Ipv4Address client,
                         uint16_t client_port, Ipv4Address server,
                         uint16_t server_port) {
  // splitmix64 finalizer over the packed tuple.
  uint64_t x = secret;
  x ^= (uint64_t{client.value()} << 32) | (uint64_t{client_port} << 16) |
       server_port;
  x ^= uint64_t{server.value()} << 13;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<uint32_t>(x);
}

size_t StatelessDnsCover::emit(
    const std::vector<Ipv4Address>& spoofed_sources,
    const proto::dns::Name& name, proto::dns::RecordType type) {
  size_t sent = 0;
  for (const auto& src : spoofed_sources) {
    auto query = proto::dns::Message::query(next_id_++, name, type);
    // Each "client" uses a plausible distinct ephemeral port.
    uint16_t sport = static_cast<uint16_t>(
        49152 + (src.value() * 2654435761u) % 16000);
    host_.send(packet::make_udp(src, server_, sport, 53,
                                proto::dns::encode(query)));
    ++sent;
  }
  return sent;
}

size_t StatelessSynCover::emit(
    const std::vector<Ipv4Address>& spoofed_sources,
    common::IpAddress target, uint16_t port) {
  size_t sent = 0;
  for (const auto& src : spoofed_sources) {
    // Source port and sequence are keyed off the neighbor's v4 identity
    // in both families, so the two families' cover is comparable.
    uint16_t sport = static_cast<uint16_t>(
        49152 + (src.value() * 2654435761u) % 16000);
    host_.send(packet::make_tcp(common::map_family(src, target.is_v6()),
                                target, sport, port, TcpFlags::kSyn,
                                next_seq_ += 64000, 0));
    ++sent;
  }
  return sent;
}

MimicryServer::MimicryServer(proto::tcp::Stack& stack, uint64_t secret,
                             uint16_t service_port)
    : stack_(stack), secret_(secret) {
  netsim::Host& host = stack_.host();
  stack_.set_isn_policy(
      [this, &host, service_port](Ipv4Address remote, uint16_t remote_port) {
        return predictable_isn(secret_, remote, remote_port, host.address(),
                               service_port);
      });
  stack_.set_accept_ttl_policy([this](Ipv4Address remote) -> uint8_t {
    auto it = cover_ttls_.find(remote);
    return it == cover_ttls_.end() ? uint8_t{64} : it->second;
  });
}

void MimicryServer::register_cover_client(Ipv4Address spoofed_client,
                                          uint8_t reply_ttl) {
  cover_ttls_[spoofed_client] = reply_ttl;
}

StatefulMimicryClient::StatefulMimicryClient(netsim::Host& host,
                                             Ipv4Address server,
                                             uint16_t server_port,
                                             uint64_t secret,
                                             common::Duration rtt_estimate)
    : host_(host),
      server_(server),
      server_port_(server_port),
      secret_(secret),
      rtt_(rtt_estimate) {}

uint16_t StatefulMimicryClient::run_flow(Ipv4Address spoofed_src,
                                         std::string_view request) {
  ++flows_started_;
  uint16_t sport = next_port_++;
  // The client picks its own ISS freely; the server's ISN is predicted
  // via the shared secret (the TTL-limited SYN/ACK never reaches us).
  uint32_t client_iss = predictable_isn(secret_ ^ 0xC0FFEE, spoofed_src,
                                        sport, server_, server_port_);
  uint32_t server_isn =
      predictable_isn(secret_, spoofed_src, sport, server_, server_port_);

  // SYN now.
  host_.send(packet::make_tcp(spoofed_src, server_, sport, server_port_,
                              TcpFlags::kSyn, client_iss, 0));

  // Forged ACK one RTT later (after the SYN/ACK has crossed the tap).
  auto& engine = host_.engine();
  Ipv4Address server = server_;
  uint16_t dport = server_port_;
  netsim::Host* host = &host_;
  engine.schedule(rtt_, [host, spoofed_src, server, sport, dport, client_iss,
                         server_isn]() {
    host->send(packet::make_tcp(spoofed_src, server, sport, dport,
                                TcpFlags::kAck, client_iss + 1,
                                server_isn + 1));
  });

  // Request data half an RTT after that, then FIN.
  common::Bytes req(request.begin(), request.end());
  engine.schedule(rtt_ + rtt_ / 2, [host, spoofed_src, server, sport, dport,
                                    client_iss, server_isn, req]() {
    host->send(packet::make_tcp(spoofed_src, server, sport, dport,
                                TcpFlags::kAck | TcpFlags::kPsh,
                                client_iss + 1, server_isn + 1, req));
  });
  uint32_t fin_seq = client_iss + 1 + static_cast<uint32_t>(req.size());
  engine.schedule(rtt_ * 3, [host, spoofed_src, server, sport, dport,
                             fin_seq, server_isn]() {
    host->send(packet::make_tcp(spoofed_src, server, sport, dport,
                                TcpFlags::kFin | TcpFlags::kAck, fin_seq,
                                server_isn + 1));
  });
  return sport;
}

}  // namespace sm::spoof
