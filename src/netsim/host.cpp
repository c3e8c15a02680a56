#include "netsim/host.hpp"

#include <map>
#include <utility>
#include <vector>

#include "netsim/engine.hpp"
#include "obs/provenance.hpp"
#include "packet/fragment.hpp"

namespace sm::netsim {

struct Host::Attachments {
  std::map<uint16_t, UdpHandler> udp;
  PacketHandler tcp;
  PacketHandler icmp;
  std::vector<std::pair<uint64_t, PacketHandler>> promiscuous;
  uint64_t next_promiscuous_id = 0;
  packet::Reassembler reassembler;
};

Host::Host(Engine& engine, std::string name, Ipv4Address address)
    : Node(std::move(name), NodeKind::Host),
      engine_(engine),
      address_(address),
      address6_(common::map_v6(address)) {}

Host::~Host() = default;

Host::Attachments& Host::attachments() {
  if (!attached_) attached_ = std::make_unique<Attachments>();
  return *attached_;
}

void Host::send(packet::Packet packet) {
  ++packets_sent_;
  transmit(std::move(packet), 0);
}

void Host::send_udp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                    std::span<const uint8_t> payload, uint8_t ttl) {
  packet::IpOptions opt;
  opt.ttl = ttl;
  send(packet::make_udp(address_, dst, src_port, dst_port, payload, opt));
}

void Host::send_udp6(Ipv6Address dst, uint16_t src_port, uint16_t dst_port,
                     std::span<const uint8_t> payload, uint8_t hop_limit) {
  packet::Ipv6Options opt;
  opt.hop_limit = hop_limit;
  send(packet::make_udp6(address6_, dst, src_port, dst_port, payload, opt));
}

void Host::udp_bind(uint16_t port, UdpHandler handler) {
  attachments().udp[port] = std::move(handler);
}

void Host::udp_unbind(uint16_t port) {
  if (attached_) attached_->udp.erase(port);
}

void Host::set_tcp_handler(PacketHandler handler) {
  attachments().tcp = std::move(handler);
}

void Host::set_icmp_handler(PacketHandler handler) {
  attachments().icmp = std::move(handler);
}

uint64_t Host::add_promiscuous(PacketHandler handler) {
  Attachments& a = attachments();
  a.promiscuous.emplace_back(++a.next_promiscuous_id, std::move(handler));
  return a.next_promiscuous_id;
}

void Host::remove_promiscuous(uint64_t id) {
  if (!attached_) return;
  std::erase_if(attached_->promiscuous,
                [id](const auto& entry) { return entry.first == id; });
}

uint16_t Host::alloc_ephemeral_port() {
  uint16_t p = next_ephemeral_;
  next_ephemeral_ = (next_ephemeral_ == 65535) ? 49152 : next_ephemeral_ + 1;
  return p;
}

void Host::receive(packet::Packet packet, int /*port*/) {
  ++packets_received_;
  auto decoded = packet::decode(packet);
  if (!decoded) return;

  // Anything a handler sends in direct response (a TCP ACK/data segment,
  // an echo reply, a DNS answer) is *caused by* this packet: scope the
  // ambient cause so the provenance chain threads through whole flows,
  // not just the first synchronous hop.
  obs::ScopedCause cause(engine_.provenance(), packet.prov_id());

  if (attached_) {
    for (const auto& [id, handler] : attached_->promiscuous)
      handler(*decoded, packet.data());
  }
  // Not ours (no forwarding): match against the family's own address.
  if (decoded->is_v6() ? decoded->ip6->dst != address6_
                       : decoded->ip.dst != address_)
    return;

  // End hosts reassemble IP fragments before protocol dispatch.
  if (decoded->is_fragment()) {
    auto whole = attachments().reassembler.add(engine_.now(), packet.data());
    if (!whole) return;  // still incomplete
    packet = std::move(*whole);
    decoded = packet::decode(packet);
    if (!decoded) return;
  }

  if (decoded->udp) {
    if (!attached_) return;
    auto it = attached_->udp.find(decoded->udp->dst_port);
    if (it != attached_->udp.end()) it->second(*decoded, decoded->l4_payload);
    return;
  }
  if (decoded->tcp) {
    if (attached_ && attached_->tcp) attached_->tcp(*decoded, packet.data());
    return;
  }
  if (decoded->icmp) {
    if (ping_reply_) {
      if (decoded->is_v6() &&
          decoded->icmp->type == packet::IcmpHeader::kEchoRequest6) {
        send(packet::make_icmp6(address6_, decoded->ip6->src,
                                packet::IcmpHeader::kEchoReply6, 0,
                                decoded->icmp->rest, decoded->l4_payload));
      } else if (!decoded->is_v6() &&
                 decoded->icmp->type == packet::IcmpHeader::kEchoRequest) {
        send(packet::make_icmp(address_, decoded->ip.src,
                               packet::IcmpHeader::kEchoReply, 0,
                               decoded->icmp->rest, decoded->l4_payload));
      }
    }
    if (attached_ && attached_->icmp) attached_->icmp(*decoded, packet.data());
    return;
  }
}

}  // namespace sm::netsim
