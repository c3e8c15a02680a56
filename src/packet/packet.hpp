// Datagram model for both IP families: header structs, wire
// encode/decode, and builders.
//
// The simulator is an L3 network: a Packet is one IPv4 or IPv6 datagram.
// Builders fill in lengths and checksums; the parser validates them.
// Decoded views reference the owning packet's buffer, so a view must not
// outlive it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/ip.hpp"
#include "packet/copy_stats.hpp"

namespace sm::packet {

using common::Bytes;
using common::Ipv4Address;
using common::Ipv6Address;

/// IP protocol numbers used in this project. The IPv6 extension-header
/// types live in the same number space as transport protocols.
enum class IpProto : uint8_t {
  HopByHop = 0,  // v6 extension header
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
  Routing = 43,   // v6 extension header
  Fragment = 44,  // v6 extension header
  Icmp6 = 58,
  NoNextHeader = 59,  // v6: nothing follows
  DestOpts = 60,      // v6 extension header
};

/// True for the four extension-header types the v6 decoder walks.
constexpr bool is_v6_ext_header(uint8_t proto) {
  return proto == static_cast<uint8_t>(IpProto::HopByHop) ||
         proto == static_cast<uint8_t>(IpProto::Routing) ||
         proto == static_cast<uint8_t>(IpProto::Fragment) ||
         proto == static_cast<uint8_t>(IpProto::DestOpts);
}

/// TCP flag bits (matching the wire layout of the flags octet).
struct TcpFlags {
  static constexpr uint8_t kFin = 0x01;
  static constexpr uint8_t kSyn = 0x02;
  static constexpr uint8_t kRst = 0x04;
  static constexpr uint8_t kPsh = 0x08;
  static constexpr uint8_t kAck = 0x10;
  static constexpr uint8_t kUrg = 0x20;
};

/// Decoded IPv4 header. `options` is a non-owning view into the wire
/// buffer the header was decoded from (empty for builder-constructed
/// headers); storing a header past that buffer's lifetime requires
/// copying the option bytes (see packet/fragment.cpp for the pattern).
struct Ipv4Header {
  uint8_t tos = 0;
  uint16_t total_length = 0;
  uint16_t identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  uint16_t fragment_offset = 0;  // in 8-byte units
  uint8_t ttl = 64;
  uint8_t protocol = 0;
  uint16_t checksum = 0;  // as read from the wire; builders compute it
  Ipv4Address src;
  Ipv4Address dst;
  std::span<const uint8_t> options;

  size_t header_length() const { return 20 + options.size(); }
};

/// Decoded TCP header. `options` is a non-owning view into the decoded
/// wire buffer, like Ipv4Header::options.
struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 65535;
  uint16_t checksum = 0;
  uint16_t urgent = 0;
  std::span<const uint8_t> options;

  bool syn() const { return flags & TcpFlags::kSyn; }
  bool ack_flag() const { return flags & TcpFlags::kAck; }
  bool rst() const { return flags & TcpFlags::kRst; }
  bool fin() const { return flags & TcpFlags::kFin; }
  bool psh() const { return flags & TcpFlags::kPsh; }
  size_t header_length() const { return 20 + options.size(); }
};

/// One decoded IPv6 extension header. `data` is a non-owning view of the
/// whole header (including its next-header and length octets), like
/// Ipv4Header::options.
struct Ipv6ExtHeader {
  uint8_t type = 0;  // protocol number of this header (0/43/44/60)
  std::span<const uint8_t> data;
};

/// Decoded IPv6 fixed header plus its extension-header chain. Spans view
/// the wire buffer the header was decoded from.
struct Ipv6Header {
  uint8_t traffic_class = 0;
  uint32_t flow_label = 0;
  uint16_t payload_length = 0;  // bytes after the fixed 40-byte header
  uint8_t next_header = 59;     // first next-header octet on the wire
  uint8_t hop_limit = 64;
  Ipv6Address src;
  Ipv6Address dst;

  /// Extension chain in wire order; bounded so a Decoded stays small.
  static constexpr size_t kMaxExtHeaders = 7;
  std::array<Ipv6ExtHeader, kMaxExtHeaders> ext{};
  uint8_t ext_count = 0;
  size_t ext_length = 0;  // total bytes of extension headers
  uint8_t l4_proto = 59;  // protocol after the chain (59 = none)

  /// Fragment extension header fields (RFC 8200 §4.5), valid when
  /// has_fragment. Offsets let the reassembler splice the unfragmentable
  /// part without re-walking the chain.
  bool has_fragment = false;
  bool more_fragments = false;
  uint16_t fragment_offset = 0;  // in 8-byte units
  uint32_t fragment_id = 0;
  uint8_t frag_next = 59;         // next-header after the fragment header
  size_t frag_hdr_offset = 0;     // wire offset of the fragment header
  size_t frag_prev_nh_offset = 0; // offset of the octet pointing at it

  size_t header_length() const { return 40 + ext_length; }
  std::span<const Ipv6ExtHeader> ext_headers() const {
    return {ext.data(), ext_count};
  }
};

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;
};

struct IcmpHeader {
  uint8_t type = 0;  // 8 = echo request, 0 = echo reply, 11 = time exceeded
  uint8_t code = 0;
  uint16_t checksum = 0;
  uint32_t rest = 0;  // id/seq for echo; unused for time-exceeded

  static constexpr uint8_t kEchoReply = 0;
  static constexpr uint8_t kEchoRequest = 8;
  static constexpr uint8_t kTimeExceeded = 11;
  static constexpr uint8_t kDestUnreachable = 3;

  // ICMPv6 type numbers (RFC 4443); the header layout is shared, so the
  // same struct decodes both families — consumers dispatch on the
  // packet's family.
  static constexpr uint8_t kEchoRequest6 = 128;
  static constexpr uint8_t kEchoReply6 = 129;
  static constexpr uint8_t kTimeExceeded6 = 3;
  static constexpr uint8_t kDestUnreachable6 = 1;
};

/// An owned IPv4 or IPv6 datagram plus the simulator metadata that rides
/// with it.
class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes wire) : data_(std::move(wire)) {}

  const Bytes& data() const { return data_; }
  Bytes& data() { return data_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Provenance identity: the id of this packet's PacketSent event in
  /// the testbed's obs::ProvenanceGraph, assigned by the first link the
  /// packet enters (0 = provenance off or not yet on a wire). The id
  /// rides through copies and in-place mutation — a duplicated or
  /// corrupted packet keeps the identity of the send it came from.
  uint64_t prov_id() const { return prov_id_; }
  void set_prov_id(uint64_t id) { prov_id_ = id; }

 private:
  Bytes data_;
  uint64_t prov_id_ = 0;
};

/// Fully decoded packet. Produced by `decode()`; spans point into the
/// buffer passed to decode and share its lifetime.
///
/// Dual-stack contract: exactly one of the network headers is active. For
/// an IPv4 datagram `ip` is filled and `ip6` is empty; for IPv6, `ip6` is
/// engaged and `ip` is default-constructed. Family-agnostic consumers use
/// the accessors (src_addr/dst_addr/ttl_hops/...) instead of touching
/// either header directly.
struct Decoded {
  Ipv4Header ip;
  std::optional<Ipv6Header> ip6;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::span<const uint8_t> l4_payload;  // bytes after the L4 header

  bool is_tcp() const { return tcp.has_value(); }
  bool is_udp() const { return udp.has_value(); }
  bool is_icmp() const { return icmp.has_value(); }
  uint16_t src_port() const {
    return tcp ? tcp->src_port : (udp ? udp->src_port : 0);
  }
  uint16_t dst_port() const {
    return tcp ? tcp->dst_port : (udp ? udp->dst_port : 0);
  }

  // Family-agnostic header accessors.
  bool is_v6() const { return ip6.has_value(); }
  common::IpAddress src_addr() const {
    return ip6 ? common::IpAddress(ip6->src) : common::IpAddress(ip.src);
  }
  common::IpAddress dst_addr() const {
    return ip6 ? common::IpAddress(ip6->dst) : common::IpAddress(ip.dst);
  }
  /// TTL (v4) or hop limit (v6).
  uint8_t ttl_hops() const { return ip6 ? ip6->hop_limit : ip.ttl; }
  /// Transport protocol number (after the v6 extension chain).
  uint8_t l4_proto() const { return ip6 ? ip6->l4_proto : ip.protocol; }
  size_t net_header_length() const {
    return ip6 ? ip6->header_length() : ip.header_length();
  }
  /// True when this datagram is a fragment (any family, any offset).
  bool is_fragment() const {
    return ip6 ? ip6->has_fragment
               : (ip.more_fragments || ip.fragment_offset != 0);
  }
  /// Fragment offset in 8-byte units (0 for non-fragments).
  uint16_t fragment_offset_units() const {
    return ip6 ? ip6->fragment_offset : ip.fragment_offset;
  }
};

/// Non-owning view of one encoded datagram plus its decode, threaded
/// through the per-hop observation path (router taps, IDS, censor, MVR).
/// A view borrows the forwarding path's buffer: it is valid only for the
/// duration of the callback it is passed to and must never be stored.
/// Sinks that keep bytes (pcap traces, defrag buffers) call retain(),
/// the one sanctioned — and counted — way to copy wire bytes out of the
/// hot path.
class PacketView {
 public:
  PacketView(std::span<const uint8_t> wire, const Decoded& decoded)
      : wire_(wire), decoded_(&decoded) {}

  std::span<const uint8_t> wire() const { return wire_; }
  const Decoded& decoded() const { return *decoded_; }

  /// Materializes an owned copy of the wire bytes for a retention sink,
  /// charging the copy to `site` in the process-wide copy counters.
  Bytes retain(CopySite site) const {
    count_copy(site);
    return Bytes(wire_.begin(), wire_.end());
  }

 private:
  std::span<const uint8_t> wire_;
  const Decoded* decoded_;
};

/// Decodes an IPv4 or IPv6 datagram (dispatching on the version nibble).
/// Returns nullopt on truncation, bad version, or inconsistent lengths.
/// Checksums are *not* verified here (the simulator generates correct
/// ones; use verify_checksums for tests).
std::optional<Decoded> decode(std::span<const uint8_t> wire);
inline std::optional<Decoded> decode(const Packet& p) {
  return decode(std::span<const uint8_t>(p.data()));
}

/// Extracts just the destination address, applying exactly the structural
/// validation `decode()` applies (accepts and rejects the same wire
/// bytes), without materializing a Decoded. This is the transit-router
/// fast path: a forwarding hop only needs the destination, and skipping
/// the full parse roughly halves per-hop cost on untapped routers. Both
/// functions run one validation walk for both families, so the lockstep
/// holds by construction.
std::optional<common::IpAddress> route_peek(std::span<const uint8_t> wire);

/// Verifies the network and transport checksums for either family: the
/// IPv4 header checksum plus TCP/UDP pseudo-header checksums (a UDP/IPv4
/// checksum of zero is accepted per RFC 768), or for IPv6 the TCP/UDP/
/// ICMPv6 pseudo-header checksums (UDP zero is invalid per RFC 8200).
bool verify_checksums(std::span<const uint8_t> wire);

/// Builder options common to all packets.
struct IpOptions {
  uint8_t ttl = 64;
  uint8_t tos = 0;
  uint16_t identification = 0;
  bool dont_fragment = true;
};

/// Builds a TCP segment inside an IPv4 datagram, computing both checksums.
Packet make_tcp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                uint16_t dst_port, uint8_t flags, uint32_t seq, uint32_t ack,
                std::span<const uint8_t> payload = {},
                const IpOptions& ip = {}, uint16_t window = 65535);

/// Builds a UDP datagram inside an IPv4 datagram.
Packet make_udp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                uint16_t dst_port, std::span<const uint8_t> payload,
                const IpOptions& ip = {});

/// Builds an ICMP message. `rest` is the 4 bytes after type/code/checksum;
/// for echo it packs id<<16|seq. `payload` follows (for time-exceeded it
/// should carry the offending IP header + 8 bytes, per RFC 792).
Packet make_icmp(Ipv4Address src, Ipv4Address dst, uint8_t type, uint8_t code,
                 uint32_t rest, std::span<const uint8_t> payload = {},
                 const IpOptions& ip = {});

/// Re-encodes a decoded IP header over `l4_bytes` (already-encoded L4
/// segment). Used by middleboxes that mutate headers (e.g. TTL rewrite).
Packet reassemble(const Ipv4Header& ip, std::span<const uint8_t> l4_bytes);

/// One extension header to append when building a v6 datagram. `body` is
/// the content after the 2-octet (next-header, length) prefix; the
/// builder pads it to the required 8-byte multiple (PadN options for
/// HBH/DestOpts, zero fill for Routing).
struct Ipv6ExtSpec {
  uint8_t type = 0;  // HopByHop, Routing, or DestOpts
  Bytes body;
};

/// Builder options for v6 packets, mirroring IpOptions.
struct Ipv6Options {
  uint8_t hop_limit = 64;
  uint8_t traffic_class = 0;
  uint32_t flow_label = 0;
  std::vector<Ipv6ExtSpec> ext;  // extension chain, in wire order
};

/// v6 builders, mirroring the v4 set. Checksums (mandatory in v6 for
/// UDP and ICMPv6) are computed over the v6 pseudo-header.
Packet make_tcp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, uint8_t flags, uint32_t seq, uint32_t ack,
                 std::span<const uint8_t> payload = {},
                 const Ipv6Options& ip = {}, uint16_t window = 65535);
Packet make_udp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, std::span<const uint8_t> payload,
                 const Ipv6Options& ip = {});
Packet make_icmp6(Ipv6Address src, Ipv6Address dst, uint8_t type,
                  uint8_t code, uint32_t rest,
                  std::span<const uint8_t> payload = {},
                  const Ipv6Options& ip = {});

/// Family-blind builders: the v4 or v6 builder above, chosen by the
/// addresses' family, with default options. `src` and `dst` must be of
/// one family.
Packet make_tcp(common::IpAddress src, common::IpAddress dst,
                uint16_t src_port, uint16_t dst_port, uint8_t flags,
                uint32_t seq, uint32_t ack,
                std::span<const uint8_t> payload = {});
Packet make_udp(common::IpAddress src, common::IpAddress dst,
                uint16_t src_port, uint16_t dst_port,
                std::span<const uint8_t> payload);

/// Re-encodes a decoded v6 header (fixed header plus extension chain,
/// byte-preserving) over `l4_bytes`. The decode→reassemble6 round trip is
/// the O5 fixpoint the fuzz suite checks.
Packet reassemble6(const Ipv6Header& ip6, std::span<const uint8_t> l4_bytes);

/// Traffic-normalizer helper: removes HopByHop/Routing/DestOpts extension
/// headers from a v6 datagram in place (Fragment headers are left for the
/// reassembly path). Pseudo-header checksums are unaffected — the v6
/// pseudo-header covers addresses, final protocol, and L4 length, none of
/// which change. Returns true if the packet was rewritten.
bool strip_ext_headers6(Packet& packet);

/// Decrements the TTL (v4) or hop limit (v6) in place; for v4 the header
/// checksum is incrementally fixed (RFC 1624), v6 has none. Returns false
/// (and leaves the packet untouched) if the field is already zero or the
/// buffer is too short for the version's fixed header.
bool decrement_ttl(Bytes& wire);

/// Rewrites the TTL/hop limit in place (traffic-normalizer style); fixes
/// the v4 checksum. Returns false on a too-short buffer.
bool set_ttl(Bytes& wire, uint8_t ttl);

}  // namespace sm::packet
