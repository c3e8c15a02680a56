// Datagram codec for both IP families: one validating walk behind
// decode() and route_peek(), one segment encoder per transport protocol
// behind the v4 and v6 builders, one transport checksum behind the
// builders and verify_checksums(), the byte-preserving header re-encoders,
// the v6 extension-header normalizer and the TTL rewrites. Splitting and
// reassembly live in packet/fragment.cpp.
#include "packet/packet.hpp"

#include <algorithm>
#include <cassert>

#include "common/bytes.hpp"
#include "packet/checksum.hpp"

namespace sm::packet {

using common::ByteWriter;
using common::IpAddress;

namespace {

constexpr uint16_t kFlagDf = 0x4000;
constexpr uint16_t kFlagMf = 0x2000;
constexpr uint16_t kFragMask = 0x1FFF;

constexpr uint8_t proto_u8(IpProto p) { return static_cast<uint8_t>(p); }

uint16_t rd16(std::span<const uint8_t> wire, size_t off) {
  return static_cast<uint16_t>(uint16_t{wire[off]} << 8 | wire[off + 1]);
}
uint32_t rd32(std::span<const uint8_t> wire, size_t off) {
  return static_cast<uint32_t>(rd16(wire, off)) << 16 | rd16(wire, off + 2);
}
void wr16(std::span<uint8_t> out, size_t off, uint16_t v) {
  out[off] = static_cast<uint8_t>(v >> 8);
  out[off + 1] = static_cast<uint8_t>(v);
}
void wr32(std::span<uint8_t> out, size_t off, uint32_t v) {
  wr16(out, off, static_cast<uint16_t>(v >> 16));
  wr16(out, off + 2, static_cast<uint16_t>(v));
}

// --- The walk: which bytes are a valid datagram, and where its fields are.

/// A datagram's place in its fragment series decides how much transport
/// header it carries: a first fragment has the header but a cut payload,
/// and a later one is an opaque slice of the original datagram.
enum class Frag : uint8_t { None, First, Later };

constexpr Frag frag_of(uint16_t offset_units, bool more_fragments) {
  return offset_units != 0 ? Frag::Later
         : more_fragments  ? Frag::First
                           : Frag::None;
}

/// The transport rules of both families, over the `len` bytes at `off`:
/// fills `out`'s transport header and payload when non-null. `icmp` is
/// the family's ICMP protocol number. Inline so that route_peek's copy,
/// with no output, keeps only the checks.
inline bool parse_l4(std::span<const uint8_t> wire, size_t off, size_t len,
                     uint8_t proto, uint8_t icmp, Frag frag, Decoded* out) {
  size_t header = 0;  // transport header bytes in front of the payload
  size_t payload = len;
  if (frag == Frag::Later) {
    // Nothing past the network header is parsable.
  } else if (proto == proto_u8(IpProto::Tcp)) {
    if (len < 20) return false;
    header = static_cast<size_t>(wire[off + 12] >> 4) * 4;
    if (header < 20 || header > len) return false;
    payload = len - header;
    if (out) {
      TcpHeader& t = out->tcp.emplace();
      t.src_port = rd16(wire, off);
      t.dst_port = rd16(wire, off + 2);
      t.seq = rd32(wire, off + 4);
      t.ack = rd32(wire, off + 8);
      t.flags = wire[off + 13];
      t.window = rd16(wire, off + 14);
      t.checksum = rd16(wire, off + 16);
      t.urgent = rd16(wire, off + 18);
      if (header > 20) t.options = wire.subspan(off + 20, header - 20);
    }
  } else if (proto == proto_u8(IpProto::Udp)) {
    if (len < 8) return false;
    uint16_t udp_len = rd16(wire, off + 4);
    // A first fragment's length field describes the whole datagram.
    if (udp_len < 8 || (frag == Frag::None && udp_len > len)) return false;
    header = 8;
    payload = std::min<size_t>(udp_len, len) - 8;
    if (out) {
      out->udp = UdpHeader{.src_port = rd16(wire, off),
                           .dst_port = rd16(wire, off + 2),
                           .length = udp_len,
                           .checksum = rd16(wire, off + 6)};
    }
  } else if (proto == icmp) {
    if (len < 8) return false;
    header = 8;
    payload = len - 8;
    if (out) {
      out->icmp = IcmpHeader{.type = wire[off],
                             .code = wire[off + 1],
                             .checksum = rd16(wire, off + 2),
                             .rest = rd32(wire, off + 4)};
    }
  }
  if (out) out->l4_payload = wire.subspan(off + header, payload);
  return true;
}

bool parse_v4(std::span<const uint8_t> wire, Decoded* out) {
  if (wire.size() < 20) return false;
  size_t ihl = static_cast<size_t>(wire[0] & 0x0F) * 4;
  uint16_t total_length = rd16(wire, 2);
  // Trailing bytes past total_length are tolerated.
  if (ihl < 20 || total_length < ihl || total_length > wire.size())
    return false;
  uint16_t ff = rd16(wire, 6);
  if (out) {
    Ipv4Header& h = out->ip;
    h.tos = wire[1];
    h.total_length = total_length;
    h.identification = rd16(wire, 4);
    h.dont_fragment = ff & kFlagDf;
    h.more_fragments = ff & kFlagMf;
    h.fragment_offset = ff & kFragMask;
    h.ttl = wire[8];
    h.protocol = wire[9];
    h.checksum = rd16(wire, 10);
    h.src = Ipv4Address(rd32(wire, 12));
    h.dst = Ipv4Address(rd32(wire, 16));
    if (ihl > 20) h.options = wire.subspan(20, ihl - 20);
  }
  return parse_l4(wire, ihl, total_length - ihl, wire[9],
                  proto_u8(IpProto::Icmp),
                  frag_of(ff & kFragMask, ff & kFlagMf), out);
}

bool parse_v6(std::span<const uint8_t> wire, Decoded* out) {
  if (wire.size() < 40) return false;
  uint16_t payload_length = rd16(wire, 4);
  // Like v4's total_length: the declared payload must fit the buffer.
  size_t end = 40 + static_cast<size_t>(payload_length);
  if (end > wire.size()) return false;

  Ipv6Header scratch;
  Ipv6Header& h = out ? out->ip6.emplace() : scratch;
  h.payload_length = payload_length;
  h.next_header = wire[6];
  if (out) {
    h.traffic_class =
        static_cast<uint8_t>((wire[0] & 0x0F) << 4 | wire[1] >> 4);
    h.flow_label = static_cast<uint32_t>(wire[1] & 0x0F) << 16 |
                   static_cast<uint32_t>(wire[2]) << 8 | wire[3];
    h.hop_limit = wire[7];
    std::array<uint8_t, 16> a{};
    std::copy_n(wire.begin() + 8, 16, a.begin());
    h.src = Ipv6Address(a);
    std::copy_n(wire.begin() + 24, 16, a.begin());
    h.dst = Ipv6Address(a);
  }

  // Extension-header walk. Every step strictly advances `off` (each
  // header is >= 8 bytes), so the loop terminates on any input.
  size_t off = 40;
  size_t prev_nh_off = 6;
  uint8_t nh = h.next_header;
  Frag frag = Frag::None;
  while (is_v6_ext_header(nh) && frag != Frag::Later) {
    if (h.ext_count == Ipv6Header::kMaxExtHeaders) return false;
    if (nh == proto_u8(IpProto::HopByHop) && off != 40)
      return false;  // RFC 8200: HBH only directly after the fixed header
    size_t len = 8;
    if (nh == proto_u8(IpProto::Fragment)) {
      if (h.has_fragment) return false;  // at most one fragment header
      if (off + 8 > end) return false;
      uint16_t offlags = rd16(wire, off + 2);
      h.has_fragment = true;
      h.fragment_offset = static_cast<uint16_t>(offlags >> 3);
      h.more_fragments = offlags & 0x1;
      h.fragment_id = rd32(wire, off + 4);
      h.frag_next = wire[off];
      h.frag_hdr_offset = off;
      h.frag_prev_nh_offset = prev_nh_off;
      frag = frag_of(h.fragment_offset, h.more_fragments);
    } else {
      if (off + 2 > end) return false;
      len = (static_cast<size_t>(wire[off + 1]) + 1) * 8;
      if (off + len > end) return false;
    }
    h.ext[h.ext_count++] = Ipv6ExtHeader{nh, wire.subspan(off, len)};
    prev_nh_off = off;
    nh = wire[off];
    off += len;
  }
  h.ext_length = off - 40;
  h.l4_proto = nh;
  return parse_l4(wire, off, end - off, nh, proto_u8(IpProto::Icmp6), frag,
                  out);
}

/// The one validating walk: dispatches on the version nibble and fills
/// `out` when non-null. decode() and route_peek() both run it, so they
/// accept and reject the same bytes by construction.
bool parse(std::span<const uint8_t> wire, Decoded* out) {
  if (wire.empty()) return false;
  switch (wire[0] >> 4) {
    case 4: return parse_v4(wire, out);
    case 6: return parse_v6(wire, out);
    default: return false;
  }
}

// --- Encoders: one segment encoder per transport, a header per family.

/// The transport checksum of `segment`: ICMPv4 covers the segment alone;
/// TCP, UDP and ICMPv6 add the family's pseudo-header. A segment whose
/// checksum field holds its correct sum yields zero.
uint16_t l4_checksum(const IpAddress& src, const IpAddress& dst,
                     uint8_t proto, std::span<const uint8_t> segment) {
  if (src.is_v6())
    return pseudo_header_checksum6(src.v6(), dst.v6(), proto, segment);
  if (proto == proto_u8(IpProto::Icmp)) return internet_checksum(segment);
  return pseudo_header_checksum(src.v4(), dst.v4(), proto, segment);
}

// Each segment encoder writes its segment over the last bytes of `p`,
// which the family's header wrapper below left zeroed, and then fills in
// the checksum.

void tcp_segment(Packet& p, const IpAddress& src, const IpAddress& dst,
                 uint16_t src_port, uint16_t dst_port, uint8_t flags,
                 uint32_t seq, uint32_t ack, uint16_t window,
                 std::span<const uint8_t> payload) {
  auto seg = std::span<uint8_t>(p.data()).last(20 + payload.size());
  wr16(seg, 0, src_port);
  wr16(seg, 2, dst_port);
  wr32(seg, 4, seq);
  wr32(seg, 8, ack);
  seg[12] = 5 << 4;  // data offset = 5 words, no options
  seg[13] = flags;
  wr16(seg, 14, window);
  // The checksum (16) and urgent pointer (18) stay zero until here.
  std::copy(payload.begin(), payload.end(), seg.begin() + 20);
  wr16(seg, 16, l4_checksum(src, dst, proto_u8(IpProto::Tcp), seg));
}

void udp_segment(Packet& p, const IpAddress& src, const IpAddress& dst,
                 uint16_t src_port, uint16_t dst_port,
                 std::span<const uint8_t> payload) {
  auto seg = std::span<uint8_t>(p.data()).last(8 + payload.size());
  wr16(seg, 0, src_port);
  wr16(seg, 2, dst_port);
  wr16(seg, 4, static_cast<uint16_t>(seg.size()));
  std::copy(payload.begin(), payload.end(), seg.begin() + 8);
  uint16_t csum = l4_checksum(src, dst, proto_u8(IpProto::Udp), seg);
  // RFC 768 / RFC 8200: zero means "no checksum", so a computed zero
  // goes out as all-ones.
  wr16(seg, 6, csum == 0 ? 0xFFFF : csum);
}

void icmp_segment(Packet& p, const IpAddress& src, const IpAddress& dst,
                  uint8_t type, uint8_t code, uint32_t rest,
                  std::span<const uint8_t> payload) {
  auto seg = std::span<uint8_t>(p.data()).last(8 + payload.size());
  seg[0] = type;
  seg[1] = code;
  wr32(seg, 4, rest);
  std::copy(payload.begin(), payload.end(), seg.begin() + 8);
  IpProto proto = src.is_v6() ? IpProto::Icmp6 : IpProto::Icmp;
  wr16(seg, 2, l4_checksum(src, dst, proto_u8(proto), seg));
}

/// Writes the IPv4 header `h`, checksum included, over the front of
/// `out`, a datagram of `out.size()` bytes.
void encode_ipv4_header(std::span<uint8_t> out, const Ipv4Header& h) {
  size_t header_len = h.header_length();
  uint16_t ff = static_cast<uint16_t>(h.fragment_offset & kFragMask);
  if (h.dont_fragment) ff |= kFlagDf;
  if (h.more_fragments) ff |= kFlagMf;
  out[0] = static_cast<uint8_t>(0x40 | header_len / 4);
  out[1] = h.tos;
  wr16(out, 2, static_cast<uint16_t>(out.size()));
  wr16(out, 4, h.identification);
  wr16(out, 6, ff);
  out[8] = h.ttl;
  out[9] = h.protocol;
  wr16(out, 10, 0);  // checksum placeholder
  wr32(out, 12, h.src.value());
  wr32(out, 16, h.dst.value());
  std::copy(h.options.begin(), h.options.end(), out.begin() + 20);
  wr16(out, 10, internet_checksum(out.first(header_len)));
}

/// A v4 datagram for a `seg_len`-byte `proto` segment: the header, then
/// the segment's bytes zeroed for a segment encoder to fill.
Packet ipv4_datagram(Ipv4Address src, Ipv4Address dst, IpProto proto,
                     const IpOptions& opt, size_t seg_len) {
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = proto_u8(proto);
  h.ttl = opt.ttl;
  h.tos = opt.tos;
  h.identification = opt.identification;
  h.dont_fragment = opt.dont_fragment;
  Bytes out(20 + seg_len);
  encode_ipv4_header(out, h);
  return Packet(std::move(out));
}

/// The fixed v6 header in front of `payload_len` bytes of extension
/// headers and segment.
std::array<uint8_t, 40> ipv6_fixed_header(uint8_t traffic_class,
                                          uint32_t flow_label,
                                          size_t payload_len,
                                          uint8_t next_header,
                                          uint8_t hop_limit,
                                          const Ipv6Address& src,
                                          const Ipv6Address& dst) {
  std::array<uint8_t, 40> h;
  h[0] = static_cast<uint8_t>(0x60 | traffic_class >> 4);
  h[1] = static_cast<uint8_t>((traffic_class & 0x0F) << 4 |
                              (flow_label >> 16 & 0x0F));
  wr16(h, 2, static_cast<uint16_t>(flow_label));
  wr16(h, 4, static_cast<uint16_t>(payload_len));
  h[6] = next_header;
  h[7] = hop_limit;
  std::copy_n(src.to_bytes().begin(), 16, h.begin() + 8);
  std::copy_n(dst.to_bytes().begin(), 16, h.begin() + 24);
  return h;
}

size_t ext_encoded_len(const Ipv6ExtSpec& e) {
  return (2 + e.body.size() + 7) / 8 * 8;
}

/// Encodes one extension header: next-header, length, body, padding.
/// HBH/DestOpts get well-formed Pad1/PadN option padding; Routing is
/// zero-filled (its tail is type-specific data the decoder treats as
/// opaque).
void encode_ext(ByteWriter& w, const Ipv6ExtSpec& e, uint8_t next) {
  size_t total = ext_encoded_len(e);
  w.u8(next);
  w.u8(static_cast<uint8_t>(total / 8 - 1));
  w.bytes(e.body);
  size_t pad = total - 2 - e.body.size();
  if (e.type == proto_u8(IpProto::Routing)) {
    w.zeros(pad);
  } else if (pad == 1) {
    w.u8(0);  // Pad1
  } else if (pad >= 2) {
    w.u8(1);  // PadN
    w.u8(static_cast<uint8_t>(pad - 2));
    w.zeros(pad - 2);
  }
}

/// A v6 datagram for a `seg_len`-byte `proto` segment: the fixed header
/// and the extension chain in `opt`, then the segment's bytes zeroed for
/// a segment encoder to fill.
Packet ipv6_datagram(Ipv6Address src, Ipv6Address dst, IpProto proto,
                     const Ipv6Options& opt, size_t seg_len) {
  size_t ext_len = 0;
  for (const auto& e : opt.ext) ext_len += ext_encoded_len(e);
  ByteWriter w(40 + ext_len + seg_len);
  w.bytes(ipv6_fixed_header(
      opt.traffic_class, opt.flow_label, ext_len + seg_len,
      opt.ext.empty() ? proto_u8(proto) : opt.ext.front().type,
      opt.hop_limit, src, dst));
  for (size_t i = 0; i < opt.ext.size(); ++i) {
    uint8_t next =
        i + 1 < opt.ext.size() ? opt.ext[i + 1].type : proto_u8(proto);
    encode_ext(w, opt.ext[i], next);
  }
  w.zeros(seg_len);
  return Packet(w.take());
}

}  // namespace

std::optional<Decoded> decode(std::span<const uint8_t> wire) {
  std::optional<Decoded> d(std::in_place);
  if (!parse(wire, &*d)) d.reset();
  return d;
}

std::optional<common::IpAddress> route_peek(std::span<const uint8_t> wire) {
  if (!parse(wire, nullptr)) return std::nullopt;
  // The result is built in place: a temporary IpAddress stalls the
  // 16-byte copy into the optional on the 4-byte store before it.
  if ((wire[0] >> 4) == 4) return Ipv4Address(rd32(wire, 16));
  std::array<uint8_t, 16> dst;
  std::copy_n(wire.begin() + 24, 16, dst.begin());
  return Ipv6Address(dst);
}

bool verify_checksums(std::span<const uint8_t> wire) {
  auto d = decode(wire);
  if (!d) return false;
  // A correct IPv4 header checksums to zero when summed including the
  // checksum field itself; v6 has no network-header checksum.
  if (!d->is_v6() && internet_checksum(wire.first(d->ip.header_length())))
    return false;
  if (!d->tcp && !d->udp && !d->icmp) return true;
  // A UDP zero means "no checksum": optional over v4 (RFC 768),
  // forbidden over v6 (RFC 8200).
  if (d->udp && d->udp->checksum == 0) return !d->is_v6();
  size_t start = d->net_header_length();
  size_t end = d->is_v6() ? 40 + d->ip6->payload_length : d->ip.total_length;
  return l4_checksum(d->src_addr(), d->dst_addr(), d->l4_proto(),
                     wire.subspan(start, end - start)) == 0;
}

Packet make_tcp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                uint16_t dst_port, uint8_t flags, uint32_t seq, uint32_t ack,
                std::span<const uint8_t> payload, const IpOptions& ip,
                uint16_t window) {
  Packet p = ipv4_datagram(src, dst, IpProto::Tcp, ip, 20 + payload.size());
  tcp_segment(p, src, dst, src_port, dst_port, flags, seq, ack, window,
              payload);
  return p;
}

Packet make_udp(Ipv4Address src, Ipv4Address dst, uint16_t src_port,
                uint16_t dst_port, std::span<const uint8_t> payload,
                const IpOptions& ip) {
  Packet p = ipv4_datagram(src, dst, IpProto::Udp, ip, 8 + payload.size());
  udp_segment(p, src, dst, src_port, dst_port, payload);
  return p;
}

Packet make_icmp(Ipv4Address src, Ipv4Address dst, uint8_t type, uint8_t code,
                 uint32_t rest, std::span<const uint8_t> payload,
                 const IpOptions& ip) {
  Packet p = ipv4_datagram(src, dst, IpProto::Icmp, ip, 8 + payload.size());
  icmp_segment(p, src, dst, type, code, rest, payload);
  return p;
}

Packet make_tcp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, uint8_t flags, uint32_t seq, uint32_t ack,
                 std::span<const uint8_t> payload, const Ipv6Options& ip,
                 uint16_t window) {
  Packet p = ipv6_datagram(src, dst, IpProto::Tcp, ip, 20 + payload.size());
  tcp_segment(p, src, dst, src_port, dst_port, flags, seq, ack, window,
              payload);
  return p;
}

Packet make_udp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, std::span<const uint8_t> payload,
                 const Ipv6Options& ip) {
  Packet p = ipv6_datagram(src, dst, IpProto::Udp, ip, 8 + payload.size());
  udp_segment(p, src, dst, src_port, dst_port, payload);
  return p;
}

Packet make_icmp6(Ipv6Address src, Ipv6Address dst, uint8_t type,
                  uint8_t code, uint32_t rest,
                  std::span<const uint8_t> payload, const Ipv6Options& ip) {
  Packet p = ipv6_datagram(src, dst, IpProto::Icmp6, ip, 8 + payload.size());
  icmp_segment(p, src, dst, type, code, rest, payload);
  return p;
}

Packet make_tcp(common::IpAddress src, common::IpAddress dst,
                uint16_t src_port, uint16_t dst_port, uint8_t flags,
                uint32_t seq, uint32_t ack,
                std::span<const uint8_t> payload) {
  assert(src.is_v6() == dst.is_v6());
  if (dst.is_v6())
    return make_tcp6(src.v6(), dst.v6(), src_port, dst_port, flags, seq, ack,
                     payload);
  return make_tcp(src.v4(), dst.v4(), src_port, dst_port, flags, seq, ack,
                  payload);
}

Packet make_udp(common::IpAddress src, common::IpAddress dst,
                uint16_t src_port, uint16_t dst_port,
                std::span<const uint8_t> payload) {
  assert(src.is_v6() == dst.is_v6());
  if (dst.is_v6())
    return make_udp6(src.v6(), dst.v6(), src_port, dst_port, payload);
  return make_udp(src.v4(), dst.v4(), src_port, dst_port, payload);
}

Packet reassemble(const Ipv4Header& ip, std::span<const uint8_t> l4_bytes) {
  Bytes out(ip.header_length() + l4_bytes.size());
  encode_ipv4_header(out, ip);
  std::copy(l4_bytes.begin(), l4_bytes.end(),
            out.begin() + static_cast<std::ptrdiff_t>(ip.header_length()));
  return Packet(std::move(out));
}

Packet reassemble6(const Ipv6Header& ip6, std::span<const uint8_t> l4_bytes) {
  ByteWriter w(ip6.header_length() + l4_bytes.size());
  w.bytes(ipv6_fixed_header(
      ip6.traffic_class, ip6.flow_label, ip6.ext_length + l4_bytes.size(),
      ip6.ext_count != 0 ? ip6.ext[0].type : ip6.l4_proto, ip6.hop_limit,
      ip6.src, ip6.dst));
  // Extension headers are spliced back verbatim: each one's embedded
  // next-header octet is already correct for its position in the chain.
  for (const auto& e : ip6.ext_headers()) w.bytes(e.data);
  w.bytes(l4_bytes);
  return Packet(w.take());
}

bool strip_ext_headers6(Packet& packet) {
  auto d = decode(packet);
  // Fragmented datagrams are left alone: removing headers from the
  // unfragmentable part would shift fragment payload offsets.
  if (!d || !d->ip6 || d->ip6->ext_count == 0 || d->ip6->has_fragment)
    return false;
  Ipv6Header h = *d->ip6;
  size_t hlen = h.header_length();
  std::span<const uint8_t> l4(packet.data().data() + hlen,
                              40 + h.payload_length - hlen);
  h.ext_count = 0;
  h.ext_length = 0;
  h.next_header = h.l4_proto;
  Packet out = reassemble6(h, l4);
  out.set_prov_id(packet.prov_id());
  packet = std::move(out);
  return true;
}

namespace {
/// RFC 1624 incremental checksum update for a rewrite of the TTL octet.
void fix_checksum_for_ttl(Bytes& wire, uint8_t old_ttl) {
  uint16_t old_word =
      static_cast<uint16_t>(uint16_t{old_ttl} << 8 | wire[9]);
  uint16_t new_word =
      static_cast<uint16_t>(uint16_t{wire[8]} << 8 | wire[9]);
  uint16_t hc = static_cast<uint16_t>(uint16_t{wire[10]} << 8 | wire[11]);
  uint32_t sum = static_cast<uint16_t>(~hc);
  sum += static_cast<uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  uint16_t hc2 = static_cast<uint16_t>(~sum);
  wire[10] = static_cast<uint8_t>(hc2 >> 8);
  wire[11] = static_cast<uint8_t>(hc2);
}
}  // namespace

bool decrement_ttl(Bytes& wire) {
  if (!wire.empty() && (wire[0] >> 4) == 6) {
    if (wire.size() < 40 || wire[7] == 0) return false;
    --wire[7];  // hop limit; v6 has no header checksum to fix
    return true;
  }
  if (wire.size() < 20) return false;
  uint8_t ttl = wire[8];
  if (ttl == 0) return false;
  wire[8] = static_cast<uint8_t>(ttl - 1);
  fix_checksum_for_ttl(wire, ttl);
  return true;
}

bool set_ttl(Bytes& wire, uint8_t ttl) {
  if (!wire.empty() && (wire[0] >> 4) == 6) {
    if (wire.size() < 40) return false;
    wire[7] = ttl;
    return true;
  }
  if (wire.size() < 20) return false;
  uint8_t old_ttl = wire[8];
  wire[8] = ttl;
  fix_checksum_for_ttl(wire, old_ttl);
  return true;
}

}  // namespace sm::packet
