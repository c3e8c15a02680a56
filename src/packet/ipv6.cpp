// IPv6 codec: validating parse (shared by decode and route_peek),
// builders (and the family-blind ones over IpAddress), byte-preserving
// re-encode, and the extension-header normalizer. The fragment extension
// header is handled here for parsing; splitting/reassembly lives in
// packet/fragment.cpp beside the v4 path.
#include <cassert>

#include "common/bytes.hpp"
#include "packet/checksum.hpp"
#include "packet/packet.hpp"

namespace sm::packet {

using common::ByteWriter;

namespace detail {

// Walks and validates one v6 datagram, filling `out` when non-null.
// decode() and route_peek() both run exactly this walk, so the
// accept/reject lockstep between them holds by construction instead of
// by parallel maintenance (the v4 pair keeps two hand-matched copies).
bool parse6(std::span<const uint8_t> wire, Decoded* out) {
  if (wire.size() < 40 || (wire[0] >> 4) != 6) return false;
  auto rd16 = [&](size_t off) {
    return static_cast<uint16_t>(uint16_t{wire[off]} << 8 | wire[off + 1]);
  };
  uint16_t payload_length = rd16(4);
  // Like v4's total_length check: the declared payload must fit the
  // buffer; trailing extra bytes are tolerated.
  size_t end = 40 + static_cast<size_t>(payload_length);
  if (end > wire.size()) return false;

  Ipv6Header h;
  h.traffic_class =
      static_cast<uint8_t>((wire[0] & 0x0F) << 4 | wire[1] >> 4);
  h.flow_label = static_cast<uint32_t>(wire[1] & 0x0F) << 16 |
                 static_cast<uint32_t>(wire[2]) << 8 | wire[3];
  h.payload_length = payload_length;
  h.next_header = wire[6];
  h.hop_limit = wire[7];
  std::array<uint8_t, 16> a{};
  for (size_t i = 0; i < 16; ++i) a[i] = wire[8 + i];
  h.src = Ipv6Address(a);
  for (size_t i = 0; i < 16; ++i) a[i] = wire[24 + i];
  h.dst = Ipv6Address(a);

  // Extension-header walk. Every step strictly advances `off` (each
  // header is >= 8 bytes), so the loop terminates on any input.
  size_t off = 40;
  size_t prev_nh_off = 6;
  uint8_t nh = h.next_header;
  bool non_first_fragment = false;
  while (is_v6_ext_header(nh)) {
    if (h.ext_count == Ipv6Header::kMaxExtHeaders) return false;
    if (nh == static_cast<uint8_t>(IpProto::HopByHop) && off != 40)
      return false;  // RFC 8200: HBH only directly after the fixed header
    if (nh == static_cast<uint8_t>(IpProto::Fragment)) {
      if (h.has_fragment) return false;  // at most one fragment header
      if (off + 8 > end) return false;
      uint16_t offlags = rd16(off + 2);
      h.has_fragment = true;
      h.fragment_offset = static_cast<uint16_t>(offlags >> 3);
      h.more_fragments = offlags & 0x1;
      h.fragment_id = static_cast<uint32_t>(rd16(off + 4)) << 16 |
                      rd16(off + 6);
      h.frag_next = wire[off];
      h.frag_hdr_offset = off;
      h.frag_prev_nh_offset = prev_nh_off;
      h.ext[h.ext_count++] = Ipv6ExtHeader{nh, wire.subspan(off, 8)};
      prev_nh_off = off;
      nh = wire[off];
      off += 8;
      // A non-first fragment carries an opaque slice of the original
      // datagram: no further headers are parsable (mirrors v4).
      if (h.fragment_offset != 0) {
        non_first_fragment = true;
        break;
      }
      continue;
    }
    if (off + 2 > end) return false;
    size_t len = (static_cast<size_t>(wire[off + 1]) + 1) * 8;
    if (off + len > end) return false;
    h.ext[h.ext_count++] = Ipv6ExtHeader{nh, wire.subspan(off, len)};
    prev_nh_off = off;
    nh = wire[off];
    off += len;
  }
  h.ext_length = off - 40;
  h.l4_proto = nh;

  if (out == nullptr) {
    if (non_first_fragment) return true;
  } else {
    out->ip6 = h;
  }

  size_t l3_payload_len = end - off;
  if (non_first_fragment) {
    if (out) out->l4_payload = wire.subspan(off, l3_payload_len);
    return true;
  }
  // A first fragment carries the L4 header but a truncated payload, and
  // its UDP length field describes the original whole datagram.
  bool first_fragment = h.has_fragment && h.more_fragments;

  switch (nh) {
    case static_cast<uint8_t>(IpProto::Tcp): {
      if (l3_payload_len < 20) return false;
      size_t data_offset = static_cast<size_t>(wire[off + 12] >> 4) * 4;
      if (data_offset < 20 || data_offset > l3_payload_len) return false;
      if (out) {
        TcpHeader t;
        t.src_port = rd16(off);
        t.dst_port = rd16(off + 2);
        t.seq = static_cast<uint32_t>(rd16(off + 4)) << 16 | rd16(off + 6);
        t.ack = static_cast<uint32_t>(rd16(off + 8)) << 16 | rd16(off + 10);
        t.flags = wire[off + 13];
        t.window = rd16(off + 14);
        t.checksum = rd16(off + 16);
        t.urgent = rd16(off + 18);
        if (data_offset > 20)
          t.options = wire.subspan(off + 20, data_offset - 20);
        out->tcp = t;
        out->l4_payload =
            wire.subspan(off + data_offset, l3_payload_len - data_offset);
      }
      return true;
    }
    case static_cast<uint8_t>(IpProto::Udp): {
      if (l3_payload_len < 8) return false;
      uint16_t udp_len = rd16(off + 4);
      if (udp_len < 8 || (!first_fragment && udp_len > l3_payload_len))
        return false;
      if (out) {
        UdpHeader u;
        u.src_port = rd16(off);
        u.dst_port = rd16(off + 2);
        u.length = udp_len;
        u.checksum = rd16(off + 6);
        out->udp = u;
        out->l4_payload = wire.subspan(
            off + 8, std::min<size_t>(udp_len - 8, l3_payload_len - 8));
      }
      return true;
    }
    case static_cast<uint8_t>(IpProto::Icmp6): {
      if (l3_payload_len < 8) return false;
      if (out) {
        IcmpHeader i;
        i.type = wire[off];
        i.code = wire[off + 1];
        i.checksum = rd16(off + 2);
        i.rest = static_cast<uint32_t>(rd16(off + 4)) << 16 | rd16(off + 6);
        out->icmp = i;
        out->l4_payload = wire.subspan(off + 8, l3_payload_len - 8);
      }
      return true;
    }
    default:
      if (out) out->l4_payload = wire.subspan(off, l3_payload_len);
      return true;
  }
}

}  // namespace detail

namespace {

constexpr uint8_t proto_u8(IpProto p) { return static_cast<uint8_t>(p); }

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

/// Encodes the fixed header plus extension chain; `seg` is the finished
/// L4 segment (checksum already patched).
Packet finish6(Ipv6Address src, Ipv6Address dst, uint8_t l4_proto,
               const Ipv6Options& opt, std::span<const uint8_t> seg) {
  size_t ext_len = 0;
  for (const auto& e : opt.ext) ext_len += ext_encoded_len(e);
  ByteWriter w(40 + ext_len + seg.size());
  w.u8(static_cast<uint8_t>(0x60 | opt.traffic_class >> 4));
  w.u8(static_cast<uint8_t>((opt.traffic_class & 0x0F) << 4 |
                            (opt.flow_label >> 16 & 0x0F)));
  w.u16(static_cast<uint16_t>(opt.flow_label));
  w.u16(static_cast<uint16_t>(ext_len + seg.size()));
  w.u8(opt.ext.empty() ? l4_proto : opt.ext.front().type);
  w.u8(opt.hop_limit);
  w.bytes(src.to_bytes());
  w.bytes(dst.to_bytes());
  for (size_t i = 0; i < opt.ext.size(); ++i) {
    uint8_t next =
        i + 1 < opt.ext.size() ? opt.ext[i + 1].type : l4_proto;
    encode_ext(w, opt.ext[i], next);
  }
  w.bytes(seg);
  return Packet(w.take());
}

}  // namespace

Packet make_tcp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, uint8_t flags, uint32_t seq, uint32_t ack,
                 std::span<const uint8_t> payload, const Ipv6Options& ip,
                 uint16_t window) {
  ByteWriter seg(20 + payload.size());
  seg.u16(src_port);
  seg.u16(dst_port);
  seg.u32(seq);
  seg.u32(ack);
  seg.u8(5 << 4);  // data offset = 5 words, no options
  seg.u8(flags);
  seg.u16(window);
  seg.u16(0);  // checksum placeholder
  seg.u16(0);  // urgent
  seg.bytes(payload);
  seg.patch_u16(16, pseudo_header_checksum6(src, dst, proto_u8(IpProto::Tcp),
                                            seg.data()));
  return finish6(src, dst, proto_u8(IpProto::Tcp), ip, seg.data());
}

Packet make_udp6(Ipv6Address src, Ipv6Address dst, uint16_t src_port,
                 uint16_t dst_port, std::span<const uint8_t> payload,
                 const Ipv6Options& ip) {
  ByteWriter seg(8 + payload.size());
  seg.u16(src_port);
  seg.u16(dst_port);
  seg.u16(static_cast<uint16_t>(8 + payload.size()));
  seg.u16(0);
  seg.bytes(payload);
  uint16_t csum = pseudo_header_checksum6(src, dst, proto_u8(IpProto::Udp),
                                          seg.data());
  if (csum == 0) csum = 0xFFFF;  // RFC 8200: zero means "no checksum"
  seg.patch_u16(6, csum);
  return finish6(src, dst, proto_u8(IpProto::Udp), ip, seg.data());
}

Packet make_icmp6(Ipv6Address src, Ipv6Address dst, uint8_t type,
                  uint8_t code, uint32_t rest,
                  std::span<const uint8_t> payload, const Ipv6Options& ip) {
  ByteWriter seg(8 + payload.size());
  seg.u8(type);
  seg.u8(code);
  seg.u16(0);
  seg.u32(rest);
  seg.bytes(payload);
  // Unlike v4 ICMP, the ICMPv6 checksum covers the pseudo-header.
  seg.patch_u16(2, pseudo_header_checksum6(src, dst, proto_u8(IpProto::Icmp6),
                                           seg.data()));
  return finish6(src, dst, proto_u8(IpProto::Icmp6), ip, seg.data());
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

Packet reassemble6(const Ipv6Header& ip6, std::span<const uint8_t> l4_bytes) {
  ByteWriter w(ip6.header_length() + l4_bytes.size());
  w.u8(static_cast<uint8_t>(0x60 | ip6.traffic_class >> 4));
  w.u8(static_cast<uint8_t>((ip6.traffic_class & 0x0F) << 4 |
                            (ip6.flow_label >> 16 & 0x0F)));
  w.u16(static_cast<uint16_t>(ip6.flow_label));
  w.u16(static_cast<uint16_t>(ip6.ext_length + l4_bytes.size()));
  w.u8(ip6.ext_count != 0 ? ip6.ext[0].type : ip6.l4_proto);
  w.u8(ip6.hop_limit);
  w.bytes(ip6.src.to_bytes());
  w.bytes(ip6.dst.to_bytes());
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

}  // namespace sm::packet
