// IPv4 address, MAC address, and CIDR prefix value types.
//
// These are the fundamental identifiers used throughout the simulator and
// measurement stack. All are small, trivially copyable value types with
// total ordering so they can key std::map / appear in sorted containers.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sm::common {

/// An IPv4 address stored in host byte order.
///
/// `value()` is the 32-bit host-order integer (e.g. 10.0.0.1 == 0x0A000001);
/// use `to_bytes()` / `from_bytes()` when serializing to the wire.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4Address(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : value_((uint32_t{a} << 24) | (uint32_t{b} << 16) | (uint32_t{c} << 8) |
               uint32_t{d}) {}

  /// Parses dotted-quad notation ("192.0.2.1"). Returns nullopt on any
  /// syntactic error (wrong number of octets, octet > 255, stray chars).
  static std::optional<Ipv4Address> parse(std::string_view text);

  constexpr uint32_t value() const { return value_; }
  constexpr bool is_unspecified() const { return value_ == 0; }
  constexpr bool is_loopback() const { return (value_ >> 24) == 127; }
  constexpr bool is_multicast() const { return (value_ >> 28) == 0xE; }
  constexpr bool is_broadcast() const { return value_ == 0xFFFFFFFF; }

  /// True for RFC1918 private space (10/8, 172.16/12, 192.168/16).
  constexpr bool is_private() const {
    return (value_ >> 24) == 10 || (value_ >> 20) == 0xAC1 ||
           (value_ >> 16) == 0xC0A8;
  }

  constexpr std::array<uint8_t, 4> to_bytes() const {
    return {static_cast<uint8_t>(value_ >> 24),
            static_cast<uint8_t>(value_ >> 16),
            static_cast<uint8_t>(value_ >> 8), static_cast<uint8_t>(value_)};
  }
  static constexpr Ipv4Address from_bytes(const std::array<uint8_t, 4>& b) {
    return Ipv4Address(b[0], b[1], b[2], b[3]);
  }

  std::string to_string() const;

  auto operator<=>(const Ipv4Address&) const = default;

 private:
  uint32_t value_ = 0;
};

/// An IPv6 address stored as 16 bytes in network order.
///
/// `hi()`/`lo()` expose the two 64-bit halves (big-endian interpretation)
/// for arithmetic like prefix masking; `to_bytes()` is the wire form.
class Ipv6Address {
 public:
  constexpr Ipv6Address() = default;
  constexpr explicit Ipv6Address(const std::array<uint8_t, 16>& bytes)
      : bytes_(bytes) {}
  /// Builds from the two big-endian 64-bit halves.
  constexpr Ipv6Address(uint64_t hi, uint64_t lo) {
    for (int i = 0; i < 8; ++i) {
      bytes_[static_cast<size_t>(i)] =
          static_cast<uint8_t>(hi >> (56 - 8 * i));
      bytes_[static_cast<size_t>(8 + i)] =
          static_cast<uint8_t>(lo >> (56 - 8 * i));
    }
  }

  /// Parses RFC 4291 text (full groups, "::" compression, and an optional
  /// trailing dotted-quad). Returns nullopt on any syntactic error.
  static std::optional<Ipv6Address> parse(std::string_view text);

  constexpr uint64_t hi() const { return half(0); }
  constexpr uint64_t lo() const { return half(8); }
  constexpr bool is_unspecified() const { return hi() == 0 && lo() == 0; }
  constexpr bool is_loopback() const { return hi() == 0 && lo() == 1; }
  constexpr bool is_multicast() const { return bytes_[0] == 0xFF; }
  /// True for fc00::/7 unique-local space (the simulator's v6 addressing
  /// lives there, mirroring RFC1918 use on the v4 side).
  constexpr bool is_unique_local() const {
    return (bytes_[0] & 0xFE) == 0xFC;
  }

  constexpr const std::array<uint8_t, 16>& to_bytes() const { return bytes_; }
  static constexpr Ipv6Address from_bytes(const std::array<uint8_t, 16>& b) {
    return Ipv6Address(b);
  }

  /// RFC 5952 canonical form: lowercase hex, longest run of >=2 zero
  /// groups compressed to "::" (leftmost on tie).
  std::string to_string() const;

  auto operator<=>(const Ipv6Address&) const = default;

 private:
  constexpr uint64_t half(size_t at) const {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) v = v << 8 | bytes_[at + i];
    return v;
  }
  std::array<uint8_t, 16> bytes_{};
};

/// A family-tagged address: either IPv4 or IPv6. Small and trivially
/// copyable like the per-family types; ordering is family-first (all v4
/// sorts before all v6) so it keys maps deterministically. Construction
/// from either family is implicit, which lets single-family call sites
/// migrate without edits.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr IpAddress(Ipv4Address a) : v4_(a) {}        // NOLINT(implicit)
  constexpr IpAddress(Ipv6Address a) : is_v6_(true), v6_(a) {}  // NOLINT

  static std::optional<IpAddress> parse(std::string_view text);

  constexpr bool is_v6() const { return is_v6_; }
  /// Per-family accessors; only the active family's value is meaningful
  /// (the other is the zero address).
  constexpr Ipv4Address v4() const { return v4_; }
  constexpr Ipv6Address v6() const { return v6_; }
  constexpr bool is_unspecified() const {
    return is_v6_ ? v6_.is_unspecified() : v4_.is_unspecified();
  }

  std::string to_string() const {
    return is_v6_ ? v6_.to_string() : v4_.to_string();
  }

  auto operator<=>(const IpAddress&) const = default;

 private:
  bool is_v6_ = false;
  Ipv4Address v4_{};
  Ipv6Address v6_{};
};

/// A 48-bit Ethernet MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<uint8_t, 6> octets)
      : octets_(octets) {}

  /// Derives a locally-administered unicast MAC from a host id. Handy for
  /// the simulator where MACs only need to be unique, not realistic.
  static constexpr MacAddress from_host_id(uint32_t id) {
    return MacAddress({0x02, 0x00, static_cast<uint8_t>(id >> 24),
                       static_cast<uint8_t>(id >> 16),
                       static_cast<uint8_t>(id >> 8),
                       static_cast<uint8_t>(id)});
  }
  static std::optional<MacAddress> parse(std::string_view text);

  static constexpr MacAddress broadcast() {
    return MacAddress({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  }

  constexpr const std::array<uint8_t, 6>& octets() const { return octets_; }
  constexpr bool is_broadcast() const {
    for (auto o : octets_)
      if (o != 0xFF) return false;
    return true;
  }

  std::string to_string() const;

  auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<uint8_t, 6> octets_{};
};

/// An IPv4 CIDR prefix, e.g. 10.1.0.0/16. The stored network address is
/// always masked (host bits are zero).
class Cidr {
 public:
  constexpr Cidr() = default;
  constexpr Cidr(Ipv4Address network, uint8_t prefix_len)
      : network_(Ipv4Address(mask_bits(network.value(), prefix_len))),
        prefix_len_(prefix_len) {}

  /// Parses "a.b.c.d/len". Returns nullopt on malformed input or len > 32.
  static std::optional<Cidr> parse(std::string_view text);

  constexpr Ipv4Address network() const { return network_; }
  constexpr uint8_t prefix_len() const { return prefix_len_; }
  constexpr uint32_t netmask() const {
    return prefix_len_ == 0 ? 0 : ~uint32_t{0} << (32 - prefix_len_);
  }

  constexpr bool contains(Ipv4Address addr) const {
    return (addr.value() & netmask()) == network_.value();
  }
  constexpr bool contains(const Cidr& other) const {
    return other.prefix_len_ >= prefix_len_ && contains(other.network_);
  }

  /// Number of addresses covered (2^(32-len)); saturates at 2^32-1 for /0.
  constexpr uint64_t size() const { return uint64_t{1} << (32 - prefix_len_); }

  /// The i-th address inside the prefix (i < size()).
  constexpr Ipv4Address address_at(uint64_t i) const {
    return Ipv4Address(network_.value() + static_cast<uint32_t>(i));
  }

  std::string to_string() const;

  auto operator<=>(const Cidr&) const = default;

 private:
  static constexpr uint32_t mask_bits(uint32_t v, uint8_t len) {
    return len == 0 ? 0 : v & (~uint32_t{0} << (32 - len));
  }
  Ipv4Address network_{};
  uint8_t prefix_len_ = 0;
};

/// An IPv6 CIDR prefix, e.g. fd00::/96. The stored network address is
/// always masked, mirroring Cidr.
class Cidr6 {
 public:
  constexpr Cidr6() = default;
  constexpr Cidr6(Ipv6Address network, uint8_t prefix_len)
      : network_(masked(network, prefix_len)), prefix_len_(prefix_len) {}

  /// Parses "addr/len". Returns nullopt on malformed input or len > 128.
  static std::optional<Cidr6> parse(std::string_view text);

  constexpr Ipv6Address network() const { return network_; }
  constexpr uint8_t prefix_len() const { return prefix_len_; }

  constexpr bool contains(Ipv6Address addr) const {
    return masked(addr, prefix_len_) == network_;
  }
  constexpr bool contains(const Cidr6& other) const {
    return other.prefix_len_ >= prefix_len_ && contains(other.network_);
  }

  /// Number of addresses covered; saturates at 2^64-1 for short prefixes.
  constexpr uint64_t size() const {
    return prefix_len_ >= 64 ? (prefix_len_ == 128
                                    ? uint64_t{1}
                                    : uint64_t{1} << (128 - prefix_len_))
                             : ~uint64_t{0};
  }

  /// The i-th address inside the prefix (low 64 bits only; i < size()).
  constexpr Ipv6Address address_at(uint64_t i) const {
    return Ipv6Address(network_.hi(), network_.lo() + i);
  }

  std::string to_string() const;

  auto operator<=>(const Cidr6&) const = default;

 private:
  static constexpr Ipv6Address masked(Ipv6Address a, uint8_t len) {
    uint64_t hi = a.hi(), lo = a.lo();
    if (len == 0) return Ipv6Address(0, 0);
    if (len <= 64) {
      hi &= len == 64 ? ~uint64_t{0} : ~uint64_t{0} << (64 - len);
      lo = 0;
    } else if (len < 128) {
      lo &= ~uint64_t{0} << (128 - len);
    }
    return Ipv6Address(hi, lo);
  }
  Ipv6Address network_{};
  uint8_t prefix_len_ = 0;
};

/// Deterministic v4 -> v6 mapping used for dual-stack topologies: every
/// simulated host's v6 address is its v4 address embedded in the
/// unique-local prefix fd00::5eed:0:0/96. One rule instead of a second
/// allocator keeps v6 routing congruent with v4 and the mapping auditable
/// in traces (the v4 address is readable in the low 32 bits).
constexpr Ipv6Address map_v6(Ipv4Address v4) {
  return Ipv6Address(0xfd00'0000'0000'0000, 0x0000'5eed'0000'0000 |
                                                uint64_t{v4.value()});
}
constexpr Cidr6 map_v6(const Cidr& v4) {
  return Cidr6(map_v6(v4.network()),
               static_cast<uint8_t>(96 + v4.prefix_len()));
}
/// The same host in a chosen family: `v4` itself, or its map_v6
/// embedding when `v6`.
constexpr IpAddress map_family(Ipv4Address v4, bool v6) {
  return v6 ? IpAddress(map_v6(v4)) : IpAddress(v4);
}
/// Inverse of map_v6: the embedded v4 address, or nullopt for v6
/// addresses outside the fd00::5eed:0:0/96 embedding.
constexpr std::optional<Ipv4Address> unmap_v6(Ipv6Address v6) {
  if (v6.hi() != 0xfd00'0000'0000'0000 ||
      (v6.lo() >> 32) != 0x0000'5eed) {
    return std::nullopt;
  }
  return Ipv4Address(static_cast<uint32_t>(v6.lo()));
}

/// Attribution identity for dual-stack accounting: the per-host key that
/// both families of a host's traffic collapse onto. A v4 address is
/// itself; a v6 address inside the map_v6 embedding attributes to its
/// embedded v4; v6 addresses outside the embedding collapse to 0.0.0.0
/// (unattributable — no simulated host owns them).
constexpr Ipv4Address host_identity(const IpAddress& addr) {
  if (!addr.is_v6()) return addr.v4();
  if (auto v4 = unmap_v6(addr.v6())) return *v4;
  return Ipv4Address(uint32_t{0});
}

}  // namespace sm::common
