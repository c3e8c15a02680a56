// L3 router/switch with inline taps.
//
// This node plays the role of the Open vSwitch box in the paper's Figure 1
// testbed: every forwarded packet passes, in order, through a chain of
// Taps. The censorship engine and the surveillance MVR are both Taps — the
// censor may drop or inject, the MVR only observes. The router also models
// TTL handling (decrement, ICMP Time Exceeded) and per-port ingress
// source-address validation, which is where BCP38 filtering lives.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/ip.hpp"
#include "netsim/engine.hpp"
#include "netsim/node.hpp"
#include "packet/packet.hpp"

namespace sm::netsim {

using common::Cidr;
using common::Cidr6;
using common::IpAddress;
using common::Ipv4Address;
using common::Ipv6Address;

class Router;

/// What a tap tells the router to do with the packet it just saw.
enum class TapDecision {
  Pass,  // keep forwarding (subsequent taps still run)
  Drop,  // discard; subsequent taps do not see it
};

/// Everything a tap gets to look at for one forwarded packet. The view
/// borrows the router's in-flight buffer: it is valid only inside
/// Tap::process. A tap that keeps bytes must go through
/// PacketView::retain(), which copies (and counts the copy).
struct TapContext {
  common::SimTime now;
  packet::PacketView pkt;
  int in_port;
  int out_port;
  /// Provenance id of the packet (its PacketSent event), 0 when
  /// provenance is off. Taps use it as the causal parent of whatever
  /// they record about this packet.
  uint64_t prov = 0;

  const packet::Decoded& decoded() const { return pkt.decoded(); }
};

/// In-path observer/enforcer. Taps are non-owning: the registering code
/// must keep the tap alive as long as the router holds it.
class Tap {
 public:
  virtual ~Tap() = default;
  virtual TapDecision process(const TapContext& ctx, Router& router) = 0;
};

class Router : public Node {
 public:
  Router(Engine& engine, std::string name);

  Engine& engine() { return engine_; }

  /// Adds a route; lookups use longest-prefix match. The two families
  /// keep separate tables; the default route is shared.
  void add_route(Cidr prefix, int port);
  void add_route6(Cidr6 prefix, int port);
  void set_default_route(int port) { default_port_ = port; }

  /// Returns the egress port for `dst`, or -1 if unroutable. Dispatches
  /// on the address family.
  int route_lookup(const IpAddress& dst) const;

  /// Appends a tap to the inline chain (runs after existing taps).
  void add_tap(Tap* tap) { taps_.push_back(tap); }

  /// Ingress filter for a port: return false to drop (e.g. spoofed source
  /// under BCP38). Checked before taps run. Filters see either family.
  using IngressFilter = std::function<bool(const IpAddress& src)>;
  void set_ingress_filter(int port, IngressFilter filter);

  /// Routes a locally originated packet (used by taps to inject RSTs or
  /// forged DNS answers). Injected packets do not traverse the tap chain,
  /// matching an on-path injector whose own packets the IDS does not
  /// re-inspect.
  void inject(packet::Packet packet);

  /// In-path packet transformer (a traffic normalizer in the sense of
  /// Handley et al.): runs after the taps, before TTL processing, and may
  /// rewrite the packet in place. Return false to drop it instead.
  using Transformer = std::function<bool(packet::Packet&)>;
  void set_transformer(Transformer transformer) {
    transformer_ = std::move(transformer);
  }

  void receive(packet::Packet packet, int port) override;

  struct Counters {
    uint64_t forwarded = 0;
    uint64_t dropped_no_route = 0;
    uint64_t dropped_ttl = 0;
    uint64_t dropped_by_tap = 0;
    uint64_t dropped_ingress = 0;
    uint64_t injected = 0;
    uint64_t icmp_time_exceeded = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Pull-model metrics bridge: copies the per-hop packet counters into
  /// `registry` labeled with this router's name (snapshot-time only; the
  /// forwarding path is untouched).
  void export_metrics(obs::Registry& registry) const;

  /// Address used as the source of router-originated ICMP errors. The v6
  /// counterpart defaults to the deterministic map_v6 embedding and can
  /// be overridden separately.
  void set_router_address(Ipv4Address addr) {
    router_address_ = addr;
    router_address6_ = common::map_v6(addr);
  }
  void set_router_address6(Ipv6Address addr) { router_address6_ = addr; }

 private:
  /// `decoded` is the single per-hop decode, produced by receive(); its
  /// spans stay valid across the Packet move (vector moves keep the
  /// heap buffer).
  void forward(packet::Packet packet, const packet::Decoded& decoded,
               int in_port);

  /// Paints `routes` into the compiled interval table (see router.cpp).
  template <typename Key, typename Prefix>
  static void compile_lpm(const std::vector<std::pair<Prefix, int>>& routes,
                          std::vector<Key>& starts,
                          std::vector<int32_t>& ports);

  Engine& engine_;
  std::vector<std::pair<Cidr, int>> routes_;    // insertion order
  std::vector<std::pair<Cidr6, int>> routes6_;  // insertion order
  /// Compiled longest-prefix-match table: disjoint half-open intervals
  /// [lpm_starts_[i], lpm_starts_[i+1]) -> lpm_ports_[i] (kNoRoute means
  /// fall through to the default route). Lazily rebuilt after add_route.
  /// The v6 table is the same structure over unsigned __int128 keys.
  static constexpr int32_t kNoRoute = -1;
  mutable std::vector<uint32_t> lpm_starts_;
  mutable std::vector<int32_t> lpm_ports_;
  mutable bool lpm_dirty_ = true;
  mutable std::vector<unsigned __int128> lpm6_starts_;
  mutable std::vector<int32_t> lpm6_ports_;
  mutable bool lpm6_dirty_ = true;
  int default_port_ = -1;
  std::vector<Tap*> taps_;
  Transformer transformer_;
  std::map<int, IngressFilter> ingress_filters_;
  Ipv4Address router_address_{192, 0, 2, 1};
  Ipv6Address router_address6_ = common::map_v6(Ipv4Address(192, 0, 2, 1));
  Counters counters_;
};

}  // namespace sm::netsim
