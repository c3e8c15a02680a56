#include "netsim/router.hpp"

#include <algorithm>
#include <utility>

#include "obs/provenance.hpp"

namespace sm::netsim {

namespace {

// An address as a compiled-LPM key: its value, big-endian order.
uint32_t lpm_key(Ipv4Address a) { return a.value(); }
unsigned __int128 lpm_key(Ipv6Address a) {
  return static_cast<unsigned __int128>(a.hi()) << 64 | a.lo();
}

}  // namespace

Router::Router(Engine& engine, std::string name)
    : Node(std::move(name), NodeKind::Router), engine_(engine) {}

void Router::add_route(Cidr prefix, int port) {
  routes_.emplace_back(prefix, port);
  lpm_dirty_ = true;
}

void Router::add_route6(Cidr6 prefix, int port) {
  routes6_.emplace_back(prefix, port);
  lpm6_dirty_ = true;
}

// Longest-prefix match runs against a compiled table: the address space
// is painted with routes in ascending prefix-length order (so longer
// prefixes overwrite shorter ones), and within one length in reverse
// insertion order (so the earliest insertion paints last and wins) —
// exactly the legacy semantics of the stable-sorted first-match scan.
// The paint produces a sorted list of disjoint half-open intervals; a
// lookup is one binary search. Rebuilds lazily, so bulk add_route during
// topology construction is O(1) per call and a 100k-host edge router
// compiles its table once, on first traffic. Both families paint the
// same way over their own key width; a prefix that reaches the top of
// the space has an end that wraps to 0, and then no resume boundary.
template <typename Key, typename Prefix>
void Router::compile_lpm(const std::vector<std::pair<Prefix, int>>& routes,
                         std::vector<Key>& starts,
                         std::vector<int32_t>& ports) {
  constexpr unsigned kBits = sizeof(Key) * 8;
  std::vector<size_t> order(routes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    uint8_t la = routes[a].first.prefix_len();
    uint8_t lb = routes[b].first.prefix_len();
    if (la != lb) return la < lb;
    return a > b;
  });

  // Boundary map: key -> egress port for [key, next key).
  std::map<Key, int32_t> seg;
  seg[0] = kNoRoute;
  for (size_t i : order) {
    const Prefix& prefix = routes[i].first;
    const Key lo = lpm_key(prefix.network());
    const unsigned len = prefix.prefix_len();
    const Key end = (len == kBits ? lo : lo | (~Key{0} >> len)) + 1;
    auto after = end == 0 ? seg.end() : seg.upper_bound(end);
    int32_t resume = std::prev(after)->second;
    seg.erase(seg.lower_bound(lo), after);
    seg[lo] = routes[i].second;
    if (end != 0) seg[end] = resume;
  }

  starts.clear();
  ports.clear();
  for (const auto& [start, port] : seg) {
    if (!ports.empty() && ports.back() == port) continue;
    starts.push_back(start);
    ports.push_back(port);
  }
}

int Router::route_lookup(const IpAddress& dst) const {
  if (dst.is_v6()) {
    if (lpm6_dirty_) {
      compile_lpm(routes6_, lpm6_starts_, lpm6_ports_);
      lpm6_dirty_ = false;
    }
    auto it = std::upper_bound(lpm6_starts_.begin(), lpm6_starts_.end(),
                               lpm_key(dst.v6()));
    int32_t port =
        lpm6_ports_[static_cast<size_t>(it - lpm6_starts_.begin()) - 1];
    return port == kNoRoute ? default_port_ : port;
  }
  if (lpm_dirty_) {
    compile_lpm(routes_, lpm_starts_, lpm_ports_);
    lpm_dirty_ = false;
  }
  auto it = std::upper_bound(lpm_starts_.begin(), lpm_starts_.end(),
                             lpm_key(dst.v4()));
  int32_t port = lpm_ports_[static_cast<size_t>(it - lpm_starts_.begin()) - 1];
  return port == kNoRoute ? default_port_ : port;
}

void Router::set_ingress_filter(int port, IngressFilter filter) {
  ingress_filters_[port] = std::move(filter);
}

void Router::inject(packet::Packet packet) {
  auto decoded = packet::decode(packet);
  if (!decoded) return;
  int out = route_lookup(decoded->dst_addr());
  if (out < 0) return;
  ++counters_.injected;
  transmit(std::move(packet), out);
}

void Router::receive(packet::Packet packet, int port) {
  // Transit fast path: with no taps, filters, transformer, or provenance
  // recording, forwarding only needs the destination address, so a
  // header peek (same accept/reject set as decode()) replaces the full
  // parse. TTL expiry is delegated to the slow path, which builds the
  // ICMP error from a real decode. The TTL octet sits at wire[8] for v4
  // and the hop limit at wire[7] for v6, so the pre-peek check
  // dispatches on the version nibble.
  if (taps_.empty() && !transformer_ && ingress_filters_.empty() &&
      engine_.provenance() == nullptr && packet.size() > 8 &&
      packet.data()[(packet.data()[0] >> 4) == 6 ? 7 : 8] > 1) {
    auto dst = packet::route_peek(packet.data());
    if (!dst) return;
    int out = route_lookup(*dst);
    if (!packet::decrement_ttl(packet.data())) return;
    if (out < 0) {
      ++counters_.dropped_no_route;
      return;
    }
    ++counters_.forwarded;
    transmit(std::move(packet), out);
    return;
  }

  auto decoded = packet::decode(packet);
  if (!decoded) return;

  auto filter_it = ingress_filters_.find(port);
  if (filter_it != ingress_filters_.end() &&
      !filter_it->second(decoded->src_addr())) {
    ++counters_.dropped_ingress;
    return;
  }
  forward(std::move(packet), *decoded, port);
}

void Router::forward(packet::Packet packet, const packet::Decoded& decoded,
                     int in_port) {
  int out = route_lookup(decoded.dst_addr());
  obs::ProvenanceGraph* prov = engine_.provenance();

  // Taps observe at ingress, before TTL processing — like a port mirror.
  // This is what makes TTL-limited replies (§4.1) work: a reply built to
  // expire at this router still crosses the surveillance tap.
  TapContext ctx{engine_.now(), packet::PacketView(packet.data(), decoded),
                 in_port, out, packet.prov_id()};
  for (Tap* tap : taps_) {
    if (tap->process(ctx, *this) == TapDecision::Drop) {
      ++counters_.dropped_by_tap;
      if (prov != nullptr) {
        prov->record(obs::ProvKind::Drop, engine_.now(), packet.prov_id(),
                     packet.prov_id(), "tap", name());
      }
      return;
    }
  }

  if (transformer_ && !transformer_(packet)) {
    ++counters_.dropped_by_tap;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Drop, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "transformer", name());
    }
    return;
  }

  if (!packet::decrement_ttl(packet.data())) return;
  if (packet.data()[decoded.is_v6() ? 7 : 8] == 0) {  // TTL expired here
    ++counters_.dropped_ttl;
    ++counters_.icmp_time_exceeded;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Drop, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "ttl-expired", name());
    }
    // The error quotes the expired packet's IP header + 8 bytes (RFC 792;
    // RFC 4443 allows up to the MTU — we quote the same prefix).
    size_t quote_len =
        std::min(packet.size(), decoded.net_header_length() + 8);
    std::span<const uint8_t> quote(packet.data().data(), quote_len);
    // The error packet is caused by the expiry, not by a probe attempt.
    obs::ScopedCause cause(prov, packet.prov_id());
    if (decoded.is_v6()) {
      inject(packet::make_icmp6(router_address6_, decoded.ip6->src,
                                packet::IcmpHeader::kTimeExceeded6, 0, 0,
                                quote));
    } else {
      inject(packet::make_icmp(router_address_, decoded.ip.src,
                               packet::IcmpHeader::kTimeExceeded, 0, 0,
                               quote));
    }
    return;
  }

  if (out < 0) {
    ++counters_.dropped_no_route;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Drop, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "no-route", name());
    }
    return;
  }

  ++counters_.forwarded;
  if (prov != nullptr) {
    prov->record(obs::ProvKind::Forward, engine_.now(), packet.prov_id(),
                 packet.prov_id(), name());
  }
  transmit(std::move(packet), out);
}

namespace {

const obs::StatCounter<Router::Counters> kRouterCounters[] = {
    {&Router::Counters::forwarded, "sm_router_forwarded_total",
     "packets forwarded through the router", {"router"}},
    {&Router::Counters::dropped_no_route, "sm_router_dropped_no_route_total",
     "packets dropped for lack of a route", {"router"}},
    {&Router::Counters::dropped_ttl, "sm_router_dropped_ttl_total",
     "packets dropped on TTL expiry", {"router"}},
    {&Router::Counters::dropped_by_tap, "sm_router_dropped_by_tap_total",
     "packets dropped by an inline tap (censor)", {"router"}},
    {&Router::Counters::dropped_ingress, "sm_router_dropped_ingress_total",
     "packets dropped by ingress source-address validation", {"router"}},
    {&Router::Counters::injected, "sm_router_injected_total",
     "router/tap-originated packets injected into the path", {"router"}},
    {&Router::Counters::icmp_time_exceeded,
     "sm_router_icmp_time_exceeded_total",
     "ICMP Time Exceeded errors generated", {"router"}},
};

}  // namespace

void Router::export_metrics(obs::Registry& registry) const {
  for (const auto& [field, family] : kRouterCounters)
    registry.counter(family, {name()})->set(counters_.*field);
}

}  // namespace sm::netsim
