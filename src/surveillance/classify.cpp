#include "surveillance/classify.hpp"

#include <string_view>

namespace sm::surveillance {

std::string to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::Web: return "web";
    case TrafficClass::Dns: return "dns";
    case TrafficClass::Mail: return "mail";
    case TrafficClass::P2p: return "p2p";
    case TrafficClass::Scanning: return "scanning";
    case TrafficClass::DdosLike: return "ddos-like";
    case TrafficClass::Other: return "other";
  }
  return "?";
}

bool looks_p2p(const packet::Decoded& d) {
  uint16_t sp = d.src_port(), dp = d.dst_port();
  auto in_bt_range = [](uint16_t p) { return p >= 6881 && p <= 6999; };
  if (in_bt_range(sp) || in_bt_range(dp) || sp == 4662 || dp == 4662)
    return true;
  // BitTorrent handshake and DHT signatures.
  std::string_view payload(
      reinterpret_cast<const char*>(d.l4_payload.data()),
      d.l4_payload.size());
  if (payload.find("BitTorrent protocol") != std::string_view::npos)
    return true;
  if (d.udp && payload.find("d1:ad2:id20:") != std::string_view::npos)
    return true;
  return false;
}

TrafficClass port_class(const packet::Decoded& d) {
  uint16_t sp = d.src_port(), dp = d.dst_port();
  auto any_port = [&](uint16_t p) { return sp == p || dp == p; };
  if (any_port(53)) return TrafficClass::Dns;
  if (any_port(80) || any_port(443) || any_port(8080))
    return TrafficClass::Web;
  if (any_port(25) || any_port(465) || any_port(587))
    return TrafficClass::Mail;
  return TrafficClass::Other;
}

void Classifier::SourceState::advance(SimTime now,
                                      const ClassifierConfig& cfg) {
  while (!syn_targets.empty() &&
         now - syn_targets.front().first > cfg.scan_window) {
    distinct_targets.erase(syn_targets.front().second);
    syn_targets.pop_front();
  }
  while (!requests.empty() &&
         now - requests.front().first > cfg.ddos_window) {
    if (size_t* n = per_dst_count.find(requests.front().second);
        n != nullptr && --*n == 0) {
      per_dst_count.erase(requests.front().second);
    }
    requests.pop_front();
  }
}

TrafficClass Classifier::classify(SimTime now, const packet::Decoded& d) {
  if (looks_p2p(d)) return TrafficClass::P2p;

  // Per-source state is keyed by host identity, so a dual-stack scanner
  // cannot halve its fan-out by alternating families.
  SourceState& st = sources_[common::host_identity(d.src_addr())];
  st.advance(now, config_);

  if (d.tcp && d.tcp->syn() && !d.tcp->ack_flag()) {
    uint64_t target =
        (static_cast<uint64_t>(
             common::host_identity(d.dst_addr()).value())
         << 16) |
        d.tcp->dst_port;
    st.syn_targets.push_back({now, target});
    st.distinct_targets.insert(target);
    if (st.distinct_targets.size() >= config_.scan_fanout_threshold)
      return TrafficClass::Scanning;
  }

  // Count "requests": TCP payload-bearing packets and SYNs toward a
  // destination.
  if (d.tcp && (!d.l4_payload.empty() || d.tcp->syn())) {
    uint32_t dst_id = common::host_identity(d.dst_addr()).value();
    st.requests.push_back({now, dst_id});
    size_t& n = st.per_dst_count[dst_id];
    ++n;
    if (n >= config_.ddos_rate_threshold) return TrafficClass::DdosLike;
  }

  return port_class(d);
}

}  // namespace sm::surveillance
