#include "censor/engine.hpp"

#include "common/strings.hpp"
#include "obs/provenance.hpp"

namespace sm::censor {

using netsim::TapContext;
using netsim::TapDecision;
using packet::TcpFlags;

CensorTap::CensorTap(CensorPolicy policy)
    : policy_(std::move(policy)),
      engine_(policy_.compile_rules(), policy_.ids_options) {}

bool CensorTap::in_blackout(const TapContext& ctx) {
  if (blackouts_.empty()) return false;
  const auto& d = ctx.decoded();
  BlackoutKey key{d.src_addr(), d.dst_addr(), d.src_port(), d.dst_port()};
  BlackoutKey rkey{d.dst_addr(), d.src_addr(), d.dst_port(), d.src_port()};
  for (const auto& k : {key, rkey}) {
    auto it = blackouts_.find(k);
    if (it != blackouts_.end()) {
      if (ctx.now < it->second) return true;
      blackouts_.erase(it);
    }
  }
  return false;
}

bool CensorTap::v6_null_routed(const packet::Decoded& d) const {
  const common::Ipv6Address& src = d.ip6->src;
  const common::Ipv6Address& dst = d.ip6->dst;
  for (const auto& ip : policy_.blocked_ips6)
    if (src == ip || dst == ip) return true;
  for (const auto& prefix : policy_.blocked_prefixes6)
    if (prefix.contains(src) || prefix.contains(dst)) return true;
  return false;
}

void CensorTap::inject_rsts(const TapContext& ctx, netsim::Router& router) {
  const auto& d = ctx.decoded();
  if (!d.tcp) return;
  ++stats_.rst_bursts;

  // The forged RSTs are caused by this enforcement decision, not by the
  // probe that triggered it; the causal link to the probe runs through
  // the triggering packet (ctx.prov).
  obs::ProvenanceGraph* prov = router.engine().provenance();
  uint64_t action = 0;
  if (prov != nullptr) {
    action = prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov,
                          ctx.prov, "keyword-rst");
  }
  obs::ScopedCause cause(prov, action);

  // Blackout the 5-tuple.
  BlackoutKey key{d.src_addr(), d.dst_addr(), d.tcp->src_port,
                  d.tcp->dst_port};
  blackouts_[key] = ctx.now + policy_.flow_blackout;

  // Forged segments are built in the flow's own family.
  auto forge = [&](uint32_t seq, uint32_t ack, bool reverse) {
    common::IpAddress s = reverse ? d.dst_addr() : d.src_addr();
    common::IpAddress t = reverse ? d.src_addr() : d.dst_addr();
    uint16_t sp = reverse ? d.tcp->dst_port : d.tcp->src_port;
    uint16_t tp = reverse ? d.tcp->src_port : d.tcp->dst_port;
    return packet::make_tcp(s, t, sp, tp, TcpFlags::kRst, seq, ack);
  };

  uint32_t payload = static_cast<uint32_t>(d.l4_payload.size());
  for (int i = 0; i < policy_.rst_burst; ++i) {
    // Staggered sequence numbers, as the GFC does, so at least one RST
    // lands in-window even if more data is in flight.
    uint32_t stagger = static_cast<uint32_t>(i) * 1460;
    // RST toward the server, forged from the client.
    router.inject(forge(d.tcp->seq + payload + stagger, 0, false));
    ++stats_.rst_packets_injected;
    // RST toward the client, forged from the server.
    if (d.tcp->ack_flag()) {
      router.inject(forge(d.tcp->ack + stagger, 0, true));
      ++stats_.rst_packets_injected;
    }
  }
}

bool CensorTap::maybe_forge_dns(const TapContext& ctx,
                                netsim::Router& router) {
  const auto& d = ctx.decoded();
  if (!d.udp || d.udp->dst_port != 53) return false;
  auto query = proto::dns::decode(d.l4_payload);
  if (!query || query->header.qr || query->questions.empty()) return false;
  const auto& q = query->questions.front();
  const Ipv4Address* forged = policy_.dns_forgery_for(q.name.str());
  if (!forged) return false;

  obs::ProvenanceGraph* prov = router.engine().provenance();
  uint64_t action = 0;
  if (prov != nullptr) {
    action = prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov,
                          ctx.prov, "dns-forgery", q.name.str());
  }
  obs::ScopedCause cause(prov, action);

  // Forge an answer that races the real one. The GFC injects an A record
  // regardless of qtype (observed for both A and MX in §3.2.3).
  auto resp = proto::dns::Message::response_to(*query,
                                               proto::dns::Rcode::NoError);
  resp.answers.push_back(
      proto::dns::ResourceRecord::a(q.name, *forged, 300));
  router.inject(packet::make_udp(d.dst_addr(), d.src_addr(), 53,
                                 d.udp->src_port, proto::dns::encode(resp)));
  ++stats_.dns_responses_forged;
  return true;
}

bool CensorTap::dns_query_dropped(const TapContext& ctx) {
  if (policy_.dns_drop_keywords.empty()) return false;
  const auto& d = ctx.decoded();
  if (!d.udp || d.udp->dst_port != 53) return false;
  auto query = proto::dns::decode(d.l4_payload);
  if (!query || query->header.qr || query->questions.empty()) return false;
  const std::string& qname = query->questions.front().name.str();
  for (const auto& kw : policy_.dns_drop_keywords) {
    if (common::icontains(qname, kw)) {
      ++stats_.dns_queries_dropped;
      return true;
    }
  }
  return false;
}

bool CensorTap::maybe_inject_blockpage(const TapContext& ctx,
                                       netsim::Router& router) {
  if (policy_.blockpage_keywords.empty()) return false;
  const auto& d = ctx.decoded();
  if (!d.tcp || d.tcp->dst_port != 80 || d.l4_payload.empty()) return false;
  std::string_view payload(
      reinterpret_cast<const char*>(d.l4_payload.data()),
      d.l4_payload.size());
  bool hit = false;
  for (const auto& kw : policy_.blockpage_keywords) {
    if (common::icontains(payload, kw)) {
      hit = true;
      break;
    }
  }
  if (!hit) return false;
  ++stats_.blockpages_injected;

  obs::ProvenanceGraph* prov = router.engine().provenance();
  uint64_t action = 0;
  if (prov != nullptr) {
    action = prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov,
                          ctx.prov, "blockpage");
  }
  obs::ScopedCause cause(prov, action);

  // Forge the server's HTTP response carrying the blockpage, then close
  // the forged connection with FIN, and RST the real server side so the
  // genuine response never races us.
  std::string http = "HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\n"
                     "Content-Length: " +
                     std::to_string(policy_.blockpage_html.size()) +
                     "\r\nConnection: close\r\n\r\n" +
                     policy_.blockpage_html;
  uint32_t server_seq = d.tcp->ack;  // next byte the client expects
  uint32_t client_next =
      d.tcp->seq + static_cast<uint32_t>(d.l4_payload.size());
  auto forge = [&](bool from_server, uint8_t flags, uint32_t seq,
                   uint32_t ack, std::span<const uint8_t> payload =
                                     std::span<const uint8_t>{}) {
    common::IpAddress s = from_server ? d.dst_addr() : d.src_addr();
    common::IpAddress t = from_server ? d.src_addr() : d.dst_addr();
    uint16_t sp = from_server ? d.tcp->dst_port : d.tcp->src_port;
    uint16_t dp = from_server ? d.tcp->src_port : d.tcp->dst_port;
    return packet::make_tcp(s, t, sp, dp, flags, seq, ack, payload);
  };
  router.inject(forge(true, packet::TcpFlags::kAck | packet::TcpFlags::kPsh,
                      server_seq, client_next, common::to_bytes(http)));
  router.inject(forge(true, packet::TcpFlags::kFin | packet::TcpFlags::kAck,
                      server_seq + static_cast<uint32_t>(http.size()),
                      client_next));
  // RST toward the real server, forged from the client.
  router.inject(forge(false, packet::TcpFlags::kRst, client_next, 0));
  // Blackout the tuple so retransmissions of the request do not reach
  // the server either.
  BlackoutKey key{d.src_addr(), d.dst_addr(), d.tcp->src_port,
                  d.tcp->dst_port};
  blackouts_[key] = ctx.now + policy_.flow_blackout;
  return true;
}

TapDecision CensorTap::process(const TapContext& ctx,
                               netsim::Router& router) {
  ++stats_.packets_seen;

  if (in_blackout(ctx)) {
    ++stats_.dropped_blackout;
    if (auto* prov = router.engine().provenance()) {
      prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov, ctx.prov,
                   "blackout-drop");
    }
    return TapDecision::Drop;
  }

  const auto& dec = ctx.decoded();

  // Extension-header blindness: the DPI engine never finds the L4 header
  // behind a chain it does not walk, so keyword/port inspection is
  // skipped wholesale; only fixed-header null routes still bite.
  if (policy_.v6_ext_header_blind && dec.is_v6() &&
      dec.ip6->ext_count > 0) {
    ++stats_.v6_ext_blind_passes;
    if (v6_null_routed(dec)) {
      ++stats_.dropped_inline;
      if (auto* prov = router.engine().provenance()) {
        prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov,
                     ctx.prov, "inline-drop", "v6-null-route");
      }
      return TapDecision::Drop;
    }
    return TapDecision::Pass;
  }

  if (dec.is_fragment() && policy_.reassemble_ip_fragments) {
    // Virtual defragmentation: inspect the rebuilt datagram when the
    // last piece arrives; earlier fragments were already forwarded, so
    // an inline action can only eat this final piece (plus the blackout).
    auto whole = reassembler_.add(ctx.now, ctx.pkt.wire());
    if (!whole) return TapDecision::Pass;
    auto decoded = packet::decode(*whole);
    if (!decoded) return TapDecision::Pass;
    TapContext rebuilt{ctx.now, packet::PacketView(whole->data(), *decoded),
                       ctx.in_port, ctx.out_port, ctx.prov};
    return inspect(rebuilt, router);
  }

  // A fragment-blind censor still inspects each fragment as a packet:
  // the first fragment carries the L4 header, so a keyword wholly inside
  // it is caught; only content *straddling* a fragment boundary evades
  // (the Khattak et al. [26] window).
  return inspect(ctx, router);
}

TapDecision CensorTap::inspect(const TapContext& ctx,
                               netsim::Router& router) {
  if (dns_query_dropped(ctx)) {
    if (auto* prov = router.engine().provenance()) {
      prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov, ctx.prov,
                   "dns-drop");
    }
    return TapDecision::Drop;
  }

  // Blockpage injection replaces the real exchange entirely: the forged
  // response goes to the client and the request is eaten.
  if (maybe_inject_blockpage(ctx, router)) return TapDecision::Drop;

  // DNS forgery is off-path: inject the lie, let the query pass.
  maybe_forge_dns(ctx, router);

  auto verdict = engine_.process(ctx.now, ctx.decoded());
  if (verdict.reject) {
    inject_rsts(ctx, router);
    // The GFC is off-path: the triggering packet itself is usually
    // delivered; the RSTs and blackout do the damage. Model that.
    return TapDecision::Pass;
  }
  if (verdict.drop) {
    ++stats_.dropped_inline;
    if (auto* prov = router.engine().provenance()) {
      std::string sid = verdict.alerts.empty()
                            ? std::string()
                            : "sid=" + std::to_string(verdict.alerts[0].sid);
      prov->record(obs::ProvKind::CensorAction, ctx.now, ctx.prov, ctx.prov,
                   "inline-drop", std::move(sid));
    }
    return TapDecision::Drop;
  }
  return TapDecision::Pass;
}

namespace {

using Stats = CensorTap::Stats;
const obs::StatCounter<Stats> kCensorCounters[] = {
    {&Stats::packets_seen, "sm_censor_packets_seen_total",
     "packets inspected by the censor tap"},
    {&Stats::rst_bursts, "sm_censor_rst_bursts_total",
     "keyword matches answered with an RST burst"},
    {&Stats::rst_packets_injected, "sm_censor_rst_packets_injected_total",
     "forged RST segments injected"},
    {&Stats::dns_responses_forged, "sm_censor_dns_responses_forged_total",
     "forged DNS A answers raced to queriers"},
    {&Stats::dns_queries_dropped, "sm_censor_dns_queries_dropped_total",
     "DNS queries silently discarded"},
    {&Stats::blockpages_injected, "sm_censor_blockpages_injected_total",
     "forged HTTP blockpages served"},
    {&Stats::dropped_inline, "sm_censor_dropped_inline_total",
     "packets discarded by inline drop rules"},
    {&Stats::dropped_blackout, "sm_censor_dropped_blackout_total",
     "packets discarded during a 5-tuple blackout"},
    {&Stats::v6_ext_blind_passes, "sm_censor_v6_ext_blind_passes_total",
     "v6 packets skipped by extension-header-blind inspection"},
};
const obs::Family kBlackoutsActive{obs::Kind::Gauge,
                                   "sm_censor_blackouts_active",
                                   "5-tuple blackout entries currently held"};
const obs::Family kStateBytes{
    obs::Kind::Gauge, "sm_censor_state_bytes",
    "bytes of flow-reassembly state held by the censor"};

}  // namespace

void CensorTap::export_metrics(obs::Registry& registry) const {
  for (const auto& [field, family] : kCensorCounters)
    registry.counter(family)->set(stats_.*field);
  registry.gauge(kBlackoutsActive)
      ->set(static_cast<double>(blackouts_.size()));
  registry.gauge(kStateBytes)->set(static_cast<double>(state_bytes()));
  engine_.export_metrics(registry, "censor");
}

}  // namespace sm::censor
