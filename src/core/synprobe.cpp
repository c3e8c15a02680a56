#include "core/synprobe.hpp"

#include "common/strings.hpp"

namespace sm::core {

using packet::TcpFlags;

SynReachabilityProbe::SynReachabilityProbe(Testbed& tb,
                                           SynReachabilityOptions options)
    : Probe(tb, "syn-reach",
            common::format(options.target.is_v6() ? "[%s]:%u" : "%s:%u",
                           options.target.to_string().c_str(), options.port),
            1),
      options_(std::move(options)),
      ladder_(options_.retry) {
  cover_ = std::make_unique<spoof::StatelessSynCover>(*tb_.client);
}

SynReachabilityProbe::~SynReachabilityProbe() {
  if (promisc_id_) tb_.client->remove_promiscuous(promisc_id_);
}

void SynReachabilityProbe::launch() {
  sport_ = tb_.client->alloc_ephemeral_port();
  iss_ = 0xC0DE0000 | sport_;

  promisc_id_ = tb_.client->add_promiscuous(
      guarded([this](const packet::Decoded& d, const common::Bytes&) {
        on_reply(d);
      }));
  send_attempt();
}

void SynReachabilityProbe::send(uint8_t flags, uint32_t seq) {
  ++report_.packets_sent;
  tb_.client->send(packet::make_tcp(tb_.client->address_for(options_.target),
                                    options_.target, sport_, options_.port,
                                    flags, seq, 0));
}

void SynReachabilityProbe::send_attempt() {
  begin_attempt(ladder_);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  // The real probe plus spoofed cover from neighbors, back to back: the
  // tap sees the whole /24 probing. Retries reuse the same sport/ISS, so
  // they look like ordinary SYN retransmission and a late reply to an
  // earlier attempt still matches.
  send(TcpFlags::kSyn, iss_);
  if (ladder_.attempts() == 1) {
    auto neighbors = tb_.neighbor_addresses();
    if (neighbors.size() > options_.cover_count)
      neighbors.resize(options_.cover_count);
    report_.packets_sent +=
        cover_->emit(neighbors, options_.target, options_.port);
  }
  after(options_.reply_timeout, [this]() { on_attempt_timeout(); });
}

void SynReachabilityProbe::on_reply(const packet::Decoded& d) {
  // Replies must come back over the family we probed on; a v4 answer to
  // a v6 probe (or vice versa) is somebody else's traffic.
  if (!d.tcp || d.src_addr() != options_.target ||
      d.dst_addr() != tb_.client->address_for(options_.target))
    return;
  if (d.tcp->src_port != options_.port || d.tcp->dst_port != sport_)
    return;
  size_t silent = ladder_.silent_before();
  if (d.tcp->syn() && d.tcp->ack_flag()) {
    prov_.evidence(now(), "syn-ack");
    // "a RST provides cover traffic" — and is what the client's stack
    // does anyway; make it explicit for stack-less clients.
    obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
    send(TcpFlags::kRst, d.tcp->ack);
    finish(Verdict::Reachable, "syn/ack received",
           confidence_from(Verdict::Reachable, silent));
  } else if (d.tcp->rst()) {
    prov_.evidence(now(), "rst");
    finish(Verdict::BlockedRst, "rst received on a port expected open",
           confidence_from(Verdict::BlockedRst, silent));
  } else {
    // Any other segment on the probed flow ends the measurement unread.
    finish(Verdict::Inconclusive, "", Confidence{});
  }
}

void SynReachabilityProbe::on_attempt_timeout() {
  if (retry(ladder_, [this]() { send_attempt(); })) return;
  // Silence concludes Blocked only because the whole ladder ran dry.
  size_t attempts = ladder_.attempts();
  prov_.evidence(now(), "silence", common::format("%zu attempts", attempts));
  finish(Verdict::BlockedTimeout,
         common::format("no syn/ack in %zu attempt(s)", attempts),
         confidence_from(Verdict::BlockedTimeout, ladder_.silent_before()));
}

}  // namespace sm::core
