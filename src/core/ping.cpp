#include "core/ping.hpp"

#include "common/strings.hpp"

namespace sm::core {

using packet::IcmpHeader;

PingProbe::PingProbe(Testbed& tb, PingOptions options)
    : Probe(tb, "ping", options.target.to_string(), options.count),
      options_(std::move(options)),
      ladder_(options_.retry) {}

void PingProbe::launch() {
  ident_ = tb_.client->alloc_ephemeral_port();
  const uint8_t echo_reply = options_.target.is_v6() ? IcmpHeader::kEchoReply6
                                                     : IcmpHeader::kEchoReply;
  tb_.client->set_icmp_handler(guarded(
      [this, echo_reply](const packet::Decoded& d, const common::Bytes&) {
        // Echo replies match only over the family we probed on.
        if (d.src_addr() != options_.target || d.icmp->type != echo_reply ||
            (d.icmp->rest >> 16) != ident_)
          return;
        if (seen_seqs_.insert(d.icmp->rest & 0xffff).second) {
          prov_.evidence(now(), "echo-reply",
                         "seq=" + std::to_string(d.icmp->rest & 0xffff));
        }
      }));
  send_round();
}

void PingProbe::send_round() {
  begin_attempt(ladder_);
  const size_t round = ladder_.attempts() - 1;
  for (size_t i = 0; i < options_.count; ++i) {
    // Sequence numbers are globally unique across rounds so a late
    // reply to an earlier round still counts (and only once).
    uint32_t seq = static_cast<uint32_t>(round * options_.count + i) & 0xffff;
    after(options_.interval * static_cast<int64_t>(i), [this, seq]() {
      ++report_.packets_sent;
      obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
      const common::IpAddress& target = options_.target;
      uint32_t rest = (uint32_t{ident_} << 16) | seq;
      if (target.is_v6()) {
        tb_.client->send(packet::make_icmp6(tb_.client->address6(),
                                            target.v6(),
                                            IcmpHeader::kEchoRequest6, 0,
                                            rest));
      } else {
        tb_.client->send(packet::make_icmp(tb_.client->address(), target.v4(),
                                           IcmpHeader::kEchoRequest, 0,
                                           rest));
      }
    });
  }
  after(options_.interval * static_cast<int64_t>(options_.count) +
            options_.reply_timeout,
        [this]() { on_round_timeout(); });
}

void PingProbe::on_round_timeout() {
  if (seen_seqs_.empty() && retry(ladder_, [this]() { send_round(); }))
    return;
  size_t sent = ladder_.attempts() * options_.count;
  size_t replies = seen_seqs_.size();
  Verdict verdict = Verdict::Inconclusive;  // partial loss
  if (replies >= options_.count) {
    verdict = Verdict::Reachable;
  } else if (replies == 0) {
    verdict = Verdict::BlockedTimeout;
  }
  if (replies < sent) {
    prov_.evidence(now(), "silence",
                   common::format("%zu/%zu unanswered", sent - replies, sent));
  }
  finish(verdict,
         common::format("%zu/%zu replies (%zu round(s))", replies, sent,
                        ladder_.attempts()),
         conclude(replies, 0, sent - replies, sent));
  report_.samples_blocked =
      replies >= options_.count ? 0 : options_.count - replies;
}

}  // namespace sm::core
