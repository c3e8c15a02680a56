#include "core/synprobe.hpp"

#include "common/strings.hpp"

namespace sm::core {

using packet::TcpFlags;

SynReachabilityProbe::SynReachabilityProbe(Testbed& tb,
                                           SynReachabilityOptions options)
    : tb_(tb),
      options_(std::move(options)),
      target6_(common::map_v6(options_.target)) {
  report_.technique = "syn-reach";
  report_.target =
      options_.ipv6
          ? common::format("[%s]:%u", target6_.to_string().c_str(),
                           options_.port)
          : common::format("%s:%u", options_.target.to_string().c_str(),
                           options_.port);
  report_.samples = 1;
  cover_ = std::make_unique<spoof::StatelessSynCover>(*tb_.client);
}

SynReachabilityProbe::~SynReachabilityProbe() {
  if (promisc_id_) tb_.client->remove_promiscuous(promisc_id_);
}

void SynReachabilityProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  sport_ = tb_.client->alloc_ephemeral_port();
  iss_ = 0xC0DE0000 | sport_;

  promisc_id_ = tb_.client->add_promiscuous(
      [this](const packet::Decoded& d, const common::Bytes&) {
        on_reply(d);
      });
  send_attempt();
}

void SynReachabilityProbe::send_attempt() {
  report_.attempts = attempt_ + 1;
  prov_.attempt(tb_.net.engine().now(), attempt_ + 1);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  // The real probe plus spoofed cover from neighbors, back to back: the
  // tap sees the whole /24 probing. Retries reuse the same sport/ISS, so
  // they look like ordinary SYN retransmission and a late reply to an
  // earlier attempt still matches.
  ++report_.packets_sent;
  if (options_.ipv6) {
    tb_.client->send(packet::make_tcp6(tb_.client->address6(), target6_,
                                       sport_, options_.port,
                                       TcpFlags::kSyn, iss_, 0));
  } else {
    tb_.client->send(packet::make_tcp(tb_.client->address(),
                                      options_.target, sport_,
                                      options_.port, TcpFlags::kSyn, iss_,
                                      0));
  }
  if (attempt_ == 0) {
    auto neighbors = tb_.neighbor_addresses();
    if (neighbors.size() > options_.cover_count)
      neighbors.resize(options_.cover_count);
    report_.packets_sent +=
        options_.ipv6
            ? cover_->emit6(neighbors, target6_, options_.port)
            : cover_->emit(neighbors, options_.target, options_.port);
  }
  tb_.net.engine().schedule(
      options_.reply_timeout, [this, alive = guard(), a = attempt_]() {
        if (!alive.expired()) on_attempt_timeout(a);
      });
}

void SynReachabilityProbe::on_reply(const packet::Decoded& d) {
  if (done_ || replied_ || !d.tcp) return;
  // Replies must come back over the family we probed on; a v4 answer to
  // a v6 probe (or vice versa) is somebody else's traffic.
  if (options_.ipv6) {
    if (!d.is_v6() || d.ip6->src != target6_ ||
        d.ip6->dst != tb_.client->address6())
      return;
  } else if (d.is_v6() || d.ip.src != options_.target ||
             d.ip.dst != tb_.client->address()) {
    return;
  }
  if (d.tcp->src_port != options_.port || d.tcp->dst_port != sport_)
    return;
  replied_ = true;
  size_t silent = attempt_;  // earlier attempts that drew no answer
  common::SimTime now = tb_.net.engine().now();
  if (d.tcp->syn() && d.tcp->ack_flag()) {
    report_.verdict = Verdict::Reachable;
    report_.detail = "syn/ack received";
    report_.confidence = conclude(1, 0, silent);
    prov_.evidence(now, "syn-ack");
    // "a RST provides cover traffic" — and is what the client's stack
    // does anyway; make it explicit for stack-less clients.
    ++report_.packets_sent;
    obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
    if (options_.ipv6) {
      tb_.client->send(packet::make_tcp6(tb_.client->address6(), target6_,
                                         sport_, options_.port,
                                         TcpFlags::kRst, d.tcp->ack, 0));
    } else {
      tb_.client->send(packet::make_tcp(tb_.client->address(),
                                        options_.target, sport_,
                                        options_.port, TcpFlags::kRst,
                                        d.tcp->ack, 0));
    }
  } else if (d.tcp->rst()) {
    report_.verdict = Verdict::BlockedRst;
    report_.detail = "rst received on a port expected open";
    report_.samples_blocked = 1;
    report_.confidence = conclude(0, 1, silent);
    prov_.evidence(now, "rst");
  }
  prov_.verdict(now, report_);
  done_ = true;
}

void SynReachabilityProbe::on_attempt_timeout(size_t attempt) {
  if (done_ || replied_ || attempt != attempt_) return;
  if (attempt_ + 1 < options_.retry.max_attempts) {
    ++attempt_;
    tb_.net.engine().schedule(options_.retry.gap_before(attempt_),
                              [this, alive = guard()]() {
                                if (!alive.expired() && !done_ && !replied_)
                                  send_attempt();
                              });
    return;
  }
  finalize();
}

void SynReachabilityProbe::finalize() {
  if (done_) return;
  size_t attempts = attempt_ + 1;
  report_.verdict = Verdict::BlockedTimeout;
  report_.detail =
      common::format("no syn/ack in %zu attempt(s)", attempts);
  report_.samples_blocked = 1;
  // Silence concludes Blocked only because the whole ladder ran dry.
  report_.confidence = conclude(0, 0, attempts, attempts);
  prov_.evidence(tb_.net.engine().now(), "silence",
                 common::format("%zu attempts", attempts));
  prov_.verdict(tb_.net.engine().now(), report_);
  done_ = true;
}

}  // namespace sm::core
