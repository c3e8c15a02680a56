#include "core/scan.hpp"

#include "common/strings.hpp"

namespace sm::core {

using packet::TcpFlags;

ScanProbe::ScanProbe(Testbed& tb, ScanOptions options)
    : Probe(tb, "scan", options.target.to_string(), options.ports.size()),
      options_(std::move(options)),
      ladder_(options_.retry) {}

ScanProbe::~ScanProbe() {
  if (promisc_id_) tb_.client->remove_promiscuous(promisc_id_);
}

void ScanProbe::launch() {
  // Watch raw replies from the target (deregistered in the destructor).
  promisc_id_ = tb_.client->add_promiscuous(
      guarded([this](const packet::Decoded& d, const common::Bytes&) {
        on_reply(d);
      }));

  common::Rng rng(options_.randomize_seed);
  for (size_t i = 0; i < options_.ports.size(); ++i) {
    uint16_t port = options_.ports[i];
    uint16_t sport;
    if (options_.randomize_source_ports) {
      // Draw from the whole ephemeral range, avoiding collisions.
      do {
        sport = static_cast<uint16_t>(20000 + rng.bounded(40000));
      } while (sport_to_port_.count(sport));
    } else {
      sport = static_cast<uint16_t>(kSportBase + i);
    }
    uint32_t iss = options_.randomize_source_ports
                       ? static_cast<uint32_t>(rng.next())
                       : 0x1000 + port;
    states_[port] = PortState::Unknown;
    sport_to_port_[sport] = port;
    probe_params_[port] = {sport, iss};
  }
  send_round(options_.ports);
}

void ScanProbe::send_round(const std::vector<uint16_t>& ports) {
  begin_attempt(ladder_);
  for (size_t i = 0; i < ports.size(); ++i) {
    auto [sport, iss] = probe_params_[ports[i]];
    after(options_.pace * static_cast<int64_t>(i),
          [this, port = ports[i], sport, iss]() {
            ++report_.packets_sent;
            obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
            tb_.client->send(packet::make_tcp(tb_.client->address(),
                                              options_.target, sport, port,
                                              TcpFlags::kSyn, iss, 0));
          });
  }
  // Close the round after the last SYN's reply window.
  after(options_.pace * static_cast<int64_t>(ports.size()) +
            options_.reply_timeout,
        [this]() { on_round_done(); });
}

void ScanProbe::on_round_done() {
  std::vector<uint16_t> unanswered;
  for (const auto& [port, st] : states_)
    if (st == PortState::Unknown) unanswered.push_back(port);
  if (!unanswered.empty() &&
      retry(ladder_, [this, ports = std::move(unanswered)]() {
        send_round(ports);
      }))
    return;
  finalize();
}

void ScanProbe::on_reply(const packet::Decoded& d) {
  if (!d.tcp || d.src_addr() != options_.target ||
      d.dst_addr() != tb_.client->address())
    return;
  auto it = sport_to_port_.find(d.tcp->dst_port);
  if (it == sport_to_port_.end() || it->second != d.tcp->src_port) return;
  PortState& st = states_[it->second];
  if (st != PortState::Unknown) return;
  if (d.tcp->syn() && d.tcp->ack_flag()) {
    st = PortState::Open;
    prov_.evidence(now(), "syn-ack", "port=" + std::to_string(it->second));
  } else if (d.tcp->rst()) {
    st = PortState::Closed;
    prov_.evidence(now(), "rst", "port=" + std::to_string(it->second));
  }
}

void ScanProbe::finalize() {
  size_t open = 0, closed = 0, filtered = 0;
  for (auto& [port, st] : states_) {
    if (st == PortState::Unknown) st = PortState::Filtered;
    switch (st) {
      case PortState::Open: ++open; break;
      case PortState::Closed: ++closed; break;
      default: ++filtered; break;
    }
  }
  // Censorship inference on the expected-open ports: an expected port
  // answering SYN/ACK is open evidence, a RST there is active
  // interference, and a port still silent after every retry round is
  // dropping evidence (each such port survived `attempts` re-SYNs, so
  // loss is unlikely).
  size_t exp_open = 0, exp_rst = 0, exp_silent = 0;
  for (uint16_t port : options_.expected_open) {
    auto it = states_.find(port);
    if (it == states_.end()) continue;
    if (it->second == PortState::Open) ++exp_open;
    else if (it->second == PortState::Closed) ++exp_rst;
    else ++exp_silent;
  }
  Verdict verdict = Verdict::Reachable;
  if (exp_rst > 0) {
    verdict = Verdict::BlockedRst;
  } else if (exp_silent > 0) {
    verdict = Verdict::BlockedTimeout;
  }
  if (exp_silent > 0) {
    prov_.evidence(now(), "silence",
                   common::format("%zu expected-open port(s)", exp_silent));
  }
  finish(verdict,
         common::format("open=%zu closed=%zu filtered=%zu", open, closed,
                        filtered),
         conclude(exp_open, exp_rst, exp_silent));
  report_.samples_blocked = exp_rst + exp_silent;
}

}  // namespace sm::core
