#include "core/scan.hpp"

#include "common/strings.hpp"

namespace sm::core {

using packet::TcpFlags;

ScanProbe::ScanProbe(Testbed& tb, ScanOptions options)
    : tb_(tb), options_(std::move(options)) {
  report_.technique = "scan";
  report_.target = options_.target.to_string();
  report_.samples = options_.ports.size();
}

ScanProbe::~ScanProbe() {
  if (promisc_id_) tb_.client->remove_promiscuous(promisc_id_);
}

void ScanProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  // Watch raw replies from the target (deregistered in the destructor).
  promisc_id_ = tb_.client->add_promiscuous(
      [this](const packet::Decoded& d, const common::Bytes&) {
        on_reply(d);
      });

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
  report_.attempts = round_ + 1;
  prov_.attempt(tb_.net.engine().now(), round_ + 1);
  auto& engine = tb_.net.engine();
  for (size_t i = 0; i < ports.size(); ++i) {
    auto [sport, iss] = probe_params_[ports[i]];
    engine.schedule(options_.pace * static_cast<int64_t>(i),
                    [this, alive = guard(), port = ports[i], sport, iss]() {
                      if (alive.expired() || done_) return;
                      ++report_.packets_sent;
                      obs::ScopedCause cause(prov_.graph(),
                                             prov_.attempt_id());
                      tb_.client->send(packet::make_tcp(
                          tb_.client->address(), options_.target, sport, port,
                          TcpFlags::kSyn, iss, 0));
                    });
  }
  // Close the round after the last SYN's reply window.
  engine.schedule(options_.pace * static_cast<int64_t>(ports.size()) +
                      options_.reply_timeout,
                  [this, alive = guard(), r = round_]() {
                    if (!alive.expired()) on_round_done(r);
                  });
}

void ScanProbe::on_round_done(size_t round) {
  if (done_ || round != round_) return;
  std::vector<uint16_t> unanswered;
  for (const auto& [port, st] : states_)
    if (st == PortState::Unknown) unanswered.push_back(port);
  if (!unanswered.empty() && round_ + 1 < options_.retry.max_attempts) {
    ++round_;
    tb_.net.engine().schedule(
        options_.retry.gap_before(round_),
        [this, alive = guard(), ports = std::move(unanswered)]() {
          if (!alive.expired() && !done_) send_round(ports);
        });
    return;
  }
  finalize();
}

void ScanProbe::on_reply(const packet::Decoded& d) {
  if (done_ || !d.tcp || d.ip.src != options_.target) return;
  if (d.ip.dst != tb_.client->address()) return;
  auto it = sport_to_port_.find(d.tcp->dst_port);
  if (it == sport_to_port_.end() || it->second != d.tcp->src_port) return;
  PortState& st = states_[it->second];
  if (st != PortState::Unknown) return;
  if (d.tcp->syn() && d.tcp->ack_flag()) {
    st = PortState::Open;
    prov_.evidence(tb_.net.engine().now(), "syn-ack",
                   "port=" + std::to_string(it->second));
  } else if (d.tcp->rst()) {
    st = PortState::Closed;
    prov_.evidence(tb_.net.engine().now(), "rst",
                   "port=" + std::to_string(it->second));
  }
  ++replies_;
}

void ScanProbe::finalize() {
  if (done_) return;
  size_t open = 0, closed = 0, filtered = 0;
  for (auto& [port, st] : states_) {
    if (st == PortState::Unknown) st = PortState::Filtered;
    switch (st) {
      case PortState::Open: ++open; break;
      case PortState::Closed: ++closed; break;
      default: ++filtered; break;
    }
  }
  // Censorship inference on the expected-open ports.
  size_t blocked_expected = 0;
  bool saw_rst_on_expected = false;
  for (uint16_t port : options_.expected_open) {
    auto it = states_.find(port);
    if (it == states_.end()) continue;
    if (it->second != PortState::Open) {
      ++blocked_expected;
      if (it->second == PortState::Closed) saw_rst_on_expected = true;
    }
  }
  report_.samples_blocked = blocked_expected;
  report_.detail = common::format("open=%zu closed=%zu filtered=%zu",
                                  open, closed, filtered);
  if (blocked_expected == 0) {
    report_.verdict = Verdict::Reachable;
  } else if (saw_rst_on_expected) {
    report_.verdict = Verdict::BlockedRst;
  } else {
    report_.verdict = Verdict::BlockedTimeout;
  }
  // Confidence over the expected-open ports: an expected port answering
  // SYN/ACK is open evidence, a RST there is active interference, and a
  // port still silent after every retry round is dropping evidence
  // (each such port survived `attempts` re-SYNs, so loss is unlikely).
  size_t exp_open = 0, exp_rst = 0, exp_silent = 0;
  for (uint16_t port : options_.expected_open) {
    auto it = states_.find(port);
    if (it == states_.end()) continue;
    if (it->second == PortState::Open) ++exp_open;
    else if (it->second == PortState::Closed) ++exp_rst;
    else ++exp_silent;
  }
  if (exp_silent > 0) {
    prov_.evidence(tb_.net.engine().now(), "silence",
                   common::format("%zu expected-open port(s)", exp_silent));
  }
  report_.confidence = conclude(exp_open, exp_rst, exp_silent);
  prov_.verdict(tb_.net.engine().now(), report_);
  done_ = true;
}

}  // namespace sm::core
