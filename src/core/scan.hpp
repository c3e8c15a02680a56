// Method #1 — Scanning traffic (§3.1).
//
// "We can stealthily measure TCP/IP censorship by sending scanning and
// exploit traffic to potentially censored services... we start an nmap
// SYN scan to the most commonly open 1,000 TCP ports... We conclude that
// censorship occurs if either (1) the sender does not receive a SYN/ACK;
// or (2) the sender receives a RST" on a port known to be open.
//
// Implemented as a half-open SYN scan: raw SYNs, classify SYN/ACK vs RST
// vs silence per port. The client's OS stack RSTs the half-open
// connections, exactly as nmap relies on.
#pragma once

#include <map>

#include "core/probe.hpp"
#include "core/top_ports.hpp"

namespace sm::core {

enum class PortState { Unknown, Open, Closed, Filtered };

struct ScanOptions {
  common::Ipv4Address target;
  std::vector<uint16_t> ports = top_tcp_ports(100);
  /// Ports the service is known to require (e.g. 80 for a web site):
  /// censorship is inferred when one of these is not open.
  std::vector<uint16_t> expected_open = {80};
  common::Duration pace = common::Duration::millis(5);
  common::Duration reply_timeout = common::Duration::millis(800);
  /// Randomize source ports and ISNs like real nmap. Turning this off
  /// leaves a deterministic implementation artifact (a contiguous sport
  /// block) that a fingerprinting surveillance ruleset can key on — the
  /// §3.2.1 "application fingerprinting" caveat, exercised by E15.
  bool randomize_source_ports = true;
  uint64_t randomize_seed = 0x5CA17;
  /// Lossy-path discipline: ports still Unknown after a round's reply
  /// window are re-SYNed (same sport/ISN — i.e. a SYN retransmission)
  /// up to `retry.max_attempts` rounds, with exponential backoff
  /// between rounds.
  RetryPolicy retry{};
};

class ScanProbe : public Probe {
 public:
  ScanProbe(Testbed& tb, ScanOptions options);
  ~ScanProbe() override;

  const std::map<uint16_t, PortState>& port_states() const {
    return states_;
  }

 private:
  void launch() override;
  void send_round(const std::vector<uint16_t>& ports);
  void on_round_done();
  void on_reply(const packet::Decoded& d);
  void finalize();

  ScanOptions options_;
  AttemptLadder ladder_;
  std::map<uint16_t, PortState> states_;
  std::map<uint16_t, uint16_t> sport_to_port_;  // our sport -> scanned port
  std::map<uint16_t, std::pair<uint16_t, uint32_t>>
      probe_params_;  // port -> (sport, iss), stable across rounds
  uint64_t promisc_id_ = 0;
  static constexpr uint16_t kSportBase = 40000;
};

}  // namespace sm::core
