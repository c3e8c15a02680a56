// ICMP echo reachability probe.
//
// Not one of the paper's stealth techniques, but the control measurement
// every platform runs: censors that drop TCP to a host often leave ICMP
// alone, so ping-reachable + service-unreachable localizes the blocking
// to the service/port layer rather than the route. (Ping is also what
// §4.2's normalization cost breaks, which makes this probe a useful
// canary for that countermeasure.)
#pragma once

#include <set>

#include "core/probe.hpp"

namespace sm::core {

struct PingOptions {
  /// The probe's family is the target's: pass common::map_v6(addr) for
  /// an ICMPv6 echo from the client's v6 address. Same verdict taxonomy
  /// as v4.
  common::IpAddress target;
  size_t count = 3;
  common::Duration interval = common::Duration::millis(200);
  common::Duration reply_timeout = common::Duration::millis(800);
  /// If a whole round of `count` echoes goes unanswered, re-ping with
  /// exponential backoff before concluding blocked.
  RetryPolicy retry{};
};

class PingProbe : public Probe {
 public:
  PingProbe(Testbed& tb, PingOptions options);

  size_t replies_received() const { return seen_seqs_.size(); }

 private:
  void launch() override;
  void send_round();
  void on_round_timeout();

  PingOptions options_;
  AttemptLadder ladder_;
  uint16_t ident_ = 0;
  /// Echo sequence numbers answered so far; a set, so duplicated
  /// replies (impaired links) cannot inflate the reply count.
  std::set<uint32_t> seen_seqs_;
};

}  // namespace sm::core
