// Stateless TCP reachability with spoofed cover (§4.1).
//
// "We can use similar principles to measure IP reachability by sending
// TCP SYNs, checking if a SYN/ACK was correctly received, and sending a
// RST in response. If packets are dropped, the SYN/ACK will never
// arrive, otherwise, a RST provides cover traffic." The same SYN is also
// spoofed from neighbor addresses (Fig. 3a applied to TCP), whose
// stacks' automatic RSTs make every host in the /24 look like the
// prober.
#pragma once

#include "core/probe.hpp"
#include "spoof/cover.hpp"

namespace sm::core {

struct SynReachabilityOptions {
  /// The probe's family is the target's: pass common::map_v6(addr) to
  /// probe over IPv6, sent from the client's v6 address (cover likewise).
  /// The verdict taxonomy is unchanged — which is what lets the E2 matrix
  /// put a v4 row and a v6 row for the same host side by side.
  common::IpAddress target;
  uint16_t port = 80;
  /// Spoofed duplicates of the probe from this many neighbors.
  size_t cover_count = 0;
  common::Duration reply_timeout = common::Duration::millis(800);
  /// Lossy-path discipline: re-SYN on silence with exponential backoff.
  /// A blocked-timeout verdict then requires *every* attempt to go
  /// unanswered, which loss alone is exponentially unlikely to cause.
  RetryPolicy retry{};
};

class SynReachabilityProbe : public Probe {
 public:
  SynReachabilityProbe(Testbed& tb, SynReachabilityOptions options);
  ~SynReachabilityProbe() override;

 private:
  void launch() override;
  void send_attempt();
  void send(uint8_t flags, uint32_t seq);
  void on_reply(const packet::Decoded& d);
  void on_attempt_timeout();

  SynReachabilityOptions options_;
  AttemptLadder ladder_;
  std::unique_ptr<spoof::StatelessSynCover> cover_;
  uint16_t sport_ = 0;
  uint32_t iss_ = 0;
  uint64_t promisc_id_ = 0;
};

}  // namespace sm::core
