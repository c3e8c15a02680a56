// Flow table with TCP stream reassembly.
//
// This is the state a censorship-style IDS keeps (§2.1: "censorship
// systems need only store enough data to reassemble flows"): per-flow
// direction/handshake tracking plus a bounded reassembly buffer per
// direction so content rules can match keywords split across segments.
// Memory is strictly bounded and reportable, because the paper's central
// storage argument is quantitative.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "common/ip.hpp"
#include "common/time.hpp"
#include "packet/packet.hpp"

namespace sm::ids {

using common::Duration;
using common::IpAddress;
using common::Ipv4Address;
using common::SimTime;

/// Reassembles one direction of a TCP byte stream into a bounded
/// contiguous buffer. When the buffer exceeds the cap, the front is
/// trimmed (oldest bytes are forgotten), exactly like a real IDS with a
/// fixed reassembly window.
class StreamBuffer {
 public:
  explicit StreamBuffer(size_t cap = 16 * 1024) : cap_(cap) {}

  /// Sets the initial sequence number of the first payload byte.
  void set_base(uint32_t seq) {
    if (!base_set_) {
      base_ = seq;
      base_set_ = true;
    }
  }
  bool base_set() const { return base_set_; }

  /// Inserts segment payload at absolute sequence `seq`.
  void add_segment(uint32_t seq, std::span<const uint8_t> data);

  /// The contiguous reassembled bytes currently held.
  std::span<const uint8_t> contiguous() const { return buffer_; }

  size_t buffered_bytes() const { return buffer_.size() + pending_bytes_; }

 private:
  void merge_pending();

  size_t cap_;
  uint32_t base_ = 0;       // sequence number of buffer_[0]
  bool base_set_ = false;
  std::vector<uint8_t> buffer_;
  std::map<uint32_t, std::vector<uint8_t>> pending_;  // out-of-order
  size_t pending_bytes_ = 0;  // total size of pending_'s segments
};

/// Canonical 5-tuple key (direction-independent, either family — the
/// IpAddress ordering keeps v4 and v6 flows in disjoint key ranges).
struct FlowKey {
  IpAddress a;
  uint16_t a_port = 0;
  IpAddress b;
  uint16_t b_port = 0;
  uint8_t proto = 0;

  /// Builds the canonical (sorted-endpoint) key for a packet.
  static FlowKey from(const packet::Decoded& d);
  auto operator<=>(const FlowKey&) const = default;
};

struct FlowState {
  // The "client" is whoever sent the first packet we saw.
  IpAddress client;
  uint16_t client_port = 0;
  bool syn_seen = false;
  bool synack_seen = false;
  bool established = false;
  SimTime first_seen{};
  SimTime last_seen{};
  uint64_t packets_to_server = 0;
  uint64_t packets_to_client = 0;
  uint64_t bytes_to_server = 0;
  uint64_t bytes_to_client = 0;
  StreamBuffer to_server_stream;
  StreamBuffer to_client_stream;
  /// Rules that already fired on reassembled data for this flow
  /// (stream-match dedup).
  std::set<uint32_t> fired_sids;
};

/// Per-packet flow context handed to rule evaluation.
struct FlowContext {
  FlowState* state = nullptr;
  bool to_server = false;  // this packet travels client -> server
};

class FlowTable {
 public:
  explicit FlowTable(size_t stream_cap = 16 * 1024,
                     Duration idle_timeout = Duration::seconds(60))
      : stream_cap_(stream_cap), idle_timeout_(idle_timeout) {}

  /// Updates state for the packet and returns its flow context. Non-TCP/
  /// UDP packets return a null context.
  /// Advances flow state for one packet. `buffer_streams = false` keeps
  /// the handshake/direction tracking but skips copying TCP payload into
  /// the reassembly buffers — correct whenever no rule will ever read
  /// them (the engine passes false for content-free rulesets).
  FlowContext update(SimTime now, const packet::Decoded& d,
                     bool buffer_streams = true);

  /// Evicts flows idle longer than the timeout.
  size_t expire(SimTime now);

  size_t flow_count() const { return flows_.size(); }
  /// Total bytes held in reassembly buffers — the memory footprint the
  /// paper's storage argument (§2.2 requirement 1) is about.
  size_t buffered_bytes() const;

 private:
  size_t stream_cap_;
  Duration idle_timeout_;
  std::map<FlowKey, FlowState> flows_;
};

}  // namespace sm::ids
