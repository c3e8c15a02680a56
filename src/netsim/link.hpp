// Point-to-point link with latency, optional bandwidth (serialization +
// FIFO queueing), random loss, and the deterministic impairment models
// (burst loss, reordering, duplication, corruption, flaps).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "netsim/engine.hpp"
#include "netsim/impairment.hpp"
#include "netsim/node.hpp"
#include "packet/packet.hpp"

namespace sm::netsim {

struct LinkConfig {
  common::Duration latency = common::Duration::micros(100);
  /// Bits per second; 0 disables serialization-delay/queueing modeling.
  uint64_t bandwidth_bps = 0;
  /// Independent per-packet drop probability.
  double loss_rate = 0.0;
  /// Additional adverse-network behaviours; see netsim/impairment.hpp.
  Impairment impairment{};

  /// True if random loss or any impairment mechanism is on: only then
  /// does a packet's fate need a draw.
  bool impaired() const { return loss_rate > 0.0 || impairment.any(); }
};

/// Per-link traffic accounting, broken down by impairment mechanism.
struct LinkStats {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped_loss = 0;     // i.i.d. loss_rate drops
  uint64_t dropped_burst = 0;    // Gilbert–Elliott burst drops
  uint64_t dropped_down = 0;     // link-flap (down window) drops
  uint64_t dropped_corrupt = 0;  // checksum-failing corruption drops
  uint64_t duplicated = 0;       // extra copies delivered
  uint64_t reordered = 0;        // packets given reorder jitter
  uint64_t corrupted = 0;        // delivered with flipped bytes

  uint64_t dropped() const {
    return dropped_loss + dropped_burst + dropped_down + dropped_corrupt;
  }
};

/// Every scheduled delivery of one Network's links, parked here instead
/// of inside the engine closure: capturing {pool, slot index} keeps the
/// closure within EventFn's inline buffer, so the per-hop schedule makes
/// no heap allocation, and freed slots recycle network-wide. Indexed
/// (not pointed) because the vector grows; still-pending deliveries are
/// destroyed with the pool, so a Network torn down mid-flight leaks
/// nothing.
class DeliveryPool {
 public:
  explicit DeliveryPool(Engine& engine) : engine_(engine) {}
  DeliveryPool(const DeliveryPool&) = delete;  // closures hold its address
  DeliveryPool& operator=(const DeliveryPool&) = delete;

  /// Parks `packet` for `node`'s `port` and schedules its arrival.
  void deliver_at(common::SimTime when, packet::Packet packet, Node* node,
                  int port);

 private:
  struct InFlight {
    packet::Packet packet;
    Node* node = nullptr;
    int port = -1;
  };

  void arrive(uint32_t slot);

  Engine& engine_;
  std::vector<InFlight> slots_;
  std::vector<uint32_t> free_;
};

class Link {
 public:
  /// A clean config (`!config.impaired()`) builds no impairment model:
  /// its packets draw nothing, so the seed goes unused.
  Link(Engine& engine, DeliveryPool& deliveries, const LinkConfig& config,
       uint64_t seed);

  /// Wires the two endpoints; must be called exactly once. Returns the
  /// port index the link occupies on each node, (port on a, port on b),
  /// so callers never have to rediscover them by scanning ports.
  std::pair<int, int> connect(Node* a, Node* b);

  /// Port this link occupies on node `n` (-1 if `n` is not an endpoint).
  int port_of(const Node* n) const {
    if (n == a_.node) return a_.port;
    if (n == b_.node) return b_.port;
    return -1;
  }

  /// Sends `packet` from endpoint `from` toward the other endpoint.
  /// Delivery is scheduled on the engine after latency (+ serialization
  /// and queueing delay when bandwidth is modeled), unless an impairment
  /// drops the packet.
  void send_from(Node* from, packet::Packet packet);

  uint64_t packets_sent() const { return stats_.sent; }
  uint64_t packets_dropped() const { return stats_.dropped(); }
  const LinkStats& stats() const { return stats_; }

 private:
  struct Endpoint {
    Node* node = nullptr;
    int port = -1;
    common::SimTime busy_until{};
  };

  Endpoint& endpoint_for(Node* n);
  Endpoint& peer_of(Node* n);

  Engine& engine_;
  DeliveryPool& deliveries_;
  common::Duration latency_;
  uint64_t bandwidth_bps_;
  std::unique_ptr<ImpairmentModel> model_;  // null on a clean link
  Endpoint a_, b_;
  LinkStats stats_;
};

}  // namespace sm::netsim
