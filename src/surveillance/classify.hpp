// Traffic classification for Massive Volume Reduction.
//
// The first stage of a surveillance system (§2.1) discards the bulk of
// traffic. The NSA's TEMPORA cut ~30% of volume "in part by throwing away
// all peer-to-peer traffic"; scanning is so ubiquitous (Durumeric et al.:
// 10.8M scans/month against one darknet) that it is also low-value noise.
// This classifier implements the cheap per-packet/per-source heuristics
// such a discard stage uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flathash.hpp"
#include "common/ip.hpp"
#include "common/time.hpp"
#include "packet/packet.hpp"

namespace sm::surveillance {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;

enum class TrafficClass {
  Web,       // 80/443/8080
  Dns,       // 53
  Mail,      // 25/465/587: spam-like by volume heuristics
  P2p,       // bittorrent/emule ports or protocol signatures
  Scanning,  // many distinct (dst,port) SYNs from one source
  DdosLike,  // high request rate to one destination
  Other,
};

std::string to_string(TrafficClass c);

struct ClassifierConfig {
  /// A source touching more than this many distinct (dst, port) pairs
  /// with SYNs inside the window is a scanner.
  size_t scan_fanout_threshold = 25;
  Duration scan_window = Duration::seconds(10);
  /// More than this many requests to one destination inside the window
  /// from one source looks like (one bot of) a DDoS.
  size_t ddos_rate_threshold = 50;
  Duration ddos_window = Duration::seconds(10);
};

/// Stateful per-source classifier. All state is bounded sliding windows.
class Classifier {
 public:
  explicit Classifier(ClassifierConfig config = {}) : config_(config) {}

  TrafficClass classify(SimTime now, const packet::Decoded& d);

  /// Number of sources currently tracked (for memory accounting).
  size_t tracked_sources() const { return sources_.size(); }

 private:
  /// Sliding-window FIFO that allocates nothing until its first push:
  /// every slot of `sources_` holds a SourceState, empty slots included,
  /// so an allocating default constructor (std::deque's ~600 B) would be
  /// paid per slot. Pops advance a head index; the dead prefix is
  /// dropped once it is half the buffer, so each entry moves at most
  /// once on average.
  template <typename T>
  class Window {
   public:
    bool empty() const { return head_ == items_.size(); }
    const T& front() const { return items_[head_]; }
    void push_back(const T& v) { items_.push_back(v); }
    void pop_front() {
      if (++head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (2 * head_ >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<T> items_;
    size_t head_ = 0;
  };

  // Per-source state lives in open-addressed tables (PR 8): nothing here
  // is ever iterated for output, only probed per packet, so the swap is
  // invisible outside this class.
  struct SourceState {
    Window<std::pair<SimTime, uint64_t>> syn_targets;  // (time, dst|port)
    common::FlatSet<uint64_t> distinct_targets;
    Window<std::pair<SimTime, uint32_t>> requests;  // (time, dst ip)
    common::FlatMap<uint32_t, size_t> per_dst_count;
    void advance(SimTime now, const ClassifierConfig& cfg);
  };

  ClassifierConfig config_;
  common::FlatMap<Ipv4Address, SourceState> sources_;
};

/// Pure port/payload heuristics (stateless part), exposed for tests.
bool looks_p2p(const packet::Decoded& d);
TrafficClass port_class(const packet::Decoded& d);

}  // namespace sm::surveillance
