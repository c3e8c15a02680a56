// In-memory span recorder for the benchmark's traced pass.
//
// The benchmark wraps its own calls into each module (Testbed
// construction, run_probe, run_scenario, Network::run_for, ...) in
// spans. A span records {name, start, end, parent, trial}; spans stay in
// memory while the pass runs and are written out as JSON lines when it
// ends. A layer's self time is its spans' duration minus the part of it
// their child spans cover.
//
// Hot inner calls (the population MVR sees tens of thousands of packets
// per run) are timed by the caller and recorded once, as one aggregate
// child span whose `count` says how many calls it stands for.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sm::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t trial = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t count = 1;
  };

  /// Opens a span as a child of the innermost open span; returns its id.
  uint32_t open(const char* name, uint64_t trial) {
    Span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.trial = trial;
    s.start_ns = to_ns(Clock::now());
    spans_.push_back(s);
    stack_.push_back(static_cast<uint32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(uint32_t id) {
    spans_[id].end_ns = to_ns(Clock::now());
    stack_.pop_back();
  }

  /// Records `count` calls totalling `dur_ns` as one child of the
  /// innermost open span (which must exist).
  void add_aggregate(const char* name, int64_t dur_ns, uint64_t count) {
    Span s;
    s.name = intern(name);
    s.parent = stack_.back();
    s.trial = spans_[s.parent].trial;
    s.start_ns = spans_[s.parent].start_ns;
    s.end_ns = s.start_ns + dur_ns;
    s.count = count;
    spans_.push_back(s);
  }

  /// Total and self nanoseconds per span name. Self time subtracts the
  /// duration of direct children (spans nest, so children never overlap).
  struct LayerTime {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t calls = 0;
  };
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes every span as one JSON line: {"name","id","parent","trial",
  /// "start_ns","end_ns","count"} (parent -1 for roots). Returns false
  /// when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  uint32_t intern(const char* name);

  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
};

/// RAII span; a null tracer records nothing, so traced and untraced
/// passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t trial = 0)
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->open(name, trial);
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_ = 0;
};

}  // namespace sm::perfbench
