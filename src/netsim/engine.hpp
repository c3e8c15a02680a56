// Discrete-event simulation engine.
//
// A single-threaded event loop over a hierarchical timer wheel keyed by
// (time, insertion sequence), so simultaneous events run in scheduling
// order and every run is exactly reproducible. The wheel replaces the
// earlier binary heap: O(1) amortized insertion, batched dispatch of all
// events sharing a wheel tick, and an ordered far-list for events beyond
// the wheel horizon (~19.5 simulated hours at the default resolution).
//
// Determinism contract (relied on by simcheck's byte-identity oracle):
// events execute in strictly nondecreasing (when, seq) order, where seq
// is the global insertion sequence number. Wheel slots may hold events
// in arbitrary internal order — every extracted batch is sorted by
// (when, seq) before dispatch, and cascades only move events whose
// deadlines provably precede everything else pending.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace sm::obs {
class ProvenanceGraph;
}  // namespace sm::obs

namespace sm::netsim {

using common::Duration;
using common::SimTime;

/// Handle for a scheduled event, usable with Engine::cancel. Ids are
/// never reused within an engine's lifetime.
using TimerId = uint64_t;

/// Move-only callable for scheduled events. Trivially copyable callables
/// up to 24 bytes live inline, so Event moves — wheel inserts, cascades,
/// and batch sorts, which touch every pending event repeatedly — are
/// plain memcpy with no type-erased manager call, and the per-hop packet
/// delivery closure schedules without heap allocation. Bigger or
/// nontrivial callables fall back to a heap-boxed std::function.
class EventFn {
 public:
  EventFn() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_trivially_copyable_v<D> && sizeof(D) <= kInline &&
                  alignof(D) <= alignof(void*)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](EventFn& self) {
        (*std::launder(reinterpret_cast<D*>(self.buf_)))();
      };
    } else {
      auto* box = new std::function<void()>(std::forward<F>(f));
      std::memcpy(buf_, &box, sizeof(box));
      boxed_ = true;
      invoke_ = [](EventFn& self) { (*self.box())(); };
    }
  }
  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { release(); }

  void operator()() { invoke_(*this); }

 private:
  static constexpr size_t kInline = 24;

  std::function<void()>* box() const {
    std::function<void()>* p;
    std::memcpy(&p, buf_, sizeof(p));
    return p;
  }
  void steal(EventFn& other) {
    std::memcpy(buf_, other.buf_, kInline);
    invoke_ = other.invoke_;
    boxed_ = other.boxed_;
    other.invoke_ = nullptr;
    other.boxed_ = false;
  }
  void release() {
    if (boxed_) delete box();
    invoke_ = nullptr;
    boxed_ = false;
  }

  alignas(void*) unsigned char buf_[kInline];
  void (*invoke_)(EventFn&) = nullptr;
  bool boxed_ = false;
};

class Engine {
 public:
  using Action = EventFn;

  /// Schedules `action` to run at now() + delay (delay may be zero; the
  /// action still runs after the current event completes). Returns a
  /// TimerId usable with cancel().
  TimerId schedule(Duration delay, Action action);

  /// Schedules at an absolute time (times in the past clamp to now()).
  TimerId schedule_at(SimTime when, Action action);

  /// Cancels a *pending* timer: the event is skipped at dispatch time
  /// (it never executes and does not count toward run()'s event budget).
  /// Returns false if `id` was never issued or is already cancelled.
  /// Contract: ids of events that have already fired must not be passed
  /// (the engine cannot distinguish them from pending ids cheaply; the
  /// caller owns that bookkeeping, as TCP-style timer users naturally do).
  bool cancel(TimerId id);

  /// Convenience: cancel(id) then schedule(delay, action); returns the
  /// replacement timer's id.
  TimerId reschedule(TimerId id, Duration delay, Action action);

  SimTime now() const { return now_; }

  /// Runs events until the queue is empty or `max_events` have executed.
  /// Returns the number of events executed (cancelled events are skipped
  /// and do not count).
  size_t run(size_t max_events = SIZE_MAX);

  /// Runs events with timestamps <= deadline; the clock then advances to
  /// the deadline even if the queue emptied earlier.
  size_t run_until(SimTime deadline);

  /// Live (non-cancelled) events awaiting dispatch.
  size_t pending() const { return live_ - cancelled_.size(); }
  size_t executed() const { return executed_; }

  /// Attaches a provenance graph: links, routers, and taps reach it
  /// through their engine reference and record causal events when it is
  /// non-null: one null check per hook when detached. Pass nullptr to
  /// detach.
  void set_provenance(obs::ProvenanceGraph* provenance) {
    provenance_ = provenance;
  }
  obs::ProvenanceGraph* provenance() const { return provenance_; }

  /// Pull-model metrics bridge: copies the engine's cumulative counters
  /// into `registry` (sm_netsim_events_executed_total, queue depth/high
  /// water gauges, sim clock). Called at snapshot time, never per event.
  void export_metrics(obs::Registry& registry) const;

 private:
  // Wheel geometry: 6 levels of 64 slots; level-0 slots are
  // 2^kResBits ns wide. Level l covers a window of 64^(l+1) ticks past
  // the cursor, so the wheel spans 64^6 ticks (~19.5 h at 1024 ns/tick)
  // before events spill to the far-list.
  static constexpr int kResBits = 10;   // level-0 tick = 1024 ns
  static constexpr int kSlotBits = 6;   // 64 slots per level
  static constexpr int kLevels = 6;
  static constexpr uint64_t kSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;

  struct Event {
    SimTime when;
    uint64_t seq;
    Action action;
  };

  static uint64_t tick_of(SimTime t) {
    return static_cast<uint64_t>(t.count()) >> kResBits;
  }
  /// True if tick fits the wheel (some level) relative to the cursor.
  bool fits_wheel(uint64_t tick) const {
    return (tick >> (kSlotBits * (kLevels - 1))) -
               (pos_ >> (kSlotBits * (kLevels - 1))) <
           kSlots;
  }

  void wheel_insert(Event ev);
  /// Refills due_ with the next batch (all events of the earliest
  /// occupied tick, sorted by (when, seq)), cascading outer levels and
  /// migrating far-list events as needed. False if nothing is pending.
  bool ensure_due();
  void migrate_far();

  std::vector<Event> slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels] = {};  // bit s set <=> slots_[l][s] nonempty
  /// Events beyond the wheel horizon, ordered by tick (insertion order
  /// preserved among equal ticks; final order is restored by the batch
  /// sort anyway).
  std::multimap<uint64_t, Event> far_;
  /// Current dispatch batch: earliest tick's events sorted by
  /// (when, seq); due_head_ indexes the next undispatched entry. New
  /// events landing inside the batch's remaining range are spliced in
  /// at their (when, seq) position.
  std::vector<Event> due_;
  size_t due_head_ = 0;
  uint64_t pos_ = 0;  // wheel cursor, in level-0 ticks; never decreases

  std::unordered_set<TimerId> cancelled_;

  SimTime now_{};
  uint64_t next_seq_ = 0;
  size_t executed_ = 0;
  size_t live_ = 0;  // events in slots_/far_/due_ (incl. cancelled)
  size_t queue_high_water_ = 0;
  obs::ProvenanceGraph* provenance_ = nullptr;
};

}  // namespace sm::netsim
