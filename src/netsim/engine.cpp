#include "netsim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace sm::netsim {

TimerId Engine::schedule(Duration delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

TimerId Engine::schedule_at(SimTime when, Action action) {
  if (when < now_) when = now_;
  Event ev{when, next_seq_++, std::move(action)};
  TimerId id = ev.seq;
  if (due_head_ < due_.size() && when <= due_.back().when) {
    // The event lands inside the batch currently being dispatched:
    // splice it in at its (when, seq) position so it still fires in
    // global order. Its seq is the largest issued, so it goes after any
    // equal-deadline entry, preserving insertion-order ties.
    auto it = std::upper_bound(
        due_.begin() + static_cast<ptrdiff_t>(due_head_), due_.end(), ev,
        [](const Event& a, const Event& b) {
          if (a.when != b.when) return a.when < b.when;
          return a.seq < b.seq;
        });
    due_.insert(it, std::move(ev));
  } else {
    wheel_insert(std::move(ev));
  }
  ++live_;
  queue_high_water_ = std::max(queue_high_water_, pending());
  return id;
}

bool Engine::cancel(TimerId id) {
  if (id >= next_seq_) return false;
  return cancelled_.insert(id).second;
}

TimerId Engine::reschedule(TimerId id, Duration delay, Action action) {
  cancel(id);
  return schedule(delay, std::move(action));
}

void Engine::wheel_insert(Event ev) {
  // Ticks behind the cursor (possible when the cursor ran ahead through
  // a batch whose events were all cancelled) clamp to the cursor slot;
  // the batch sort restores exact (when, seq) order at dispatch.
  uint64_t tick = std::max(tick_of(ev.when), pos_);
  for (int l = 0; l < kLevels; ++l) {
    const int shift = kSlotBits * l;
    if ((tick >> shift) - (pos_ >> shift) < kSlots) {
      const auto s = static_cast<size_t>((tick >> shift) & kSlotMask);
      slots_[l][s].push_back(std::move(ev));
      occupied_[l] |= uint64_t{1} << s;
      return;
    }
  }
  far_.emplace(tick, std::move(ev));
}

void Engine::migrate_far() {
  while (!far_.empty() && fits_wheel(far_.begin()->first)) {
    auto node = far_.extract(far_.begin());
    wheel_insert(std::move(node.mapped()));
  }
}

bool Engine::ensure_due() {
  if (due_head_ < due_.size()) return true;
  due_.clear();
  due_head_ = 0;
  for (;;) {
    // Far-list events whose deadlines now fall inside the wheel horizon
    // must migrate before the slot scan, or the scan could dispatch a
    // wheel event scheduled after (but due before) a lingering far one.
    if (!far_.empty()) migrate_far();

    // Find the occupied slot with the smallest possible deadline. Each
    // level's slots hold events whose level-granularity value lies in
    // the 64-wide window starting at the cursor, so a rotated bitmap
    // scan maps the first set bit directly to that value.
    uint64_t best_value = UINT64_MAX;
    int best_level = -1;
    for (int l = 0; l < kLevels; ++l) {
      if (!occupied_[l]) continue;
      const int shift = kSlotBits * l;
      const uint64_t cur = pos_ >> shift;
      const auto ci = static_cast<int>(cur & kSlotMask);
      const uint64_t rot = std::rotr(occupied_[l], ci);
      const auto j = static_cast<uint64_t>(std::countr_zero(rot));
      const uint64_t v = (cur + j) << shift;
      // On equal window starts the outer level must cascade first: its
      // slot may hold events due at exactly the inner candidate's tick
      // with earlier sequence numbers.
      if (v <= best_value) {
        best_value = v;
        best_level = l;
      }
    }

    if (best_level < 0) {
      if (far_.empty()) return false;
      pos_ = std::max(pos_, far_.begin()->first);
      migrate_far();
      continue;
    }

    const int shift = kSlotBits * best_level;
    const auto s =
        static_cast<size_t>((best_value >> shift) & kSlotMask);
    auto& slot = slots_[best_level][s];
    // Advancing the cursor is safe: best_value lower-bounds every
    // pending deadline. It also makes this the cursor slot of its
    // level, which guarantees cascaded events fit one level down.
    pos_ = std::max(pos_, best_value);

    if (best_level == 0) {
      due_.swap(slot);  // slot keeps due_'s old capacity for reuse
      occupied_[0] &= ~(uint64_t{1} << s);
      if (due_.size() > 1) {
        std::sort(due_.begin(), due_.end(),
                  [](const Event& a, const Event& b) {
                    if (a.when != b.when) return a.when < b.when;
                    return a.seq < b.seq;
                  });
      }
      return true;
    }

    std::vector<Event> cascade;
    cascade.swap(slot);
    occupied_[best_level] &= ~(uint64_t{1} << s);
    for (auto& ev : cascade) wheel_insert(std::move(ev));
  }
}

size_t Engine::run(size_t max_events) {
  size_t n = 0;
  while (n < max_events && ensure_due()) {
    Event cur = std::move(due_[due_head_]);
    ++due_head_;
    --live_;
    if (!cancelled_.empty() && cancelled_.erase(cur.seq) > 0) continue;
    now_ = cur.when;
    cur.action();
    ++n;
    ++executed_;
  }
  return n;
}

size_t Engine::run_until(SimTime deadline) {
  size_t n = 0;
  while (ensure_due() && due_[due_head_].when <= deadline) {
    Event cur = std::move(due_[due_head_]);
    ++due_head_;
    --live_;
    if (!cancelled_.empty() && cancelled_.erase(cur.seq) > 0) continue;
    now_ = cur.when;
    cur.action();
    ++n;
    ++executed_;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

namespace {

const obs::Family kEventsExecuted{obs::Kind::Counter,
                                  "sm_netsim_events_executed_total",
                                  "events executed by the discrete-event loop"};
const obs::Family kQueueDepth{obs::Kind::Gauge, "sm_netsim_queue_depth",
                              "events pending in the scheduler queue"};
const obs::Family kQueueHighWater{obs::Kind::Gauge, "sm_netsim_queue_high_water",
                                  "maximum simultaneous pending events seen"};
const obs::Family kSimClock{obs::Kind::Gauge, "sm_netsim_sim_clock_seconds",
                            "current simulated time in seconds"};

}  // namespace

void Engine::export_metrics(obs::Registry& registry) const {
  registry.counter(kEventsExecuted)->set(executed_);
  registry.gauge(kQueueDepth)->set(static_cast<double>(pending()));
  registry.gauge(kQueueHighWater)->set(static_cast<double>(queue_high_water_));
  registry.gauge(kSimClock)->set(now_.to_seconds());
}

}  // namespace sm::netsim
