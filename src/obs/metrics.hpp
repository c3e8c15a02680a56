// Deterministic metrics registry: named + labeled counters, gauges, and
// histograms, snapshot-able to JSON and Prometheus text exposition.
//
// The simulator's whole argument rests on counting what the adversary
// sees (alerts stored, probes RSTed, bytes retained), so those counts
// need one common, machine-readable export path. Everything here is
// deterministic: snapshots list series in (name, sorted labels) order,
// values come only from simulation state, and no wall-clock or
// address-dependent data ever enters a snapshot — two runs with the same
// seed serialize byte-identically.
//
// Schema once, values per registry. A metric family's name, kind, help,
// label names and histogram shape are declared once, as a namespace-scope
// `Family` beside the subsystem that exports it. A process-wide,
// append-only intern table maps (family, label values) to a series entry
// that caches the series' escaped JSON, Prometheus and encode() keys, so
// a Registry is only a flat array of (series, value) slots.
//
// Instrumentation is pull-model where it matters: hot subsystems keep
// their existing cheap struct counters (ids::Engine::Stats, Router::
// Counters, ...) and bridge them into the registry only at snapshot
// time via their export_metrics() methods, so a disabled registry costs
// the hot paths nothing at all.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/stats.hpp"

namespace sm::obs {

/// Label set for one series. Order-insensitive: the registry sorts by
/// key before using the set as part of the series identity.
using Labels = std::vector<std::pair<std::string, std::string>>;
/// Label values of a declared family, in its label-name order.
using LabelValues = std::initializer_list<std::string_view>;

enum class Kind : uint8_t { Counter, Gauge, Histogram };

class Registry;
namespace detail {
struct FamilyInfo;
struct Series;
uint32_t series_id(const Series* s);
}  // namespace detail

/// A histogram's [lo, hi) and bin count.
struct Shape {
  double lo = 0.0, hi = 1.0;
  size_t bins = 1;
};

/// A metric family's schema, declared once as a namespace-scope constant
/// beside the subsystem that exports it. Label names must be sorted.
/// Constructing one interns the family (and an unlabeled family's one
/// series).
class Family {
 public:
  Family(Kind kind, std::string_view name, std::string_view help,
         std::initializer_list<std::string_view> labels = {},
         Shape shape = {});

 private:
  friend class Registry;
  const detail::FamilyInfo* info_;
  Kind kind_;
  const detail::Series* plain_ = nullptr;  // an unlabeled family's series
  std::string_view help_;  // views the interned help when they are equal
  std::vector<std::string_view> labels_;
  Shape shape_;
};

/// A counter family bridged from one field of a subsystem's stats struct:
/// an export_metrics() walks a table of these.
template <class Stats>
struct StatCounter {
  StatCounter(uint64_t Stats::*field, std::string_view name,
              std::string_view help,
              std::initializer_list<std::string_view> labels = {})
      : field(field), family(Kind::Counter, name, help, labels) {}
  uint64_t Stats::*field;
  Family family;
};

/// A series handle: (registry, series), valid for the registry's
/// lifetime; `->` works on it as on a pointer. Counter is a monotonically
/// increasing count (set() exists for the pull-model bridges, which copy
/// an already-cumulative subsystem counter at snapshot time); Gauge is a
/// point-in-time value (queue depth, retained fraction, store bytes).
template <class T>
class Cell {
 public:
  void set(T v);
  T value() const;
  void inc(T n = 1) { set(value() + n); }
  void add(T d) { set(value() + d); }
  /// The intern table's dense id of this series (~0u for a sink): one
  /// per (family, labels), whichever thread interned it first.
  uint32_t id() const { return detail::series_id(series_); }
  Cell* operator->() { return this; }
  bool operator==(const Cell& o) const {
    return reg_ == o.reg_ && series_ == o.series_;
  }

 private:
  friend class Registry;
  Cell(Registry* reg, const detail::Series* series, size_t slot)
      : reg_(reg), series_(series), slot_(slot) {}
  Registry* reg_;
  const detail::Series* series_;  // null: a disabled registry's sink
  mutable size_t slot_;           // where the series was; re-found if moved
};
using Counter = Cell<uint64_t>;
using Gauge = Cell<double>;

/// Fixed-bin distribution over [lo, hi) (out-of-range observations clamp
/// to the edge bins, matching common::Histogram), with running moments.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins) : hist_(lo, hi, bins) {}

  void observe(double x) {
    hist_.add(x);
    moments_.add(x);
  }

  /// Drops all observations (shape kept). Pull-model bridges that rebuild
  /// a distribution from current state (e.g. per-dossier scores) call
  /// this first so repeated snapshots stay idempotent.
  void reset() {
    hist_ = common::Histogram(lo(), hi(), hist_.bins().size());
    moments_ = common::OnlineStats{};
  }

  /// Folds `other`'s observations in: bin counts add, moments combine
  /// (Chan et al.). Shape mismatch throws std::invalid_argument. Clamped
  /// observations (non-finite input, degenerate [lo,hi)) merge like any
  /// others: the clamp happened at observe() time, so the edge bins just
  /// add — count() and the bucket sums stay exact integers even when the
  /// moments carry NaN from a non-finite observation.
  void merge(const HistogramMetric& other) {
    hist_.merge(other.hist_);
    moments_.merge(other.moments_);
  }

  size_t count() const { return hist_.count(); }
  double sum() const {
    return moments_.mean() * static_cast<double>(moments_.count());
  }
  double lo() const { return hist_.lo(); }
  double hi() const { return hist_.hi(); }
  const common::Histogram& histogram() const { return hist_; }
  const common::OnlineStats& moments() const { return moments_; }
  /// Restores exact serialized state (checkpoint decode). The histogram's
  /// shape must match this metric's; throws std::invalid_argument if not.
  void restore(common::Histogram hist, common::OnlineStats moments);
  /// Upper bound of bin `i` (the Prometheus `le` value; the last bin's
  /// bound serializes as +Inf because edge clamping makes it catch-all).
  double bin_high(size_t i) const;
  /// Estimated q-quantile (0 < q <= 1) by linear interpolation over the
  /// cumulative bin counts — the classic histogram_quantile() estimate,
  /// computed at export time so observe() stays one array increment.
  /// Returns 0.0 when the histogram is empty. Deterministic: depends
  /// only on the (exact, integral) bin counts and the fixed bin edges.
  double quantile(double q) const;

 private:
  common::Histogram hist_;
  common::OnlineStats moments_;
};

/// The registry: one slot per series it touched, sorted by series.
/// Re-using a metric name with a different kind, or a series with a
/// different histogram shape, throws std::invalid_argument (programmer
/// error). Help text belongs to the registry: a family keeps the first
/// non-empty help it is offered, by an accessor or by merge().
///
/// A disabled registry hands out sink series instead: writes go to a
/// sink nobody reads and snapshots are empty, so "observability off"
/// needs no branches at the instrumentation sites.
///
/// One registry is used by one thread at a time; the intern table behind
/// every registry is shared and thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Series of a declared family; `values` pairs with its label names.
  Counter counter(const Family& f, LabelValues values = {}) {
    return handle<uint64_t>(declared(f, Kind::Counter, values));
  }
  Gauge gauge(const Family& f, LabelValues values = {}) {
    return handle<double>(declared(f, Kind::Gauge, values));
  }
  HistogramMetric* histogram(const Family& f, LabelValues values = {}) {
    return hist_at(declared(f, Kind::Histogram, values), f.shape_.lo,
                   f.shape_.hi, f.shape_.bins);
  }

  /// Series by name, for decode(), tests and ad-hoc registries. The
  /// histogram pointer stays valid for the registry's lifetime.
  Counter counter(std::string_view name, Labels labels = {},
                  std::string_view help = "") {
    return handle<uint64_t>(named(name, Kind::Counter, labels, help));
  }
  Gauge gauge(std::string_view name, Labels labels = {},
              std::string_view help = "") {
    return handle<double>(named(name, Kind::Gauge, labels, help));
  }
  HistogramMetric* histogram(std::string_view name, double lo, double hi,
                             size_t bins, Labels labels = {},
                             std::string_view help = "") {
    return hist_at(named(name, Kind::Histogram, labels, help), lo, hi, bins);
  }

  /// Number of registered (name, labels) series.
  size_t series_count() const { return slots_.size(); }

  /// Folds every series of `other` into this registry: counters and
  /// gauges add, histograms merge() bin-wise; series missing here are
  /// created with `other`'s shape and help text. The campaign runner
  /// uses this to combine per-trial registries — merging the same
  /// snapshots in the same order yields byte-identical to_json()
  /// regardless of how many workers produced them. Throws
  /// std::invalid_argument on a kind or histogram-shape conflict.
  /// A disabled registry ignores the call (snapshots stay empty).
  void merge(const Registry& other);

  /// Frees unused slot capacity (a snapshot about to be held).
  void shrink_to_fit();

  /// Deterministic JSON snapshot: an array of series sorted by
  /// (name, labels), e.g.
  ///   {"metrics":[{"name":"sm_ids_packets_total",
  ///                "labels":{"instance":"mvr"},
  ///                "kind":"counter","value":12}, ...]}
  std::string to_json() const;

  /// Prometheus text exposition (one # HELP / # TYPE pair per family;
  /// histograms emit cumulative _bucket{le=...}, _sum, _count).
  std::string to_prometheus() const;

  /// Exact binary snapshot (campaign checkpoint codec): every family,
  /// kind, help text, label set, and raw value — doubles as IEEE-754 bit
  /// patterns — so decode() rebuilds a registry whose to_json()/
  /// to_prometheus()/merge() behaviour is byte-for-byte the original's.
  void encode(common::ByteWriter& w) const;
  /// Rebuilds a registry from encode()'s bytes. Throws std::runtime_error
  /// on a truncated or malformed buffer.
  static std::unique_ptr<Registry> decode(common::ByteReader& r);

 private:
  template <class T>
  friend class Cell;

  // A counter's value, a gauge's bit pattern, or a histogram's index
  // into hists_.
  struct Slot {
    const detail::Series* series;
    uint64_t bits;
  };

  size_t find(const detail::Series* s) const;
  size_t slot(const detail::Series* s, std::string_view help);
  uint64_t& cell(const detail::Series* s, size_t& hint);
  // declared() and named() return the slot of the series, or kSink
  // while disabled; handle() and hist_at() then hand out the sink.
  static constexpr size_t kSink = ~size_t{0};
  template <class T>
  Cell<T> handle(size_t i) {
    return Cell<T>(this, i == kSink ? nullptr : slots_[i].series, i);
  }
  HistogramMetric* hist_at(size_t slot, double lo, double hi, size_t bins);
  size_t declared(const Family& f, Kind kind, LabelValues values);
  size_t named(std::string_view name, Kind kind, Labels& labels,
               std::string_view help);
  std::string_view help_of(const detail::FamilyInfo* f) const;
  void offer_help(const detail::FamilyInfo* f, std::string_view help,
                  bool held);
  std::vector<const Slot*> canonical() const;

  bool enabled_ = true;
  std::vector<Slot> slots_;  // sorted by series address
  std::vector<std::unique_ptr<HistogramMetric>> hists_;
  // Families whose help here differs from their interned default.
  std::vector<std::pair<const detail::FamilyInfo*, std::string>> helps_;
  uint64_t sink_ = 0;
  std::unique_ptr<HistogramMetric> sink_hist_;
};

template <class T>
void Cell<T>::set(T v) {
  reg_->cell(series_, slot_) = std::bit_cast<uint64_t>(v);
}
template <class T>
T Cell<T>::value() const {
  return std::bit_cast<T>(reg_->cell(series_, slot_));
}

}  // namespace sm::obs
