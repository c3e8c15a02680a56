// Deterministic metrics registry: named + labeled counters, gauges, and
// histograms, snapshot-able to JSON and Prometheus text exposition.
//
// The simulator's whole argument rests on counting what the adversary
// sees (alerts stored, probes RSTed, bytes retained), so those counts
// need one common, machine-readable export path. Everything here is
// deterministic: series are held in ordered maps keyed by (name, sorted
// labels), values come only from simulation state, and no wall-clock or
// address-dependent data ever enters a snapshot — two runs with the same
// seed serialize byte-identically.
//
// Instrumentation is pull-model where it matters: hot subsystems keep
// their existing cheap struct counters (ids::Engine::Stats, Router::
// Counters, ...) and bridge them into the registry only at snapshot
// time via their export_metrics() methods, so a disabled registry costs
// the hot paths nothing at all.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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

/// Monotonically increasing count. `set()` exists for the pull-model
/// bridges, which copy an already-cumulative subsystem counter into the
/// registry at snapshot time.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  void set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time value (queue depth, retained fraction, store bytes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bin distribution over [lo, hi) (out-of-range observations clamp
/// to the edge bins, matching common::Histogram), with running moments.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins)
      : lo_(lo), hi_(hi), hist_(lo, hi, bins) {}

  void observe(double x) {
    hist_.add(x);
    moments_.add(x);
  }

  /// Drops all observations (shape kept). Pull-model bridges that rebuild
  /// a distribution from current state (e.g. per-dossier scores) call
  /// this first so repeated snapshots stay idempotent.
  void reset() {
    hist_ = common::Histogram(lo_, hi_, hist_.bins().size());
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
  double lo() const { return lo_; }
  double hi() const { return hi_; }
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
  double lo_, hi_;
  common::Histogram hist_;
  common::OnlineStats moments_;
};

/// The registry. Series accessors return stable pointers that stay valid
/// for the registry's lifetime, so call sites can cache them. Re-using a
/// metric name with a different kind or histogram shape throws
/// std::invalid_argument (programmer error).
///
/// A disabled registry hands out shared dummy series instead: writes go
/// to a sink nobody reads and snapshots are empty, so "observability
/// off" needs no branches at the instrumentation sites.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  Counter* counter(std::string_view name, Labels labels = {},
                   std::string_view help = "");
  Gauge* gauge(std::string_view name, Labels labels = {},
               std::string_view help = "");
  HistogramMetric* histogram(std::string_view name, double lo, double hi,
                             size_t bins, Labels labels = {},
                             std::string_view help = "");

  /// Number of registered (name, labels) series.
  size_t series_count() const;

  /// Folds every series of `other` into this registry: counters and
  /// gauges add, histograms merge() bin-wise; series missing here are
  /// created with `other`'s shape and help text. The campaign runner
  /// uses this to combine per-worker registries — merging the same
  /// snapshots in the same order yields byte-identical to_json()
  /// regardless of how many workers produced them. A family or series
  /// that already exists is found by `other`'s canonical keys without
  /// allocating; only a miss builds strings. Throws
  /// std::invalid_argument on a kind or histogram-shape conflict.
  /// A disabled registry ignores the call (snapshots stay empty).
  void merge(const Registry& other);

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
  enum class Kind { Counter, Gauge, Histogram };

  struct Series {
    Labels labels;  // sorted by key
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  // Transparent comparators: lookups by string_view or by another
  // registry's key never build a temporary std::string.
  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    // Keyed by canonical label string (labels_key of the sorted labels).
    std::map<std::string, Series, std::less<>> series;
  };

  Family& family(std::string_view name, Kind kind, std::string_view help);
  Series& series(Family& fam, Labels labels);

  bool enabled_ = true;
  std::map<std::string, Family, std::less<>> families_;
  // Shared sinks handed out while disabled.
  Counter dummy_counter_;
  Gauge dummy_gauge_;
  HistogramMetric dummy_histogram_{0.0, 1.0, 1};
};

/// Canonical `k="v",k2="v2"` rendering of a sorted label set (empty
/// string for no labels). Exposed for tests.
std::string labels_key(const Labels& labels);

}  // namespace sm::obs
