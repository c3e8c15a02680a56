#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/strings.hpp"

namespace sm::obs {

namespace {

/// Escapes a label value / help string for Prometheus exposition (and
/// the series key built from it), which escapes exactly backslash,
/// quote and newline. The JSON snapshot uses common::json_escape.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Deterministic number rendering. Counters are exact integers; gauges
/// render with enough digits to round-trip a double.
std::string num(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return common::format("%.9g", v);
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

std::string labels_key(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k + "=\"" + escape(v) + "\"";
  }
  return out;
}

double HistogramMetric::bin_high(size_t i) const {
  const auto& bins = hist_.bins();
  if (i + 1 >= bins.size()) return hi_;  // rendered as +Inf (clamped bin)
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) /
                   static_cast<double>(bins.size());
}

double HistogramMetric::quantile(double q) const {
  size_t total = hist_.count();
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  const auto& bins = hist_.bins();
  size_t cumulative = 0;
  for (size_t i = 0; i < bins.size(); ++i) {
    size_t prev = cumulative;
    cumulative += bins[i];
    if (static_cast<double>(cumulative) >= target && bins[i] > 0) {
      double low = i == 0 ? lo_ : bin_high(i - 1);
      double high = bin_high(i);
      double into = (target - static_cast<double>(prev)) /
                    static_cast<double>(bins[i]);
      return low + (high - low) * into;
    }
  }
  return hi_;  // q beyond every bin (only reachable via rounding)
}

void HistogramMetric::restore(common::Histogram hist,
                              common::OnlineStats moments) {
  if (hist.lo() != lo_ || hist.hi() != hi_ ||
      hist.bins().size() != hist_.bins().size()) {
    throw std::invalid_argument("HistogramMetric::restore: shape mismatch");
  }
  hist_ = std::move(hist);
  moments_ = moments;
}

Registry::Family& Registry::family(std::string_view name, Kind kind,
                                   std::string_view help) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = std::string(help);
  } else if (fam.kind != kind) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' re-registered with a different kind");
  }
  if (fam.help.empty() && !help.empty()) fam.help = std::string(help);
  return fam;
}

Registry::Series& Registry::series(Family& fam, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key = labels_key(labels);
  auto [it, inserted] = fam.series.try_emplace(std::move(key));
  if (inserted) it->second.labels = std::move(labels);
  return it->second;
}

Counter* Registry::counter(std::string_view name, Labels labels,
                           std::string_view help) {
  if (!enabled_) return &dummy_counter_;
  Series& s = series(family(name, Kind::Counter, help), std::move(labels));
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return s.counter.get();
}

Gauge* Registry::gauge(std::string_view name, Labels labels,
                       std::string_view help) {
  if (!enabled_) return &dummy_gauge_;
  Series& s = series(family(name, Kind::Gauge, help), std::move(labels));
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return s.gauge.get();
}

HistogramMetric* Registry::histogram(std::string_view name, double lo,
                                     double hi, size_t bins, Labels labels,
                                     std::string_view help) {
  if (!enabled_) return &dummy_histogram_;
  Series& s = series(family(name, Kind::Histogram, help), std::move(labels));
  if (!s.histogram) {
    s.histogram = std::make_unique<HistogramMetric>(lo, hi, bins);
  } else if (s.histogram->lo() != lo || s.histogram->hi() != hi ||
             s.histogram->histogram().bins().size() != bins) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' re-registered with a different shape");
  }
  return s.histogram.get();
}

void Registry::merge(const Registry& other) {
  if (!enabled_) return;
  for (const auto& [name, ofam] : other.families_) {
    Family& fam = family(name, ofam.kind, ofam.help);
    for (const auto& [key, os] : ofam.series) {
      Series& s = series(fam, os.labels);
      switch (ofam.kind) {
        case Kind::Counter:
          if (!s.counter) s.counter = std::make_unique<Counter>();
          s.counter->inc(os.counter->value());
          break;
        case Kind::Gauge:
          // Gauges add: the campaign-level value of "bytes stored" across
          // N private testbeds is their sum.
          if (!s.gauge) s.gauge = std::make_unique<Gauge>();
          s.gauge->add(os.gauge->value());
          break;
        case Kind::Histogram: {
          const HistogramMetric& oh = *os.histogram;
          if (!s.histogram) {
            s.histogram = std::make_unique<HistogramMetric>(
                oh.lo(), oh.hi(), oh.histogram().bins().size());
          }
          s.histogram->merge(oh);  // throws on shape mismatch
          break;
        }
      }
    }
  }
}

size_t Registry::series_count() const {
  size_t n = 0;
  for (const auto& [name, fam] : families_) n += fam.series.size();
  return n;
}

std::string Registry::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, s] : fam.series) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + common::json_escape(name) +
             "\",\"labels\":{";
      for (size_t i = 0; i < s.labels.size(); ++i) {
        if (i) out += ',';
        out += "\"" + common::json_escape(s.labels[i].first) + "\":\"" +
               common::json_escape(s.labels[i].second) + "\"";
      }
      out += "},\"kind\":\"";
      out += kind_name(static_cast<int>(fam.kind));
      out += "\",";
      switch (fam.kind) {
        case Kind::Counter:
          out += "\"value\":" + std::to_string(s.counter->value());
          break;
        case Kind::Gauge:
          out += "\"value\":" + num(s.gauge->value());
          break;
        case Kind::Histogram: {
          const auto& h = *s.histogram;
          out += "\"count\":" + std::to_string(h.count()) +
                 ",\"sum\":" + num(h.sum()) + ",\"lo\":" + num(h.lo()) +
                 ",\"hi\":" + num(h.hi()) + ",\"buckets\":[";
          const auto& bins = h.histogram().bins();
          for (size_t i = 0; i < bins.size(); ++i) {
            if (i) out += ',';
            out += std::to_string(bins[i]);
          }
          out += "]";
          break;
        }
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

namespace {

void put_str(common::ByteWriter& w, std::string_view s) {
  w.u32(static_cast<uint32_t>(s.size()));
  w.text(s);
}

std::string get_str(common::ByteReader& r) {
  uint32_t len = r.u32();
  return r.text(len);
}

void put_f64(common::ByteWriter& w, double v) {
  w.u64(std::bit_cast<uint64_t>(v));
}

double get_f64(common::ByteReader& r) {
  return std::bit_cast<double>(r.u64());
}

}  // namespace

void Registry::encode(common::ByteWriter& w) const {
  w.u32(static_cast<uint32_t>(families_.size()));
  for (const auto& [name, fam] : families_) {
    put_str(w, name);
    w.u8(static_cast<uint8_t>(fam.kind));
    put_str(w, fam.help);
    w.u32(static_cast<uint32_t>(fam.series.size()));
    for (const auto& [key, s] : fam.series) {
      w.u32(static_cast<uint32_t>(s.labels.size()));
      for (const auto& [k, v] : s.labels) {
        put_str(w, k);
        put_str(w, v);
      }
      switch (fam.kind) {
        case Kind::Counter:
          w.u64(s.counter->value());
          break;
        case Kind::Gauge:
          put_f64(w, s.gauge->value());
          break;
        case Kind::Histogram: {
          const HistogramMetric& h = *s.histogram;
          put_f64(w, h.lo());
          put_f64(w, h.hi());
          const auto& bins = h.histogram().bins();
          w.u32(static_cast<uint32_t>(bins.size()));
          for (size_t c : bins) w.u64(c);
          const common::OnlineStats& m = h.moments();
          w.u64(m.count());
          put_f64(w, m.mean());
          put_f64(w, m.m2());
          put_f64(w, m.min());
          put_f64(w, m.max());
          break;
        }
      }
    }
  }
}

std::unique_ptr<Registry> Registry::decode(common::ByteReader& r) {
  auto reg = std::make_unique<Registry>();
  uint32_t n_families = r.u32();
  for (uint32_t f = 0; f < n_families && r.ok(); ++f) {
    std::string name = get_str(r);
    auto kind = static_cast<Kind>(r.u8());
    std::string help = get_str(r);
    uint32_t n_series = r.u32();
    for (uint32_t si = 0; si < n_series && r.ok(); ++si) {
      uint32_t n_labels = r.u32();
      Labels labels;
      labels.reserve(n_labels);
      for (uint32_t li = 0; li < n_labels && r.ok(); ++li) {
        std::string k = get_str(r);
        std::string v = get_str(r);
        labels.emplace_back(std::move(k), std::move(v));
      }
      switch (kind) {
        case Kind::Counter:
          reg->counter(name, labels, help)->set(r.u64());
          break;
        case Kind::Gauge:
          reg->gauge(name, labels, help)->set(get_f64(r));
          break;
        case Kind::Histogram: {
          double lo = get_f64(r);
          double hi = get_f64(r);
          uint32_t n_bins = r.u32();
          std::vector<size_t> counts;
          counts.reserve(n_bins);
          for (uint32_t b = 0; b < n_bins && r.ok(); ++b) {
            counts.push_back(static_cast<size_t>(r.u64()));
          }
          uint64_t m_count = r.u64();
          double mean = get_f64(r);
          double m2 = get_f64(r);
          double mn = get_f64(r);
          double mx = get_f64(r);
          if (!r.ok() || counts.empty()) break;
          HistogramMetric* h =
              reg->histogram(name, lo, hi, counts.size(), labels, help);
          h->restore(common::Histogram::from_parts(lo, hi, std::move(counts)),
                     common::OnlineStats::from_parts(
                         static_cast<size_t>(m_count), mean, m2, mn, mx));
          break;
        }
        default:
          throw std::runtime_error("Registry::decode: unknown series kind");
      }
    }
  }
  if (!r.ok()) throw std::runtime_error("Registry::decode: truncated buffer");
  return reg;
}

std::string Registry::to_prometheus() const {
  std::string out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) {
      out += "# HELP " + name + " " + escape(fam.help) + "\n";
    }
    out += "# TYPE " + name + " ";
    out += kind_name(static_cast<int>(fam.kind));
    out += "\n";
    for (const auto& [key, s] : fam.series) {
      auto with_labels = [&](const std::string& suffix,
                             const std::string& extra) {
        std::string line = name + suffix;
        std::string all = key;
        if (!extra.empty()) all += (all.empty() ? "" : ",") + extra;
        if (!all.empty()) line += "{" + all + "}";
        return line;
      };
      switch (fam.kind) {
        case Kind::Counter:
          out += with_labels("", "") + " " +
                 std::to_string(s.counter->value()) + "\n";
          break;
        case Kind::Gauge:
          out += with_labels("", "") + " " + num(s.gauge->value()) + "\n";
          break;
        case Kind::Histogram: {
          const auto& h = *s.histogram;
          const auto& bins = h.histogram().bins();
          size_t cumulative = 0;
          for (size_t i = 0; i < bins.size(); ++i) {
            cumulative += bins[i];
            std::string le = i + 1 == bins.size()
                                 ? "+Inf"
                                 : num(h.bin_high(i));
            out += with_labels("_bucket", "le=\"" + le + "\"") + " " +
                   std::to_string(cumulative) + "\n";
          }
          out += with_labels("_sum", "") + " " + num(h.sum()) + "\n";
          out += with_labels("_count", "") + " " +
                 std::to_string(h.count()) + "\n";
          // Interpolated summary quantiles, so dashboards get p50/p90/
          // p99 without a histogram_quantile() engine. Skipped while
          // empty (a quantile of nothing is not 0, it is undefined).
          if (h.count() > 0) {
            static const struct {
              const char* label;
              double q;
            } kQuantiles[] = {{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
            for (const auto& qd : kQuantiles) {
              out += with_labels("",
                                 std::string("quantile=\"") + qd.label +
                                     "\"") +
                     " " + num(h.quantile(qd.q)) + "\n";
            }
          }
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace sm::obs
