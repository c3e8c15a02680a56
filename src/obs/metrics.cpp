#include "obs/metrics.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "common/strings.hpp"

namespace sm::obs {

namespace detail {

/// An interned family: one per (name, kind). Immutable once published,
/// except `twinned`.
struct FamilyInfo {
  uint32_t id = 0;
  Kind kind = Kind::Counter;
  std::string name;
  std::string help;  // the help it was interned with: registries' default
  std::atomic<bool> twinned{false};  // another kind shares the name
};

/// An interned series with its pre-rendered keys, and its family's kind
/// and default help, so a write or a render of a hot series reads no
/// FamilyInfo. Immutable.
struct Series {
  uint32_t id = 0;
  Kind kind = Kind::Counter;
  const FamilyInfo* family = nullptr;
  std::string_view help;  // the family's default help
  std::string code;  // encode() bytes of the sorted label set
  std::string key;   // Prometheus label set: k="v",...
  std::string json;  // {"name":...,"labels":{...},"kind":"...",["value":]
  std::string prom;  // name, or name{key}
};

uint32_t series_id(const Series* s) { return s ? s->id : ~0u; }

}  // namespace detail

namespace {

using detail::FamilyInfo;
using detail::Series;
using LabelView = std::pair<std::string_view, std::string_view>;

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

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    default: return "histogram";
  }
}

/// Deterministic number rendering into buf[32], returning its end.
/// Integral values render as integers; others with enough digits to
/// round-trip a double.
char* put_num(char* buf, double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)))
    return std::to_chars(buf, buf + 32, static_cast<int64_t>(v)).ptr;
  return buf + std::snprintf(buf, 32, "%.9g", v);
}

std::string num(double v) {
  char buf[32];
  return std::string(buf, put_num(buf, v));
}

// encode()'s integers are big-endian; its strings are u32 length + bytes.
// encode() builds its body in a std::string and copies it once: writing
// each integer through ByteWriter's byte-wise appends took 1.2-1.6x as
// long.
void put_be(std::string& out, uint64_t v, int bytes = 4) {
  char buf[8];
  for (int i = 0; i < bytes; ++i)
    buf[i] = static_cast<char>(v >> (8 * (bytes - 1 - i)));
  out.append(buf, static_cast<size_t>(bytes));
}

void put_str(std::string& out, std::string_view s) {
  put_be(out, s.size());
  out += s;
}

std::string_view get_str(common::ByteReader& r) {
  auto b = r.bytes(r.u32());
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// The intern key of a series: its family's id, then its sorted label
/// set as encode() writes it (u32 count, then each name and value).
/// Built in a per-thread buffer, so a lookup allocates nothing.
thread_local std::string t_key;

template <class Pairs>
std::string_view series_key(const FamilyInfo* f, const Pairs& labels) {
  t_key.clear();
  put_be(t_key, f->id);
  put_be(t_key, std::size(labels));
  for (const auto& [k, v] : labels) {
    put_str(t_key, k);
    put_str(t_key, v);
  }
  return t_key;
}

struct Hash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// The process-wide intern table. Append-only: entries never move (the
/// deques keep element addresses) and never change once published, so
/// registries read them without the lock; only lookups, inserts and
/// ranking take it. A pthread_atfork handler holds the lock across
/// fork(), so a child never inherits it held by a thread that does not
/// exist there.
class Schema {
 public:
  static Schema& get() {
    static Schema* schema = [] {
      auto* s = new Schema;  // never destroyed: outlives every registry
      pthread_atfork([] { get().mu_.lock(); }, [] { get().mu_.unlock(); },
                     [] { get().mu_.unlock(); });
      return s;
    }();
    return *schema;
  }

  const FamilyInfo* family(std::string_view name, Kind kind,
                           std::string_view help) {
    thread_local std::string key;
    key.assign(1, static_cast<char>(kind)).append(name);
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = families_index_.find(std::string_view(key));
        it != families_index_.end())
      return it->second;
    FamilyInfo& f = families_.emplace_back();
    f.id = static_cast<uint32_t>(families_.size() - 1);
    f.kind = kind;
    f.name = name;
    f.help = help;
    for (Kind other : {Kind::Counter, Kind::Gauge, Kind::Histogram}) {
      key[0] = static_cast<char>(other);
      auto it = families_index_.find(std::string_view(key));
      if (it != families_index_.end()) it->second->twinned = f.twinned = true;
    }
    key[0] = static_cast<char>(kind);
    families_index_.emplace(key, &f);
    return &f;
  }

  const Series* series(const FamilyInfo* f, std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = series_index_.find(key); it != series_index_.end())
      return it->second;
    Series& s = series_.emplace_back();
    s.id = static_cast<uint32_t>(series_.size() - 1);
    s.kind = f->kind;
    s.family = f;
    s.help = f->help;
    s.code = key.substr(4);
    s.json = "{\"name\":\"" + common::json_escape(f->name) + "\",\"labels\":{";
    common::ByteReader r(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.code.data()), s.code.size()));
    for (uint32_t i = 0, n = r.u32(); i < n; ++i) {
      std::string_view k = get_str(r), v = get_str(r);
      if (i) s.key += ',', s.json += ',';
      s.key += std::string(k) + "=\"" + escape(v) + "\"";
      s.json += "\"" + common::json_escape(k) + "\":\"" +
                common::json_escape(v) + "\"";
    }
    s.json += std::string("},\"kind\":\"") + kind_name(f->kind) + "\",";
    if (f->kind != Kind::Histogram) s.json += "\"value\":";
    s.prom = s.key.empty() ? f->name : f->name + "{" + s.key + "}";
    series_index_.emplace(key, &s);
    return &s;
  }

  /// Calls fn(rank) under the lock, where rank(s) is the place of s in
  /// the (name, labels) order of every series interned so far: sorting a
  /// registry's slots by rank puts them in canonical order.
  template <class Fn>
  void ranked(Fn fn) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ranks_.size() != series_.size()) {
      std::vector<const Series*> all;
      for (const Series& s : series_) all.push_back(&s);
      std::sort(all.begin(), all.end(), [](const Series* a, const Series* b) {
        const std::string &x = a->family->name, &y = b->family->name;
        return x != y ? x < y : a->key < b->key;
      });
      ranks_.resize(all.size());
      for (size_t r = 0; r < all.size(); ++r)
        ranks_[all[r]->id] = static_cast<uint32_t>(r);
    }
    fn([this](const Series* s) { return ranks_[s->id]; });
  }

 private:
  std::mutex mu_;
  std::deque<FamilyInfo> families_;
  std::deque<Series> series_;
  // Keyed by kind byte + name, and by series_key().
  std::unordered_map<std::string, FamilyInfo*, Hash, std::equal_to<>>
      families_index_;
  std::unordered_map<std::string, const Series*, Hash, std::equal_to<>>
      series_index_;
  std::vector<uint32_t> ranks_;  // by series id
};

}  // namespace

Family::Family(Kind kind, std::string_view name, std::string_view help,
               std::initializer_list<std::string_view> labels, Shape shape)
    : info_(Schema::get().family(name, kind, help)),
      kind_(kind),
      help_(help == info_->help ? std::string_view(info_->help) : help),
      labels_(labels),
      shape_(shape) {
  if (labels_.size() > 4 || !std::is_sorted(labels_.begin(), labels_.end()))
    throw std::invalid_argument("metric '" + std::string(name) +
                                "': label names must be sorted, at most 4");
  if (labels_.empty())
    plain_ = Schema::get().series(info_, series_key(info_, Labels{}));
}

double HistogramMetric::bin_high(size_t i) const {
  const auto& bins = hist_.bins();
  if (i + 1 >= bins.size()) return hi();  // rendered as +Inf (clamped bin)
  return lo() + (hi() - lo()) * static_cast<double>(i + 1) /
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
      double low = i == 0 ? lo() : bin_high(i - 1);
      double high = bin_high(i);
      double into = (target - static_cast<double>(prev)) /
                    static_cast<double>(bins[i]);
      return low + (high - low) * into;
    }
  }
  return hi();  // q beyond every bin (only reachable via rounding)
}

void HistogramMetric::restore(common::Histogram hist,
                              common::OnlineStats moments) {
  if (hist.lo() != lo() || hist.hi() != hi() ||
      hist.bins().size() != hist_.bins().size()) {
    throw std::invalid_argument("HistogramMetric::restore: shape mismatch");
  }
  hist_ = std::move(hist);
  moments_ = moments;
}

std::string_view Registry::help_of(const FamilyInfo* f) const {
  for (const auto& [fam, help] : helps_)
    if (fam == f) return help;
  return f->help;
}

void Registry::offer_help(const FamilyInfo* f, std::string_view help,
                          bool held) {
  // A held family keeps its help unless that is empty; a new one takes
  // the offer. Only a help that differs from the default is stored.
  auto it = std::find_if(helps_.begin(), helps_.end(),
                         [f](const auto& h) { return h.first == f; });
  const std::string_view current = it != helps_.end() ? it->second : f->help;
  if (held && (!current.empty() || help.empty())) return;
  if (help == f->help) {
    if (it != helps_.end()) helps_.erase(it);
  } else if (it != helps_.end()) {
    it->second = help;
  } else {
    helps_.emplace_back(f, help);
  }
}

size_t Registry::find(const Series* s) const {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), s, [](const Slot& a, const Series* b) {
        return std::less<const Series*>()(a.series, b);
      });
  return static_cast<size_t>(it - slots_.begin());
}

size_t Registry::slot(const Series* s, std::string_view help) {
  const size_t i = find(s);
  const bool found = i < slots_.size() && slots_[i].series == s;
  if (found && helps_.empty() && help.data() == s->help.data()) return i;
  const FamilyInfo* f = s->family;
  if (!found && f->twinned.load(std::memory_order_relaxed)) {
    for (const Slot& other : slots_) {
      if (other.series->family != f && other.series->family->name == f->name)
        throw std::invalid_argument("metric '" + f->name +
                                    "' re-registered with a different kind");
    }
  }
  if (!helps_.empty() || (help.data() != f->help.data() && help != f->help)) {
    offer_help(f, help, found || std::any_of(slots_.begin(), slots_.end(),
                                             [f](const Slot& x) {
                                               return x.series->family == f;
                                             }));
  }
  if (found) return i;
  uint64_t bits = 0;
  if (f->kind == Kind::Histogram) {
    bits = hists_.size();
    hists_.emplace_back();  // shaped by hist_at()
  }
  slots_.insert(slots_.begin() + static_cast<ptrdiff_t>(i), Slot{s, bits});
  return i;
}

uint64_t& Registry::cell(const Series* s, size_t& hint) {
  if (s == nullptr) return sink_;
  if (hint >= slots_.size() || slots_[hint].series != s) hint = find(s);
  return slots_[hint].bits;
}

HistogramMetric* Registry::hist_at(size_t i, double lo, double hi,
                                   size_t bins) {
  if (i == kSink) {
    if (!sink_hist_)
      sink_hist_ = std::make_unique<HistogramMetric>(0.0, 1.0, 1);
    return sink_hist_.get();
  }
  auto& h = hists_[slots_[i].bits];
  if (!h) {
    h = std::make_unique<HistogramMetric>(lo, hi, bins);
  } else if (h->lo() != lo || h->hi() != hi ||
             h->histogram().bins().size() != bins) {
    throw std::invalid_argument("histogram '" +
                                slots_[i].series->family->name +
                                "' re-registered with a different shape");
  }
  return h.get();
}

size_t Registry::declared(const Family& f, Kind kind, LabelValues values) {
  if (!enabled_) return kSink;
  if (f.kind_ != kind || values.size() != f.labels_.size())
    throw std::invalid_argument("metric '" + f.info_->name +
                                "' used with another kind or label count");
  if (f.plain_ != nullptr) return slot(f.plain_, f.help_);
  LabelView labels[4];
  for (size_t i = 0; i < values.size(); ++i)
    labels[i] = {f.labels_[i], values.begin()[i]};
  const std::span<const LabelView> sorted(labels, values.size());
  return slot(Schema::get().series(f.info_, series_key(f.info_, sorted)),
              f.help_);
}

size_t Registry::named(std::string_view name, Kind kind, Labels& labels,
                       std::string_view help) {
  if (!enabled_) return kSink;
  std::sort(labels.begin(), labels.end());
  const FamilyInfo* f = Schema::get().family(name, kind, help);
  return slot(Schema::get().series(f, series_key(f, labels)), help);
}

void Registry::merge(const Registry& other) {
  if (!enabled_) return;
  for (const Slot& o : other.slots_) {
    const size_t i = slot(o.series, other.helps_.empty()
                                        ? o.series->help
                                        : other.help_of(o.series->family));
    uint64_t& bits = slots_[i].bits;
    switch (o.series->kind) {
      case Kind::Counter:
        bits += o.bits;
        break;
      case Kind::Gauge:
        // Gauges add: the campaign-level value of "bytes stored" across
        // N private testbeds is their sum.
        bits = std::bit_cast<uint64_t>(std::bit_cast<double>(bits) +
                                       std::bit_cast<double>(o.bits));
        break;
      case Kind::Histogram: {
        const HistogramMetric& oh = *other.hists_[o.bits];
        hist_at(i, oh.lo(), oh.hi(), oh.histogram().bins().size())->merge(oh);
        break;
      }
    }
  }
}

void Registry::shrink_to_fit() {
  slots_.shrink_to_fit();
  hists_.shrink_to_fit();
}

std::vector<const Registry::Slot*> Registry::canonical() const {
  std::vector<uint64_t> ranked(slots_.size());  // rank << 32 | slot
  Schema::get().ranked([&](auto rank) {
    for (size_t i = 0; i < slots_.size(); ++i)
      ranked[i] = uint64_t{rank(slots_[i].series)} << 32 | i;
  });
  std::sort(ranked.begin(), ranked.end());
  std::vector<const Slot*> out(ranked.size());
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = &slots_[ranked[i] & 0xFFFFFFFFu];
  return out;
}

std::string Registry::to_json() const {
  std::string out = "{\"metrics\":[";
  out.reserve(slots_.size() * 128);
  for (const Slot* s : canonical()) {
    if (out.back() != '[') out += ',';
    out += s->series->json;
    char buf[32];
    char* end = buf;
    switch (s->series->kind) {
      case Kind::Counter:
        end = std::to_chars(buf, buf + sizeof buf, s->bits).ptr;
        break;
      case Kind::Gauge:
        end = put_num(buf, std::bit_cast<double>(s->bits));
        break;
      case Kind::Histogram: {
        const HistogramMetric& h = *hists_[s->bits];
        common::append(out, "\"count\":", h.count(), ",\"sum\":", num(h.sum()),
                       ",\"lo\":", num(h.lo()), ",\"hi\":", num(h.hi()),
                       ",\"buckets\":[");
        for (size_t c : h.histogram().bins()) {
          if (out.back() != '[') out += ',';
          common::append(out, c);
        }
        out += "]";
        break;
      }
    }
    *end++ = '}';
    out.append(buf, end);
  }
  out += "]}";
  return out;
}

void Registry::encode(common::ByteWriter& w) const {
  const std::vector<const Slot*> order = canonical();
  std::string out;
  out.reserve(order.size() * 96);
  uint32_t families = 0;
  for (size_t i = 0, end = 0; i < order.size(); i = end, ++families) {
    const FamilyInfo* f = order[i]->series->family;
    while (end < order.size() && order[end]->series->family == f) ++end;
    put_str(out, f->name);
    out += static_cast<char>(f->kind);
    put_str(out, help_of(f));
    put_be(out, end - i);
    for (size_t j = i; j < end; ++j) {
      out += order[j]->series->code;
      if (f->kind != Kind::Histogram) {
        put_be(out, order[j]->bits, 8);  // a gauge as its bit pattern
        continue;
      }
      const HistogramMetric& h = *hists_[order[j]->bits];
      const common::OnlineStats& m = h.moments();
      for (double v : {h.lo(), h.hi()})
        put_be(out, std::bit_cast<uint64_t>(v), 8);
      put_be(out, h.histogram().bins().size());
      for (size_t c : h.histogram().bins()) put_be(out, c, 8);
      put_be(out, m.count(), 8);
      for (double v : {m.mean(), m.m2(), m.min(), m.max()})
        put_be(out, std::bit_cast<uint64_t>(v), 8);
    }
  }
  w.u32(families);
  w.text(out);
}

std::unique_ptr<Registry> Registry::decode(common::ByteReader& r) {
  auto reg = std::make_unique<Registry>();
  std::vector<LabelView> labels;
  auto f64 = [&r] { return std::bit_cast<double>(r.u64()); };
  for (uint32_t f = 0, n_families = r.u32(); f < n_families && r.ok(); ++f) {
    const std::string_view name = get_str(r);
    const uint8_t kind = r.u8();
    const std::string_view help = get_str(r);
    const uint32_t n_series = r.u32();
    if (n_series == 0 || !r.ok()) continue;
    if (kind > static_cast<uint8_t>(Kind::Histogram))
      throw std::runtime_error("Registry::decode: unknown series kind");
    const FamilyInfo* fam =
        Schema::get().family(name, static_cast<Kind>(kind), help);
    for (uint32_t si = 0; si < n_series && r.ok(); ++si) {
      labels.clear();
      for (uint32_t li = 0, n = r.u32(); li < n && r.ok(); ++li) {
        std::string_view k = get_str(r);
        labels.emplace_back(k, get_str(r));
      }
      std::sort(labels.begin(), labels.end());
      const Series* s = Schema::get().series(fam, series_key(fam, labels));
      if (fam->kind != Kind::Histogram) {
        const uint64_t bits = r.u64();
        reg->slots_[reg->slot(s, help)].bits = bits;
        continue;
      }
      const double lo = f64(), hi = f64();
      std::vector<size_t> counts(std::min<size_t>(r.u32(), r.remaining() / 8));
      for (size_t& c : counts) c = static_cast<size_t>(r.u64());
      const uint64_t m_count = r.u64();
      const double mean = f64(), m2 = f64(), mn = f64(), mx = f64();
      if (!r.ok() || counts.empty()) continue;
      const size_t n_bins = counts.size();
      reg->hist_at(reg->slot(s, help), lo, hi, n_bins)
          ->restore(common::Histogram::from_parts(lo, hi, std::move(counts)),
                    common::OnlineStats::from_parts(
                        static_cast<size_t>(m_count), mean, m2, mn, mx));
    }
  }
  if (!r.ok()) throw std::runtime_error("Registry::decode: truncated buffer");
  reg->shrink_to_fit();
  return reg;
}

std::string Registry::to_prometheus() const {
  std::string out;
  const FamilyInfo* current = nullptr;
  for (const Slot* s : canonical()) {
    const Series& series = *s->series;
    const FamilyInfo& f = *series.family;
    if (&f != current) {
      current = &f;
      if (std::string_view help = help_of(&f); !help.empty())
        out += "# HELP " + f.name + " " + escape(help) + "\n";
      out += "# TYPE " + f.name + " " + kind_name(f.kind) + "\n";
    }
    if (f.kind != Kind::Histogram) {
      out += series.prom + " ";
      if (f.kind == Kind::Counter) common::append(out, s->bits);
      else out += num(std::bit_cast<double>(s->bits));
      out += "\n";
      continue;
    }
    // name + suffix, then {key,extra} when either is non-empty.
    auto line = [&](const char* suffix, const std::string& extra) {
      out += f.name + suffix;
      std::string all = series.key;
      if (!extra.empty()) all += (all.empty() ? "" : ",") + extra;
      if (!all.empty()) out += "{" + all + "}";
      out += " ";
    };
    const HistogramMetric& h = *hists_[s->bits];
    const auto& bins = h.histogram().bins();
    size_t cumulative = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
      cumulative += bins[i];
      line("_bucket", "le=\"" +
                          (i + 1 == bins.size() ? "+Inf" : num(h.bin_high(i))) +
                          "\"");
      common::append(out, cumulative, "\n");
    }
    line("_sum", "");
    out += num(h.sum()) + "\n";
    line("_count", "");
    common::append(out, h.count(), "\n");
    // Interpolated summary quantiles, so dashboards get p50/p90/p99
    // without a histogram_quantile() engine. Skipped while empty (a
    // quantile of nothing is not 0, it is undefined).
    if (h.count() == 0) continue;
    static const struct {
      const char* label;
      double q;
    } kQuantiles[] = {{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
    for (const auto& qd : kQuantiles) {
      line("", std::string("quantile=\"") + qd.label + "\"");
      out += num(h.quantile(qd.q)) + "\n";
    }
  }
  return out;
}

}  // namespace sm::obs
