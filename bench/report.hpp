// One bench schema and one gate. Every bench in bench/ except bench_micro
// (E9's google-benchmark run) records what it checks as metrics here, and
// finish() alone decides pass/fail and writes the JSON:
//
//   {"bench": NAME, "schema": 1,
//    "env": {"hw_concurrency": N, "smoke": BOOL},
//    "metrics": [{"name", "value", "unit",
//                 "kind": "anchor" | "invariant" | "contrast",
//                 "better": "higher" | "lower",
//                 "band": [LO, HI],   anchors and invariants (null = open)
//                 "floor": F}]}       contrasts that have one
//
// A metric passes when:
//   - an anchor (a paper number or plausibility range) or an invariant
//     (an exact value: a violation count, a byte-identity flag; a band
//     of one value) lies inside its closed band;
//   - a contrast (a self-normalized ratio such as a speedup) is at or
//     beyond its floor in its better direction, and, when the checked-in
//     BENCH_<bench>.json at the source root holds the same contrast, is
//     at least kBaselineRatio x that baseline in its better direction.
//
// Every bench takes `[OUT] [--smoke]`. OUT defaults to BENCH_<bench>.json
// in the working directory; it may be the baseline itself, which finish()
// reads before writing. Exit status: 0 all metrics pass, 1 a metric
// failed, 2 OUT could not be written.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace sm::bench {

/// A contrast fails below this fraction of its checked-in baseline.
inline constexpr double kBaselineRatio = 0.8;
/// An open band edge.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();
/// Closed-band edges for strict comparisons: the nearest double past `x`.
inline double above(double x) { return std::nextafter(x, kUnbounded); }
inline double below(double x) { return std::nextafter(x, -kUnbounded); }

enum class Kind { Anchor, Invariant, Contrast };
enum class Better { Higher, Lower };

class Report {
 public:
  /// Parses `[OUT] [--smoke]`; the baseline is BENCH_<bench>.json in
  /// `baseline_dir` (the source root for the bench binaries).
  Report(std::string bench, int argc, char** argv,
         std::string baseline_dir = SM_SOURCE_DIR)
      : bench_(std::move(bench)),
        out_path_("BENCH_" + bench_ + ".json"),
        baseline_path_(baseline_dir + "/BENCH_" + bench_ + ".json") {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--smoke")
        smoke_ = true;
      else
        out_path_ = argv[i];
    }
  }

  bool smoke() const { return smoke_; }
  const std::string& out_path() const { return out_path_; }

  /// Passes inside [lo, hi]; kUnbounded (either sign) opens a side.
  void anchor(std::string name, double value, std::string unit, double lo,
              double hi, Better better = Better::Higher) {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        Kind::Anchor, better, lo, hi, std::nullopt});
  }
  /// Passes when `value` equals `expected`.
  void invariant(std::string name, double value, double expected = 0,
                 std::string unit = "count") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        Kind::Invariant,
                        expected == 0 ? Better::Lower : Better::Higher,
                        expected, expected, std::nullopt});
  }
  /// An invariant over a flag that must hold.
  void require(std::string name, bool holds) {
    invariant(std::move(name), holds ? 1 : 0, 1, "bool");
  }
  /// Passes at or beyond `floor` (if any) and within kBaselineRatio of
  /// the checked-in baseline (if it holds this contrast).
  void contrast(std::string name, double value, std::optional<double> floor,
                Better better = Better::Higher, std::string unit = "x") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        Kind::Contrast, better, -kUnbounded, kUnbounded,
                        floor});
  }

  /// Gates every metric (one line each on stdout), writes OUT, and
  /// returns the exit status.
  int finish() const {
    const std::map<std::string, double> baseline = read_baseline();
    size_t failed = 0;
    common::Json list = common::Json::array();
    for (const Metric& m : metrics_) {
      std::string why;
      bool pass = std::isfinite(m.value);
      if (m.kind != Kind::Contrast) {
        pass = pass && m.lo <= m.value && m.value <= m.hi;
        why = m.lo == m.hi ? "== " + num(m.lo)
                           : "in [" + num(m.lo) + ", " + num(m.hi) + "]";
      } else {
        if (m.floor) {
          pass = pass && (m.better == Better::Higher ? m.value >= *m.floor
                                                     : m.value <= *m.floor);
          why = "floor " + num(*m.floor);
        }
        auto base = baseline.find(m.name);
        if (base != baseline.end() && base->second > 0) {
          double ratio = m.better == Better::Higher
                             ? m.value / base->second
                             : base->second / m.value;
          pass = pass && ratio >= kBaselineRatio;
          why += (why.empty() ? "" : ", ") + std::string("baseline ") +
                 num(base->second) + " (" + num(ratio) + "x, min " +
                 num(kBaselineRatio) + ")";
        }
      }
      if (!pass) ++failed;
      std::printf("  %s %-9s %-34s %12s%s%s\n", pass ? "PASS" : "FAIL",
                  kind_name(m.kind), m.name.c_str(), num(m.value).c_str(),
                  why.empty() ? "" : " ", why.c_str());
      list.push_back(to_json(m));
    }

    common::Json env = common::Json::object();
    env.set("hw_concurrency",
            common::Json::integer(std::thread::hardware_concurrency()));
    env.set("smoke", common::Json::boolean(smoke_));
    common::Json doc = common::Json::object();
    doc.set("bench", common::Json::string(bench_));
    doc.set("schema", common::Json::integer(1));
    doc.set("env", std::move(env));
    doc.set("metrics", std::move(list));
    std::ofstream out(out_path_);
    out << doc.pretty(2);
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path_.c_str());
      return 2;
    }
    std::printf("%s: %zu/%zu metrics pass -> %s: %s\n", bench_.c_str(),
                metrics_.size() - failed, metrics_.size(), out_path_.c_str(),
                failed ? "FAIL" : "PASS");
    return failed ? 1 : 0;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
    Better better;
    double lo, hi;  // the band; contrasts keep it open
    std::optional<double> floor;
  };

  static const char* kind_name(Kind kind) {
    switch (kind) {
      case Kind::Anchor: return "anchor";
      case Kind::Invariant: return "invariant";
      case Kind::Contrast: return "contrast";
    }
    return "";
  }
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }
  static common::Json number_or_null(double v) {
    return std::isfinite(v) ? common::Json::number(v) : common::Json::null();
  }

  static common::Json to_json(const Metric& m) {
    common::Json j = common::Json::object();
    j.set("name", common::Json::string(m.name));
    j.set("value", number_or_null(m.value));
    j.set("unit", common::Json::string(m.unit));
    j.set("kind", common::Json::string(kind_name(m.kind)));
    j.set("better", common::Json::string(
                        m.better == Better::Higher ? "higher" : "lower"));
    if (m.kind != Kind::Contrast) {
      common::Json band = common::Json::array();
      band.push_back(number_or_null(m.lo));
      band.push_back(number_or_null(m.hi));
      j.set("band", std::move(band));
    }
    if (m.floor) j.set("floor", common::Json::number(*m.floor));
    return j;
  }

  /// Contrast values of the checked-in baseline, by name; empty when the
  /// file is absent or unreadable.
  std::map<std::string, double> read_baseline() const {
    std::map<std::string, double> out;
    std::ifstream in(baseline_path_);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<common::Json> doc = common::Json::parse(text.str());
    const common::Json* list = doc ? doc->get("metrics") : nullptr;
    if (list == nullptr) return out;
    for (const common::Json& m : list->items()) {
      const common::Json* kind = m.get("kind");
      const common::Json* name = m.get("name");
      const common::Json* value = m.get("value");
      if (kind && name && value && kind->as_string() == "contrast")
        out[name->as_string()] = value->as_double();
    }
    return out;
  }

  std::string bench_;
  std::string out_path_;
  std::string baseline_path_;
  bool smoke_ = false;
  std::vector<Metric> metrics_;
};

}  // namespace sm::bench
