#include <sys/resource.h>

#include <algorithm>

#include "packet/copy_stats.hpp"
#include "perfbench.hpp"

namespace sm::perfbench {

namespace {

double tv_seconds(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

}  // namespace

double cpu_seconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime);
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void take_copies(Counts& counts) {
  using packet::CopySite;
  counts["packet.copies.hop"] += double(packet::copies(CopySite::Hop));
  counts["packet.copies.pcap"] += double(packet::copies(CopySite::Pcap));
  counts["packet.copies.impairment"] +=
      double(packet::copies(CopySite::Impairment));
  counts["packet.copies.stream"] += double(packet::copies(CopySite::Stream));
  counts["packet.copies.defrag"] += double(packet::copies(CopySite::Defrag));
  packet::reset_copy_counters();
}

double median_rate(const std::vector<double>& work,
                   const std::vector<double>& time) {
  common::EmpiricalCdf rates;
  for (size_t i = 0; i < work.size() && i < time.size(); ++i)
    rates.add(work[i] / time[i]);
  return rates.quantile(0.5);
}

void summarize_trace(const Tracer& tracer, Report& report) {
  report.layers = tracer.layer_times();
  auto trial = report.layers.find(kTrialSpan);
  if (trial == report.layers.end() || trial->second.calls == 0) {
    report.problem("traced pass recorded no trial spans");
    return;
  }
  report.traced_trials = trial->second.calls;
  report.traced_trial_ns = trial->second.total_ns;
  // Spans nest inside their trial, so what the layers cover is the trial
  // wall minus the trial span's own self time.
  const Tracer::LayerTime& t = trial->second;
  report.metrics["trace.coverage_share"] =
      t.total_ns ? double(t.total_ns - t.self_ns) / double(t.total_ns) : 0.0;
  for (const auto& [name, time] : report.layers) {
    if (name == kTrialSpan) continue;
    report.metrics[name + "_ms"] =
        double(time.self_ns) / 1e6 / double(report.traced_trials);
  }
}

}  // namespace sm::perfbench
