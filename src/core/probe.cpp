#include "core/probe.hpp"

namespace sm::core {

Probe::Probe(Testbed& tb, std::string technique, std::string target,
             size_t samples)
    : tb_(tb) {
  report_.technique = std::move(technique);
  report_.target = std::move(target);
  report_.samples = samples;
}

void Probe::start() {
  prov_.begin(tb_.prov_sink(), now(), report_);
  launch();
}

void Probe::begin_attempt(const AttemptLadder& ladder) {
  report_.attempts = ladder.attempts();
  prov_.attempt(now(), ladder.attempts());
}

void Probe::finish(Verdict v, std::string detail, Confidence confidence,
                   std::string_view evidence) {
  if (done_) return;
  report_.verdict = v;
  report_.detail = std::move(detail);
  report_.samples_blocked = is_blocked(v) ? report_.samples : 0;
  report_.confidence = confidence;
  if (!evidence.empty())
    prov_.evidence(now(), std::string(evidence), report_.detail);
  prov_.verdict(now(), report_);
  done_ = true;
}

ProbeReport run_probe(Testbed& tb, Probe& probe, common::Duration timeout) {
  probe.start();
  tb.run_until([&probe]() { return probe.done(); }, timeout);
  ProbeReport report = probe.report();
  obs::Registry& reg = tb.metrics();
  if (reg.enabled()) {
    obs::Labels labels = {{"technique", report.technique}};
    reg.counter("sm_probe_runs_total", labels, "measurements executed")
        ->inc();
    reg.counter("sm_probe_runs_by_verdict_total",
                {{"technique", report.technique},
                 {"verdict", std::string(to_string(report.verdict))}},
                "measurements by final verdict")
        ->inc();
    reg.counter("sm_probe_packets_sent_total", labels,
                "probe packets transmitted")
        ->inc(report.packets_sent);
    reg.counter("sm_probe_samples_total", labels,
                "sub-measurements taken (ports, requests, ...)")
        ->inc(report.samples);
    reg.counter("sm_probe_samples_blocked_total", labels,
                "sub-measurements that observed blocking")
        ->inc(report.samples_blocked);
  }
  return report;
}

}  // namespace sm::core
