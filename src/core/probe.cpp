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

namespace {

const obs::Family kRuns{obs::Kind::Counter, "sm_probe_runs_total",
                        "measurements executed", {"technique"}};
const obs::Family kRunsByVerdict{obs::Kind::Counter,
                                 "sm_probe_runs_by_verdict_total",
                                 "measurements by final verdict",
                                 {"technique", "verdict"}};
const obs::Family kPacketsSent{obs::Kind::Counter,
                               "sm_probe_packets_sent_total",
                               "probe packets transmitted", {"technique"}};
const obs::Family kSamples{obs::Kind::Counter, "sm_probe_samples_total",
                           "sub-measurements taken (ports, requests, ...)",
                           {"technique"}};
const obs::Family kSamplesBlocked{obs::Kind::Counter,
                                  "sm_probe_samples_blocked_total",
                                  "sub-measurements that observed blocking",
                                  {"technique"}};

}  // namespace

ProbeReport run_probe(Testbed& tb, Probe& probe, common::Duration timeout) {
  probe.start();
  tb.run_until([&probe]() { return probe.done(); }, timeout);
  ProbeReport report = probe.report();
  obs::Registry& reg = tb.metrics();
  if (reg.enabled()) {
    const std::string_view technique = report.technique;
    reg.counter(kRuns, {technique})->inc();
    reg.counter(kRunsByVerdict, {technique, to_string(report.verdict)})->inc();
    reg.counter(kPacketsSent, {technique})->inc(report.packets_sent);
    reg.counter(kSamples, {technique})->inc(report.samples);
    reg.counter(kSamplesBlocked, {technique})->inc(report.samples_blocked);
  }
  return report;
}

}  // namespace sm::core
