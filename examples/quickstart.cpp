// Quickstart: build the reference testbed (paper Fig. 1), run one stealthy
// scanning measurement (Method #1) against a censored service, and check
// both evaluation criteria — did we detect the blocking (accuracy), and
// did the surveillance MVR log us (evasion)?
//
// With metrics and provenance enabled, the run also dumps a metrics
// snapshot (every counter the adversary-side subsystems accumulated) and
// the provenance graph as a sim-time Chrome trace you can open in
// chrome://tracing.
//
//   $ ./quickstart [metrics.json [trace.json]]
#include <cstdio>
#include <fstream>

#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const char* metrics_path =
      argc > 1 ? argv[1] : "quickstart_metrics.json";
  const char* trace_path = argc > 2 ? argv[2] : "quickstart_trace.json";

  // A GFC-style censor that also null-routes the blocked site's address.
  core::TestbedConfig config;
  config.policy = censor::gfc_profile();
  config.policy.blocked_ips.push_back(core::TestbedAddresses{}.web_blocked);
  config.enable_observability = true;
  config.enable_provenance = true;

  core::Testbed tb(config);

  // Method #1: nmap-style SYN scan of the top 100 ports. Port 80 must be
  // open on a web site; if it is not, something on the path is blocking.
  core::ScanOptions options;
  options.target = tb.addr().web_blocked;
  options.ports = core::top_tcp_ports(100);
  options.expected_open = {80};

  core::ScanProbe probe(tb, options);
  core::ProbeReport report = core::run_probe(tb, probe);

  std::printf("measurement : %s\n", report.to_string().c_str());

  core::RiskReport risk = core::assess_risk(tb, report.technique);
  std::printf("risk        : %s\n", risk.to_string().c_str());

  bool accurate = report.verdict == core::Verdict::BlockedTimeout;
  std::printf("\naccuracy: %s (expected blocked-timeout on a null-routed "
              "service)\n", accurate ? "PASS" : "FAIL");
  std::printf("evasion : %s (no targeted alert stored by the MVR)\n",
              risk.evaded ? "PASS" : "FAIL");

  // Observability export: metrics snapshot + provenance Chrome trace.
  if (std::ofstream out(metrics_path); out << tb.metrics_json()) {
    std::printf("\nmetrics : %s (%zu series)\n", metrics_path,
                tb.metrics().series_count());
  }
  const obs::ProvenanceGraph& graph = tb.provenance();
  if (std::ofstream out(trace_path); out << obs::to_chrome_json(graph)) {
    std::printf("trace   : %s (%zu events, %llu dropped) — open in "
                "chrome://tracing\n",
                trace_path, graph.size(),
                static_cast<unsigned long long>(graph.dropped()));
  }
  return accurate && risk.evaded ? 0 : 1;
}
