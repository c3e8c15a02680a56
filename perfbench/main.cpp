// sm_perfbench: the repository benchmark's program.
//
//   sm_perfbench --workload synthetic|eval_matrix|simcheck|population
//                --seed N --seconds S --trace 0|1 [--size full|tiny]
//                [--spans PATH]
//
// Runs one workload closed-loop for S seconds, checks its outputs, and
// prints a human-readable summary followed by one JSON line:
//   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// traced pass of S more seconds follows the untraced one and the metrics
// are the per-layer set. Metric names match BENCHMARK.json.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

using namespace sm::perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"trials_per_s", "trials/s"}, {"trial_ms_p50", "ms"},
    {"hops_per_cpu_s", "hops/CPU-s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.testbed_build_ms", "ms"},
    {"core.testbed_teardown_ms", "ms"},
    {"core.run_probe_ms", "ms"},
    {"core.drain_ms", "ms"},
    {"core.risk_ms", "ms"},
    {"core.export_ms", "ms"},
    {"campaign.merge_ms", "ms"},
    {"campaign.to_jsonl_ms", "ms"},
    {"campaign.pool_idle_share", "fraction"},
    {"simcheck.generate_ms", "ms"},
    {"simcheck.scenario_ms", "ms"},
    {"simcheck.packets_checked", "count"},
    {"netsim.events", "count"},
    {"netsim.hops", "count"},
    {"netsim.ns_per_event", "ns"},
    {"netsim.link_drops", "count"},
    {"netsim.fastpath_share", "fraction"},
    {"netsim.ns_per_hop_excl_mvr", "ns"},
    {"netsim.asgen_s", "s"},
    {"netsim.bgtraffic_start_s", "s"},
    {"surveillance.mvr_ns_per_packet", "ns"},
    {"surveillance.mvr_share", "fraction"},
    {"surveillance.packets", "count"},
    {"surveillance.alerts", "count"},
    {"censor.packets", "count"},
    {"censor.injections", "count"},
    {"ids.censor_fastpath_candidates", "count"},
    {"ids.censor_payload_scans", "count"},
    {"ids.mvr_payload_scans", "count"},
    {"proto.tcp_segments", "count"},
    {"packet.copies.hop", "count"},
    {"packet.copies.pcap", "count"},
    {"packet.copies.impairment", "count"},
    {"packet.copies.stream", "count"},
    {"packet.copies.defrag", "count"},
    {"obs.provenance_events", "count"},
    {"trace.coverage_share", "fraction"},
    {"trace.overhead_share", "fraction"},
};

std::string number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sm_perfbench: %s\nusage: sm_perfbench --workload "
               "synthetic|eval_matrix|simcheck|population --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--spans PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size: full|tiny");
        opt.tiny = value == "tiny";
      } else if (flag == "--spans") {
        opt.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return opt;
}

void print_layer_table(const Report& report) {
  std::printf("\nlayer table (traced pass, %zu trials; self time per trial)\n",
              report.traced_trials);
  std::printf("  %-32s %14s %10s %10s\n", "span", "self ms", "share",
              "calls/trial");
  double trials = double(report.traced_trials);
  double trial_ns = double(report.traced_trial_ns);
  for (const auto& [name, t] : report.layers) {
    std::printf("  %-32s %14.6f %9.2f%% %10.4g\n", name.c_str(),
                double(t.self_ns) / 1e6 / trials,
                100.0 * double(t.self_ns) / trial_ns,
                double(t.calls) / trials);
  }
  auto get = [&](const char* name) {
    auto it = report.metrics.find(name);
    return it == report.metrics.end() ? 0.0 : it->second;
  };
  std::printf("  coverage %.2f%% of trial wall; tracing overhead %.2f%% "
              "(hops per CPU-second, traced vs untraced)\n",
              100.0 * get("trace.coverage_share"),
              100.0 * get("trace.overhead_share"));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  Report report;
  try {
    if (opt.workload == "synthetic") {
      run_synthetic(opt, report);
    } else if (opt.workload == "eval_matrix") {
      run_eval_matrix(opt, report);
    } else if (opt.workload == "simcheck") {
      run_simcheck(opt, report);
    } else if (opt.workload == "population") {
      run_population(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sm_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d  size %s\n",
              opt.workload.c_str(), (unsigned long long)opt.seed,
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full");
  // p99 is shown, not reported: on a shared machine it follows stalls of
  // the host more than the program (see perfbench/README.md).
  const sm::common::EmpiricalCdf& walls = report.walls_ms;
  std::printf("trials timed %zu; trial ms min %.4g q1 %.4g median %.4g "
              "q3 %.4g p99 %.4g max %.4g\n",
              walls.count(), walls.quantile(0), walls.quantile(0.25),
              walls.quantile(0.5), walls.quantile(0.75), walls.quantile(0.99),
              walls.quantile(1));
  std::printf("error_rate %g (%zu failed / %zu attempted)\n",
              report.attempted ? double(report.failed) / report.attempted : 0.0,
              report.failed, report.attempted);
  std::printf("digest %08x\n", unsigned(report.digest));
  if (opt.trace)
    std::printf("traced_digest %08x\n", unsigned(report.traced_digest));
  for (const MetricDef& m : kEndToEnd) {
    auto it = report.metrics.find(m.name);
    std::printf("  %-16s %16s %s\n", m.name,
                it == report.metrics.end() ? "-" : number(it->second).c_str(),
                m.unit);
  }
  if (opt.trace) print_layer_table(report);

  std::string metrics;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    auto it = report.metrics.find(m.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!opt.trace) {
      report.problem(std::string("end-to-end metric not measured: ") + m.name);
    }
    if (!std::isfinite(value)) {
      report.problem(std::string("metric is not finite: ") + m.name);
      value = 0.0;
    }
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name, number(value).c_str(),
                  m.unit);
    metrics += entry;
  }
  std::set<std::string> problems(report.problems.begin(),
                                 report.problems.end());
  for (const std::string& p : problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  bool correct = problems.empty() && report.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  return 0;
}
