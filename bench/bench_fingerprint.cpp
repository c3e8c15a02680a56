// E15 — ablation: application fingerprinting vs. implementation hygiene
// (§3.2.1 / "The Parrot is Dead" [22]).
//
// The paper concedes that a surveillance operator willing to write
// bespoke rules could fingerprint the measurement tool's implementation
// artifacts. We make that concrete: a naive scanner that allocates its
// source ports from one contiguous block is trivially fingerprintable;
// real nmap (and the hardened probe) randomizes them. The 2x2 matrix
// shows both sides — the fingerprint rule catches only the naive
// implementation, and costs the operator nothing against the hardened
// one.
#include <cstdio>

#include "analysis/report.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "report.hpp"

using namespace sm;

namespace {

struct Cell {
  core::Verdict verdict;
  bool evaded;
};

Cell run(bool fingerprint_rules, bool randomized_probe) {
  core::TestbedConfig cfg;
  cfg.policy = censor::gfc_profile();
  cfg.policy.blocked_ips.push_back(core::TestbedAddresses{}.web_blocked);
  cfg.mvr.enable_fingerprint_rules = fingerprint_rules;
  core::Testbed tb(cfg);

  core::ScanOptions opts;
  opts.target = tb.addr().web_blocked;
  opts.ports = core::top_tcp_ports(100);
  opts.expected_open = {80};
  opts.randomize_source_ports = randomized_probe;
  core::ScanProbe probe(tb, opts);
  core::ProbeReport report = core::run_probe(tb, probe);
  core::RiskReport risk = core::assess_risk(tb, "scan");
  return Cell{report.verdict, risk.evaded};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("fingerprint", argc, argv);
  std::printf("E15 — fingerprinting the scanner's implementation "
              "artifacts (paper §3.2.1 caveat)\n\n");

  analysis::Table table({"surveillance ruleset", "naive scanner "
                         "(contiguous sports)", "hardened scanner "
                         "(randomized, nmap-like)"});
  Cell naive_community = run(false, false);
  Cell hard_community = run(false, true);
  Cell naive_fp = run(true, false);
  Cell hard_fp = run(true, true);
  auto cell = [](const Cell& c) {
    return std::string(core::to_string(c.verdict)) +
           (c.evaded ? " / evaded" : " / FLAGGED");
  };
  table.add_row({"community rules only", cell(naive_community),
                 cell(hard_community)});
  table.add_row({"community + bespoke fingerprint rule", cell(naive_fp),
                 cell(hard_fp)});
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("reading: under community rules (the paper's assumption) "
              "both implementations evade;\nthe bespoke rule flags only "
              "the naive implementation — evading fingerprinting is an "
              "implementation-hygiene arms race, not a free property.\n\n");
  metrics.require("naive_evades_community_rules", naive_community.evaded);
  metrics.require("hardened_evades_community_rules", hard_community.evaded);
  metrics.require("naive_flagged_by_fingerprint_rule", !naive_fp.evaded);
  metrics.require("hardened_evades_fingerprint_rule", hard_fp.evaded);
  metrics.require("naive_still_detects_blocking",
                  naive_fp.verdict == core::Verdict::BlockedTimeout);
  return metrics.finish();
}
