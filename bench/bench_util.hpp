// Shared helpers for the experiment benches: run a technique x config
// matrix through the campaign runner and collect both the measurement
// report and the risk report of every cell.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "campaign/campaign.hpp"
#include "core/ddos.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "core/spam.hpp"
#include "core/synprobe.hpp"

namespace sm::bench {

struct TechniqueRun {
  core::ProbeReport report;
  core::RiskReport risk;
};

/// Builds a probe bound to the given testbed.
using ProbeFactory = campaign::ProbeFactory;

/// The standard technique suite, in presentation order.
struct NamedFactory {
  std::string name;
  ProbeFactory factory;
};

inline std::vector<NamedFactory> standard_techniques() {
  std::vector<NamedFactory> out;
  out.push_back({"overt-dns", [](core::Testbed& tb) {
                   return std::make_unique<core::OvertDnsProbe>(
                       tb, core::OvertDnsOptions{.domain = "twitter.com"});
                 }});
  out.push_back({"overt-http", [](core::Testbed& tb) {
                   return std::make_unique<core::OvertHttpProbe>(
                       tb,
                       core::OvertHttpOptions{.domain = "blocked.example"});
                 }});
  out.push_back({"scan", [](core::Testbed& tb) {
                   core::ScanOptions opts;
                   opts.target = tb.addr().web_blocked;
                   opts.ports = core::top_tcp_ports(100);
                   opts.expected_open = {80};
                   return std::make_unique<core::ScanProbe>(tb, opts);
                 }});
  out.push_back({"syn-reach", [](core::Testbed& tb) {
                   return std::make_unique<core::SynReachabilityProbe>(
                       tb, core::SynReachabilityOptions{
                               .target = tb.addr().web_blocked,
                               .port = 80,
                               .cover_count = 5});
                 }});
  out.push_back({"spam", [](core::Testbed& tb) {
                   return std::make_unique<core::SpamProbe>(
                       tb, core::SpamOptions{.domain = "blocked.example"});
                 }});
  out.push_back({"ddos", [](core::Testbed& tb) {
                   return std::make_unique<core::DdosProbe>(
                       tb, core::DdosOptions{.domain = "blocked.example",
                                             .requests = 15});
                 }});
  out.push_back({"mimicry-dns", [](core::Testbed& tb) {
                   return std::make_unique<core::StatelessDnsMimicryProbe>(
                       tb, core::StatelessMimicryOptions{
                               .domain = "twitter.com", .cover_count = 10});
                 }});
  out.push_back({"mimicry-stateful", [](core::Testbed& tb) {
                   return std::make_unique<core::StatefulMimicryProbe>(
                       tb, core::StatefulMimicryOptions{
                               .path = "/search?q=falun",
                               .cover_flows = 10});
                 }});
  return out;
}

/// The five censor mechanisms of the E2 evaluation matrix, by name —
/// shared between bench_eval_matrix (which attaches per-technique
/// expectations) and bench_campaign_scaling (which uses the matrix as its
/// workload).
inline std::vector<std::pair<std::string, core::TestbedConfig>>
eval_matrix_configs() {
  core::TestbedAddresses addr;
  std::vector<std::pair<std::string, core::TestbedConfig>> out;
  {
    core::TestbedConfig c;
    c.policy = censor::gfc_profile();
    c.policy.dns_forgeries.clear();  // isolate the mechanism
    out.emplace_back("keyword-rst", c);
  }
  {
    core::TestbedConfig c;
    c.policy = censor::gfc_profile();
    c.policy.rst_keywords.clear();
    out.emplace_back("dns-forgery", c);
  }
  {
    core::TestbedConfig c;
    c.policy =
        censor::dropping_profile({addr.web_blocked, addr.mail_blocked});
    out.emplace_back("ip-null-route", c);
  }
  {
    core::TestbedConfig c;
    c.policy = censor::dropping_profile({}, {{addr.web_blocked, 80}});
    out.emplace_back("port-block-80", c);
  }
  {
    core::TestbedConfig c;
    c.policy = censor::CensorPolicy{};
    c.policy.blockpage_keywords = {"blocked.example"};
    out.emplace_back("blockpage-injection", c);
  }
  return out;
}

/// Which verdicts count as "detected the configured blocking" per
/// technique, keyed by scenario name (missing entry = technique is not
/// expected to detect this mechanism). Shared between bench_eval_matrix
/// (E2, the accuracy x evasion matrix) and bench_impairment (E19, which
/// re-checks the same expectations at 0% loss before sweeping loss).
inline std::map<std::string,
                std::map<std::string, std::vector<core::Verdict>>>
eval_matrix_expectations() {
  using core::Verdict;
  return {
      {"keyword-rst",
       {
           {"overt-http", {Verdict::BlockedRst}},
           {"ddos", {Verdict::BlockedRst}},
           {"mimicry-stateful", {Verdict::BlockedRst}},
       }},
      {"dns-forgery",
       {
           {"overt-dns", {Verdict::BlockedDnsForgery}},
           {"mimicry-dns", {Verdict::BlockedDnsForgery}},
       }},
      {"ip-null-route",
       {
           {"overt-http", {Verdict::BlockedTimeout}},
           {"scan", {Verdict::BlockedTimeout}},
           {"syn-reach", {Verdict::BlockedTimeout}},
           {"spam", {Verdict::BlockedTimeout}},
           {"ddos", {Verdict::BlockedTimeout}},
       }},
      {"port-block-80",
       {
           {"overt-http", {Verdict::BlockedTimeout}},
           {"scan", {Verdict::BlockedTimeout}},
           {"syn-reach", {Verdict::BlockedTimeout}},
           {"ddos", {Verdict::BlockedTimeout}},
       }},
      {"blockpage-injection",
       {
           {"overt-http", {Verdict::BlockedBlockpage}},
           {"ddos", {Verdict::BlockedBlockpage}},
       }},
  };
}

/// Builds one campaign Trial per technique for a single censor config;
/// trial names are "<config_name>/<technique>".
inline std::vector<campaign::Trial> technique_trials(
    const std::string& config_name, const core::TestbedConfig& config,
    const std::vector<NamedFactory>& techniques) {
  std::vector<campaign::Trial> out;
  out.reserve(techniques.size());
  for (const NamedFactory& technique : techniques) {
    out.push_back(campaign::Trial{
        .name = config_name.empty() ? technique.name
                                    : config_name + "/" + technique.name,
        .config = config,
        .factory = technique.factory});
  }
  return out;
}

/// Runs a trial list through the campaign runner and hands the results
/// back in trial order as TechniqueRuns. A failed trial keeps its default
/// (Inconclusive, not-evaded) run, so shape checks fail loudly rather
/// than crash.
inline std::vector<TechniqueRun> run_campaign(
    const std::vector<campaign::Trial>& trials, size_t threads = 0) {
  campaign::CampaignOptions options;
  options.threads = threads;
  campaign::CampaignResult result = campaign::run(trials, options);
  std::vector<TechniqueRun> out(result.trials.size());
  for (const campaign::TrialResult& t : result.trials) {
    if (t.failed) {
      std::fprintf(stderr, "!!! trial %zu (%s) failed: %s\n", t.index,
                   t.name.c_str(), t.error.c_str());
      continue;
    }
    out[t.index] = TechniqueRun{t.report, t.risk};
  }
  return out;
}

}  // namespace sm::bench
