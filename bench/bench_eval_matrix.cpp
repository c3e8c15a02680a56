// E2 — §3.2.2 IDS evaluation: the accuracy x evasion matrix.
//
// The paper's criterion: "We declared a measurement successful if it can
// detect blocking (as controlled by our modifications to the censorship
// system) without triggering the MVR to log its traffic." We run every
// technique against five censor configurations (keyword RST injection,
// DNS forgery, IP null-route, port block, blockpage) and report, per cell:
//   verdict    — what the technique concluded
//   accurate   — did it detect the mechanism it is designed to detect
//   evaded     — zero targeted alerts stored by the MVR for the client
// Expected shape: stealthy techniques match the overt baselines on
// accuracy for their mechanisms, but only the overt baselines get logged.
//
// Every cell is independent, so the whole matrix runs through the
// campaign runner (one trial per scenario x technique, sharded across
// hardware threads); results come back in trial order, so the tables
// print exactly as the sequential version did.
// The E25 extension (dual-stack asymmetry) appends two more sections:
// the same host probed over v4 and v6 against v4-only address rules
// (the censor's family blindness measured as a verdict gap, closed by a
// dual-stack ruleset), and the v6 extension-header evasion channel (an
// ext-header-blind censor passes keyword traffic it would RST as plain
// v6, until an upstream normalizer strips the chain).
#include <cstdio>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/ping.hpp"
#include "netsim/topology.hpp"
#include "packet/packet.hpp"
#include "report.hpp"

using namespace sm;
using bench::NamedFactory;
using bench::TechniqueRun;

namespace {

/// One (technique, family) probe cell for the asymmetry table.
bench::ProbeFactory family_factory(const std::string& technique, bool v6) {
  if (technique == "ping") {
    return [v6](core::Testbed& tb) -> std::unique_ptr<core::Probe> {
      return std::make_unique<core::PingProbe>(
          tb, core::PingOptions{
                  .target = common::map_family(tb.addr().web_blocked, v6)});
    };
  }
  return [v6](core::Testbed& tb) -> std::unique_ptr<core::Probe> {
    return std::make_unique<core::SynReachabilityProbe>(
        tb, core::SynReachabilityOptions{
                .target = common::map_family(tb.addr().web_blocked, v6),
                .port = 80});
  };
}

struct ExtHeaderOutcome {
  uint64_t rsts_injected = 0;
  uint64_t blind_passes = 0;
};

/// Drives one keyword-bearing v6 segment through normalizer-router →
/// censor-router → server and reports what the censor did. The
/// normalizer sits *upstream* of the tap (taps observe before their own
/// router's transformer), which is where a real deployment would put it.
ExtHeaderOutcome ext_header_run(bool with_ext, bool with_normalizer) {
  netsim::Network net;
  net.set_link_seed_root(0x9E25);
  netsim::Router* norm = net.add_router("norm");
  netsim::Router* tapr = net.add_router("tap");
  netsim::Host* client = net.add_host("c", common::Ipv4Address(10, 0, 0, 1));
  netsim::Host* server = net.add_host("s", common::Ipv4Address(10, 9, 0, 1));
  net.connect(client, norm);
  netsim::Link* core = net.connect(norm, tapr);
  net.connect(server, tapr);
  // connect() auto-routes router→attached-host (/32 and /128); the
  // inter-router hop needs explicit routes both ways, both families.
  norm->add_route(common::Cidr(server->address(), 32),
                  core->port_of(norm));
  norm->add_route6(common::Cidr6(server->address6(), 128),
                   core->port_of(norm));
  tapr->add_route(common::Cidr(client->address(), 32),
                  core->port_of(tapr));
  tapr->add_route6(common::Cidr6(client->address6(), 128),
                   core->port_of(tapr));

  censor::CensorPolicy policy;
  policy.rst_keywords = {"falun"};  // v6_ext_header_blind defaults true
  censor::CensorTap censor(policy);
  tapr->add_tap(&censor);
  if (with_normalizer) {
    norm->set_transformer([](packet::Packet& p) {
      packet::strip_ext_headers6(p);
      return true;
    });
  }

  packet::Ipv6Options opt;
  if (with_ext) {
    opt.ext.push_back({static_cast<uint8_t>(packet::IpProto::HopByHop),
                       common::Bytes{}});
  }
  common::Bytes payload =
      common::to_bytes("GET /?q=falun HTTP/1.1\r\nHost: x\r\n\r\n");
  client->send(packet::make_tcp6(client->address6(), server->address6(),
                                 40000, 80,
                                 packet::TcpFlags::kPsh |
                                     packet::TcpFlags::kAck,
                                 1, 1, payload, opt));
  net.engine().run();
  return {censor.stats().rst_packets_injected,
          censor.stats().v6_ext_blind_passes};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("eval_matrix", argc, argv);
  std::printf("E2 — accuracy x evasion matrix (paper §3.2.2)\n\n");
  auto techniques = bench::standard_techniques();
  auto scenarios = bench::eval_matrix_configs();
  auto expected_by_scenario = bench::eval_matrix_expectations();

  // One trial per (scenario, technique) cell, all sharded at once.
  std::vector<campaign::Trial> trials;
  for (const auto& [name, config] : scenarios) {
    auto batch = bench::technique_trials(name, config, techniques);
    trials.insert(trials.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  }
  std::vector<TechniqueRun> runs = bench::run_campaign(trials);

  size_t stealthy_cells = 0, stealthy_accurate_evaded = 0;
  size_t overt_cells = 0, overt_accurate = 0, overt_logged = 0;

  for (size_t s = 0; s < scenarios.size(); ++s) {
    const auto& [scenario_name, config] = scenarios[s];
    const auto& expected = expected_by_scenario[scenario_name];
    analysis::Table table(
        {"technique", "verdict", "accurate", "evaded MVR", "noise alerts"});
    for (size_t t = 0; t < techniques.size(); ++t) {
      const NamedFactory& technique = techniques[t];
      const TechniqueRun& run = runs[s * techniques.size() + t];
      auto expected_it = expected.find(technique.name);
      std::string accurate = "n/a";
      bool is_expected_cell = expected_it != expected.end();
      bool hit = false;
      if (is_expected_cell) {
        for (core::Verdict v : expected_it->second)
          if (run.report.verdict == v) hit = true;
        accurate = hit ? "yes" : "NO";
      }
      bool overt = technique.name.rfind("overt", 0) == 0;
      if (is_expected_cell) {
        if (overt) {
          ++overt_cells;
          if (hit) ++overt_accurate;
          if (!run.risk.evaded) ++overt_logged;
        } else {
          ++stealthy_cells;
          if (hit && run.risk.evaded) ++stealthy_accurate_evaded;
        }
      }
      table.add_row({technique.name,
                     std::string(core::to_string(run.report.verdict)),
                     accurate, run.risk.evaded ? "yes" : "NO",
                     analysis::Table::num(run.risk.noise_alerts)});
    }
    std::printf("censor mechanism: %s\n%s\n", scenario_name.c_str(),
                table.to_markdown().c_str());
  }

  std::printf("summary: stealthy techniques accurate AND evasive in "
              "%zu/%zu applicable cells;\n"
              "         overt baselines accurate in %zu/%zu but logged by "
              "the MVR in %zu cells\n",
              stealthy_accurate_evaded, stealthy_cells, overt_accurate,
              overt_cells, overt_logged);

  // ---- E25 part 1: dual-stack family gap --------------------------------
  // The same service, probed over both families, against a censor whose
  // null-route rules only cover v4 — then against the dual-stack ruleset
  // that closes the gap. An "asymmetry" row is a technique whose v4 and
  // v6 verdicts disagree on the identical censor.
  std::printf("\nE25 — dual-stack asymmetry (v4-only rules vs v6 path)\n\n");
  core::TestbedAddresses addr;
  core::TestbedConfig v4only;
  v4only.policy =
      censor::dropping_profile({addr.web_blocked, addr.mail_blocked});
  core::TestbedConfig dual = v4only;
  dual.policy.blocked_ips6 = {common::map_v6(addr.web_blocked),
                              common::map_v6(addr.mail_blocked)};

  const std::vector<std::pair<std::string, core::TestbedConfig>> fam_configs =
      {{"v4-only-rules", v4only}, {"dual-stack-rules", dual}};
  const std::vector<std::string> fam_techniques = {"syn-reach", "ping"};
  std::vector<campaign::Trial> fam_trials;
  for (const auto& [cfg_name, cfg] : fam_configs) {
    for (const std::string& tech : fam_techniques) {
      for (bool v6 : {false, true}) {
        fam_trials.push_back(campaign::Trial{
            .name = cfg_name + "/" + tech + (v6 ? "-v6" : "-v4"),
            .config = cfg,
            .factory = family_factory(tech, v6)});
      }
    }
  }
  std::vector<TechniqueRun> fam_runs = bench::run_campaign(fam_trials);

  size_t v4only_asymmetries = 0, dual_asymmetries = 0;
  size_t dual_blocked_cells = 0;
  size_t cell = 0;
  for (size_t c = 0; c < fam_configs.size(); ++c) {
    analysis::Table table({"technique", "v4 verdict", "v6 verdict",
                           "asymmetry"});
    for (const std::string& tech : fam_techniques) {
      core::Verdict v4 = fam_runs[cell].report.verdict;
      core::Verdict v6 = fam_runs[cell + 1].report.verdict;
      cell += 2;
      bool asym = v4 != v6;
      if (asym) ++(c == 0 ? v4only_asymmetries : dual_asymmetries);
      if (c == 1) {
        if (v4 == core::Verdict::BlockedTimeout) ++dual_blocked_cells;
        if (v6 == core::Verdict::BlockedTimeout) ++dual_blocked_cells;
      }
      table.add_row({tech, std::string(core::to_string(v4)),
                     std::string(core::to_string(v6)),
                     asym ? "YES" : "no"});
    }
    std::printf("ruleset: %s\n%s\n", fam_configs[c].first.c_str(),
                table.to_markdown().c_str());
  }
  std::printf("family gap: %zu/%zu techniques see through the v4-only "
              "censor over v6; dual-stack rules close it (%zu asymmetries, "
              "%zu/%zu cells blocked)\n",
              v4only_asymmetries, fam_techniques.size(), dual_asymmetries,
              dual_blocked_cells, 2 * fam_techniques.size());

  // ---- E25 part 2: the extension-header evasion channel -----------------
  // Same keyword, same censor, three path configurations. The deployed-DPI
  // blindness (v6_ext_header_blind) lets an empty hop-by-hop header carry
  // the keyword past content inspection; the upstream normalizer restores
  // the RST.
  std::printf("\nE25 — v6 extension-header evasion (keyword \"falun\")\n\n");
  ExtHeaderOutcome plain = ext_header_run(false, false);
  ExtHeaderOutcome evading = ext_header_run(true, false);
  ExtHeaderOutcome normalized = ext_header_run(true, true);
  analysis::Table ext_table(
      {"path", "RSTs injected", "blind passes", "keyword caught"});
  auto ext_row = [&](const char* name, const ExtHeaderOutcome& o) {
    ext_table.add_row({name, analysis::Table::num(o.rsts_injected),
                       analysis::Table::num(o.blind_passes),
                       o.rsts_injected > 0 ? "yes" : "NO"});
  };
  ext_row("plain v6", plain);
  ext_row("hop-by-hop ext", evading);
  ext_row("hop-by-hop ext + upstream normalizer", normalized);
  std::printf("%s\n", ext_table.to_markdown().c_str());

  // E2: stealthy cells accurate and evasive, overt cells accurate but
  // logged.
  metrics.invariant("stealthy_cells_missed",
                    stealthy_cells - stealthy_accurate_evaded);
  metrics.invariant("overt_cells_inaccurate", overt_cells - overt_accurate);
  metrics.anchor("overt_cells_logged", overt_logged, "cells", 1,
                 bench::kUnbounded);
  // E25 family gap: v4-only rules leak over v6, dual-stack rules close it.
  metrics.anchor("v4_only_asymmetries", v4only_asymmetries, "techniques", 1,
                 bench::kUnbounded);
  metrics.invariant("dual_stack_asymmetries", dual_asymmetries);
  metrics.invariant("dual_stack_blocked_cells", dual_blocked_cells,
                    2 * fam_techniques.size(), "cells");
  // E25 ext-header channel: caught plain, evaded behind the header,
  // caught again behind the upstream normalizer.
  metrics.anchor("plain_v6_rsts", plain.rsts_injected, "packets", 1,
                 bench::kUnbounded);
  metrics.invariant("plain_v6_blind_passes", plain.blind_passes);
  metrics.invariant("ext_header_rsts", evading.rsts_injected);
  metrics.anchor("ext_header_blind_passes", evading.blind_passes, "packets",
                 1, bench::kUnbounded);
  metrics.anchor("normalized_rsts", normalized.rsts_injected, "packets", 1,
                 bench::kUnbounded);
  return metrics.finish();
}
