// E19 — verdict robustness under network impairment.
//
// The safety argument of the paper assumes the measurement can tell
// "censored" from "bad network". This bench quantifies that boundary:
//
//   Part A  At 0% loss the technique x censor matrix must reproduce the
//           E2 expectations exactly — the impairment layer and the
//           retry/confidence machinery must be invisible when idle.
//   Part B  Uncensored policy, loss grid (iid 0/0.05/0.10/0.20 plus a
//           bursty Gilbert-Elliott variant) x retry-enabled techniques
//           x K seeded trials. Reports the false-verdict curve; the
//           gate: up to the documented ceiling (20% iid loss, and
//           degrading bursts on top of 10%), retry-enabled probes
//           conclude Blocked *zero* times on an open path. Inconclusive
//           is honesty, not failure.
//   Part C  The ladder must not hide real censorship: a null-route
//           censor at ceiling loss must still be concluded Blocked by
//           every retry-enabled probe (no Open conclusions).
//
// The documented out-of-scope regime: blackhole bursts (loss_bad = 1.0)
// on links carrying only the probe's own packets. The GE chain is
// packet-clocked, so such a burst never heals with time — within any
// finite retry ladder it is provably indistinguishable from a dropping
// censor (see DESIGN.md §9).
//
// Emits a table per part on stdout (part B's is the false-verdict curve)
// and gates each part through bench::Report.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/ping.hpp"
#include "report.hpp"

using namespace sm;
using bench::NamedFactory;
using bench::TechniqueRun;

namespace {

constexpr double kCeilingLoss = 0.20;  // documented iid-loss ceiling
constexpr size_t kTrialsPerCell = 3;   // seeded repeats per (level, tech)

struct Level {
  std::string name;
  double iid = 0.0;
  bool burst = false;
};

std::vector<Level> loss_levels() {
  return {{"iid-0.00", 0.0, false},
          {"iid-0.05", 0.05, false},
          {"iid-0.10", 0.10, false},
          {"iid-0.20", kCeilingLoss, false},
          {"burst-0.10", 0.10, true}};
}

void impair(core::TestbedConfig& cfg, const Level& level) {
  cfg.client_link.loss_rate = level.iid;
  if (level.burst) {
    // Degrading (not blackhole) bursts: mean length 4 packets, 80% loss
    // inside a burst — the strongest regime the retry ladder still
    // covers (see header comment).
    cfg.client_link.impairment.burst.p_enter = 0.05;
    cfg.client_link.impairment.burst.loss_bad = 0.8;
  }
}

/// The retry-enabled technique suite: every probe with a silence-shaped
/// failure mode, pointed at an *open* service, with its ladder sized for
/// the ceiling (DNS retries ride on TestbedConfig::dns_retries).
std::vector<NamedFactory> retry_techniques(bool blocked_target) {
  std::vector<NamedFactory> out;
  out.push_back({"syn-reach", [blocked_target](core::Testbed& tb) {
                   return std::make_unique<core::SynReachabilityProbe>(
                       tb, core::SynReachabilityOptions{
                               .target = blocked_target
                                             ? tb.addr().web_blocked
                                             : tb.addr().web_open,
                               .port = 80,
                               .retry = {.max_attempts = 8}});
                 }});
  out.push_back({"scan", [blocked_target](core::Testbed& tb) {
                   core::ScanOptions opts;
                   opts.target = blocked_target ? tb.addr().web_blocked
                                                : tb.addr().web_open;
                   opts.ports = {80};
                   opts.expected_open = {80};
                   opts.retry = {.max_attempts = 6};
                   return std::make_unique<core::ScanProbe>(tb, opts);
                 }});
  out.push_back({"ping", [blocked_target](core::Testbed& tb) {
                   return std::make_unique<core::PingProbe>(
                       tb, core::PingOptions{
                               .target = blocked_target
                                             ? tb.addr().web_blocked
                                             : tb.addr().web_open,
                               .retry = {.max_attempts = 4}});
                 }});
  if (!blocked_target) {
    out.push_back({"overt-dns", [](core::Testbed& tb) {
                     return std::make_unique<core::OvertDnsProbe>(
                         tb,
                         core::OvertDnsOptions{.domain = "twitter.com"});
                   }});
    out.push_back({"spam", [](core::Testbed& tb) {
                     return std::make_unique<core::SpamProbe>(
                         tb, core::SpamOptions{.domain = "open.example",
                                               .retry = {.max_attempts = 3}});
                   }});
    out.push_back({"ddos", [](core::Testbed& tb) {
                     return std::make_unique<core::DdosProbe>(
                         tb, core::DdosOptions{.domain = "open.example",
                                               .requests = 10,
                                               .retry = {.max_attempts = 3}});
                   }});
  }
  return out;
}

struct CellTally {
  size_t open = 0, blocked = 0, inconclusive = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("impairment", argc, argv);
  std::printf("E19 — verdict robustness under impairment "
              "(loss x technique, ceiling %.0f%%)\n\n",
              kCeilingLoss * 100);

  // --- Part A: 0% loss reproduces the E2 verdict expectations ----------
  auto techniques = bench::standard_techniques();
  auto scenarios = bench::eval_matrix_configs();
  auto expected_by_scenario = bench::eval_matrix_expectations();
  std::vector<campaign::Trial> a_trials;
  for (const auto& [name, config] : scenarios) {
    auto batch = bench::technique_trials(name, config, techniques);
    a_trials.insert(a_trials.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
  }
  std::vector<TechniqueRun> a_runs = bench::run_campaign(a_trials);
  size_t a_cells = 0, a_hits = 0;
  for (size_t s = 0; s < scenarios.size(); ++s) {
    const auto& expected = expected_by_scenario[scenarios[s].first];
    for (size_t t = 0; t < techniques.size(); ++t) {
      auto it = expected.find(techniques[t].name);
      if (it == expected.end()) continue;
      ++a_cells;
      const TechniqueRun& run = a_runs[s * techniques.size() + t];
      bool hit = false;
      for (core::Verdict v : it->second)
        if (run.report.verdict == v) hit = true;
      if (hit) {
        ++a_hits;
      } else {
        std::printf("  A-MISS %s/%s: got %s\n", scenarios[s].first.c_str(),
                    techniques[t].name.c_str(),
                    std::string(core::to_string(run.report.verdict))
                        .c_str());
      }
    }
  }
  std::printf("\n");

  // --- Part B: false-verdict curve on an uncensored lossy path ---------
  auto levels = loss_levels();
  auto open_techniques = retry_techniques(/*blocked_target=*/false);
  std::vector<campaign::Trial> b_trials;
  for (const Level& level : levels) {
    core::TestbedConfig cfg;
    cfg.policy = censor::CensorPolicy{};
    cfg.dns_retries = 6;
    impair(cfg, level);
    for (const NamedFactory& tech : open_techniques) {
      for (size_t k = 0; k < kTrialsPerCell; ++k) {
        b_trials.push_back(campaign::Trial{
            .name = level.name + "/" + tech.name + "#" + std::to_string(k),
            .config = cfg,
            .factory = tech.factory});
      }
    }
  }
  std::vector<TechniqueRun> b_runs = bench::run_campaign(b_trials);

  std::vector<std::vector<CellTally>> curve(
      levels.size(), std::vector<CellTally>(open_techniques.size()));
  size_t idx = 0, false_blocked_total = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    for (size_t t = 0; t < open_techniques.size(); ++t) {
      for (size_t k = 0; k < kTrialsPerCell; ++k, ++idx) {
        CellTally& cell = curve[l][t];
        switch (b_runs[idx].report.confidence.conclusion) {
          case core::Conclusion::Open: ++cell.open; break;
          case core::Conclusion::Blocked:
            ++cell.blocked;
            ++false_blocked_total;
            std::printf("  B-FALSE-BLOCKED %s: %s\n",
                        b_trials[idx].name.c_str(),
                        b_runs[idx].report.to_string().c_str());
            break;
          case core::Conclusion::Inconclusive: ++cell.inconclusive; break;
        }
      }
    }
  }
  {
    std::vector<std::string> header = {"loss level"};
    for (const auto& t : open_techniques) header.push_back(t.name);
    analysis::Table table(header);
    for (size_t l = 0; l < levels.size(); ++l) {
      std::vector<std::string> row = {levels[l].name};
      for (size_t t = 0; t < open_techniques.size(); ++t) {
        const CellTally& c = curve[l][t];
        row.push_back(std::to_string(c.open) + "o/" +
                      std::to_string(c.blocked) + "b/" +
                      std::to_string(c.inconclusive) + "i");
      }
      table.add_row(row);
    }
    std::printf("part B: conclusions per cell (open/blocked/inconclusive, "
                "%zu trials each), uncensored path:\n%s\n\n",
                kTrialsPerCell, table.to_markdown().c_str());
  }

  // --- Part C: real dropping at ceiling loss is still detected ---------
  auto blocked_techniques = retry_techniques(/*blocked_target=*/true);
  std::vector<campaign::Trial> c_trials;
  {
    core::TestbedConfig cfg;
    cfg.policy =
        censor::dropping_profile({core::TestbedAddresses{}.web_blocked});
    cfg.dns_retries = 6;
    impair(cfg, Level{"ceiling", kCeilingLoss, false});
    for (const NamedFactory& tech : blocked_techniques) {
      for (size_t k = 0; k < kTrialsPerCell; ++k) {
        c_trials.push_back(campaign::Trial{
            .name = "null-route/" + tech.name + "#" + std::to_string(k),
            .config = cfg,
            .factory = tech.factory});
      }
    }
  }
  std::vector<TechniqueRun> c_runs = bench::run_campaign(c_trials);
  size_t c_blocked = 0, c_open = 0;
  for (size_t i = 0; i < c_runs.size(); ++i) {
    switch (c_runs[i].report.confidence.conclusion) {
      case core::Conclusion::Blocked: ++c_blocked; break;
      case core::Conclusion::Open:
        ++c_open;
        std::printf("  C-FALSE-OPEN %s: %s\n", c_trials[i].name.c_str(),
                    c_runs[i].report.to_string().c_str());
        break;
      default: break;
    }
  }
  std::printf("\n");

  // The E19 gate: part A reproduces E2 at 0% loss, part B concludes no
  // false Blocked up to the ceiling, part C still concludes Blocked on
  // every null-routed trial at the ceiling.
  metrics.anchor("part_a_cells", a_cells, "cells", 1, bench::kUnbounded);
  metrics.invariant("part_a_missed_cells", a_cells - a_hits, 0, "cells");
  metrics.invariant("part_b_false_blocked", false_blocked_total, 0, "trials");
  metrics.invariant("part_c_false_open", c_open, 0, "trials");
  metrics.invariant("part_c_not_blocked", c_runs.size() - c_blocked, 0,
                    "trials");
  int status = metrics.finish();
  if (status != 2) std::printf("wrote %s\n", metrics.out_path().c_str());
  return status;
}

