// E10 — ablation of the surveillance model's selectivity knobs.
//
// §2.2 argues the techniques work because surveillance must be selective.
// This bench turns the selectivity down and watches the safety margin
// erode: (a) sweep the analyst's investigation threshold — at what point
// would each technique's residue get a user investigated? (b) sweep the
// content-retention fraction — how much more attributable content does a
// less-constrained (better-funded) surveillance system accumulate?
#include <cstdio>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "report.hpp"

using namespace sm;

int main(int argc, char** argv) {
  bench::Report metrics("risk_ablation", argc, argv);
  std::printf("E10 — risk vs. surveillance selectivity (ablation)\n\n");

  // (a) Suspicion left behind by each technique, against descending
  // investigation thresholds.
  std::printf("(a) analyst threshold sweep — 'inv@T' = would the client "
              "be investigated at threshold T\n\n");
  analysis::Table table({"technique", "suspicion", "inv@10 (default)",
                         "inv@1", "inv@0.1", "evaded"});
  core::TestbedConfig config;
  config.policy = censor::gfc_profile();
  config.policy.blocked_ips.push_back(
      core::TestbedAddresses{}.mail_blocked);

  // Every (technique, threshold) cell is independent — run the whole
  // suite through the campaign runner at once.
  auto techniques = bench::standard_techniques();
  std::vector<bench::TechniqueRun> runs =
      bench::run_campaign(bench::technique_trials("", config, techniques));

  size_t stealthy_investigated = 0, overt_flagged = 0;
  for (size_t i = 0; i < techniques.size(); ++i) {
    const auto& technique = techniques[i];
    const bench::TechniqueRun& run = runs[i];
    bool inv10 = run.risk.suspicion >= 10.0;
    bool inv1 = run.risk.suspicion >= 1.0;
    bool inv01 = run.risk.suspicion >= 0.1;
    bool overt = technique.name.rfind("overt", 0) == 0;
    if (!overt && inv10) ++stealthy_investigated;
    if (overt && inv01) ++overt_flagged;
    table.add_row({technique.name,
                   analysis::Table::num(run.risk.suspicion),
                   inv10 ? "YES" : "no", inv1 ? "YES" : "no",
                   inv01 ? "YES" : "no",
                   run.risk.evaded ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_markdown().c_str());

  // (b) Retention-fraction sweep: a surveillance system that can afford
  // to keep more content attributes more bytes to the client.
  std::printf("(b) content-retention sweep (storage budget ablation)\n\n");
  analysis::Table retention({"retention fraction", "client content bytes "
                             "retained", "client suspicion"});
  const std::vector<double> fractions = {0.075, 0.25, 0.50, 1.00};
  std::vector<campaign::Trial> sweep;
  for (double fraction : fractions) {
    core::TestbedConfig cfg;
    cfg.policy = censor::gfc_profile();
    cfg.mvr.content_retention_fraction = fraction;
    sweep.push_back(campaign::Trial{
        .name = "ddos@" + analysis::Table::pct(fraction),
        .config = cfg,
        .factory = [](core::Testbed& tb) {
          return std::make_unique<core::DdosProbe>(
              tb,
              core::DdosOptions{.domain = "open.example", .requests = 30});
        }});
  }
  std::vector<bench::TechniqueRun> sweep_runs = bench::run_campaign(sweep);
  for (size_t i = 0; i < fractions.size(); ++i) {
    const bench::TechniqueRun& run = sweep_runs[i];
    retention.add_row({analysis::Table::pct(fractions[i]),
                       analysis::Table::num(run.risk.suspicion /
                                            0.5 * 1024 * 1024),
                       analysis::Table::num(run.risk.suspicion)});
  }
  std::printf("%s\n", retention.to_markdown().c_str());

  std::printf("reading: at the paper's constraints (7.5%% retention, "
              "costly analysts) every stealthy technique stays below the "
              "action threshold;\nremove the constraints and residual "
              "suspicion accumulates — the safety is conditional, exactly "
              "as §7 warns.\n\n");
  // Paper shape: every stealthy technique stays below the default
  // threshold, and some overt baseline is flagged at 0.1.
  metrics.invariant("stealthy_investigated_at_10", stealthy_investigated, 0,
                    "techniques");
  metrics.anchor("overt_flagged_at_0.1", overt_flagged, "techniques", 1,
                 bench::kUnbounded);
  return metrics.finish();
}
