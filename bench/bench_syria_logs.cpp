// E5 — §2.2's Syria statistic: "An analysis of two days of leaked
// censorship log files from Syria shows that 1.57% of the population
// accessed at least one censored site, far too many people for the
// surveillance system to pursue" (Chaabane et al. [9]).
//
// We regenerate the statistic from a parameterized population model
// (Zipf site popularity, log-normal user activity) instead of hard-coding
// it: the calibrated row lands near 1.57%, and the sweep shows how the
// fraction scales with censored-content popularity and user activity —
// the knob that makes "alert on every censored query" infeasible.
#include <cstdio>

#include "analysis/population.hpp"
#include "analysis/report.hpp"
#include "analysis/syria.hpp"
#include "report.hpp"

using namespace sm;
using namespace sm::analysis;

namespace {

struct Result {
  double censored_user_fraction;
  double censored_request_fraction;
  uint64_t requests;
  size_t users;
  size_t touchers;
};

Result run(size_t users, size_t sites, size_t censored_sites,
           size_t min_rank, double mean_requests) {
  common::Rng rng(2015);
  auto catalog = make_site_catalog(rng, sites, censored_sites, min_rank);
  PopulationConfig cfg;
  cfg.users = users;
  cfg.mean_requests_per_user = mean_requests;
  cfg.window = common::Duration::days(2);
  LogAnalyzer analyzer;
  generate_population_log(cfg, catalog,
                          [&](const LogRecord& r) { analyzer.add(r); });
  return Result{analyzer.censored_user_fraction(),
                analyzer.censored_request_fraction(),
                analyzer.total_requests(), analyzer.unique_users(),
                analyzer.users_touching_censored()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("syria_logs", argc, argv);
  std::printf("E5 — fraction of population touching censored content in a "
              "2-day log (paper anchor: 1.57%%)\n\n");

  analysis::Table table({"users", "censored sites (of 5000)", "min rank",
                         "req/user", "requests", "touching users",
                         "fraction", "note"});
  struct Row {
    size_t users, censored, min_rank;
    double mean_req;
    const char* note;
  };
  // The middle row is the calibrated reproduction of the paper's number.
  std::vector<Row> rows = {
      {10000, 40, 100, 50, "popular censored content"},
      {10000, 10, 1500, 35, "calibrated ~= paper's 1.57%"},
      {10000, 4, 3000, 35, "deep unpopular censored content"},
      {2000, 10, 1500, 35, "smaller population, same model"},
      {50000, 10, 1500, 35, "larger population, same model"},
      {10000, 10, 1500, 120, "heavier users touch more"},
  };
  double calibrated = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    Result res = run(r.users, 5000, r.censored, r.min_rank, r.mean_req);
    if (i == 1) calibrated = res.censored_user_fraction;
    table.add_row({Table::num(uint64_t(r.users)),
                   Table::num(uint64_t(r.censored)),
                   Table::num(uint64_t(r.min_rank)),
                   Table::num(r.mean_req), Table::num(res.requests),
                   Table::num(uint64_t(res.touchers)),
                   Table::pct(res.censored_user_fraction), r.note});
  }
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("calibrated fraction: %.2f%% (paper: 1.57%%)\n",
              calibrated * 100.0);
  std::printf("reading: even at ~1.5%%, that is %d people per 10k users — "
              "no analyst pursues them all,\nwhich is why censored-access "
              "alerts carry near-zero analyst weight in the MVR model.\n\n",
              int(calibrated * 10000));
  // Paper shape: the calibrated row brackets 1.57%.
  metrics.anchor("calibrated_user_fraction", calibrated, "fraction",
                 bench::above(0.005), bench::below(0.05));
  return metrics.finish();
}
