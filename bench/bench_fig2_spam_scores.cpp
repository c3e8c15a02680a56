// E1 — Figure 2: CDF of spam scores for n=100 spam-cloaked measurements.
//
// Paper: "This CDF shows Proofpoint's spam scores for n=100 measurements.
// Possible scores range from 0 (not spam) to 100 (spam)" — and the curve
// sits hard against 100, validating that the measurements blend into bulk
// spam. We regenerate the same series end-to-end: each measurement email
// is generated by the spam probe's corpus, *actually delivered* through
// the simulated SMTP path, and the message stored by the mail server is
// what gets scored. A ham control CDF shows the separation.
#include <cstdio>

#include "analysis/report.hpp"
#include "common/stats.hpp"
#include "core/probe.hpp"
#include "core/spam.hpp"
#include "report.hpp"
#include "spamfilter/corpus.hpp"
#include "spamfilter/scorer.hpp"

using namespace sm;

int main(int argc, char** argv) {
  bench::Report metrics("fig2_spam_scores", argc, argv);
  constexpr int kN = 100;
  spamfilter::Scorer scorer;
  common::EmpiricalCdf measurement_cdf;
  common::EmpiricalCdf ham_cdf;

  // Deliver kN spam-cloaked measurements through the full testbed path
  // and score exactly what the receiving mail server stored.
  int delivered = 0;
  for (int i = 0; i < kN; ++i) {
    core::Testbed tb;
    core::SpamProbe probe(tb, {.domain = "open.example",
                               .corpus_seed = 1000 + (uint64_t)i});
    core::ProbeReport report = core::run_probe(tb, probe);
    if (report.verdict == core::Verdict::Reachable &&
        tb.smtp_open->message_count() == 1) {
      ++delivered;
      measurement_cdf.add(
          scorer.score_raw(tb.smtp_open->messages()[0].data).score);
    } else {
      // Should not happen on the open domain; score the local copy so
      // the sample count stays n=100 either way.
      measurement_cdf.add(scorer.score_raw(probe.message()).score);
    }
  }

  common::Rng rng(7);
  for (int i = 0; i < kN; ++i)
    ham_cdf.add(scorer.score_raw(
                    spamfilter::make_ham_email(rng, "open.example"))
                    .score);

  std::printf("E1 / Figure 2 — spam scores of n=%d spam-cloaked "
              "measurements (0=not spam, 100=spam)\n\n", kN);
  std::printf("delivered through simulated SMTP: %d/%d\n\n", delivered, kN);

  analysis::Table table({"series", "p10", "p25", "median", "p75", "p90",
                         "frac >= 50 (spam)"});
  auto row = [&](const char* name, const common::EmpiricalCdf& cdf) {
    table.add_row({name, analysis::Table::num(cdf.quantile(0.10)),
                   analysis::Table::num(cdf.quantile(0.25)),
                   analysis::Table::num(cdf.quantile(0.50)),
                   analysis::Table::num(cdf.quantile(0.75)),
                   analysis::Table::num(cdf.quantile(0.90)),
                   analysis::Table::pct(1.0 - cdf.at(49.999))});
  };
  row("measurements (paper: all spam)", measurement_cdf);
  row("ham control", ham_cdf);
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("measurement CDF series (x = score, y = F(x)):\n%s\n",
              measurement_cdf.to_table(20).c_str());

  // Paper shape: measurements ~100 (spam), ham low.
  metrics.anchor("measurement_score_p10", measurement_cdf.quantile(0.10),
                 "score", 50.0, bench::kUnbounded);
  metrics.anchor("ham_score_p90", ham_cdf.quantile(0.90), "score",
                 -bench::kUnbounded, bench::below(50.0), bench::Better::Lower);
  return metrics.finish();
}
