// E4 — §2.1 surveillance storage model: Massive Volume Reduction and the
// retention windows.
//
// Anchors from the paper: the NSA could store only 7.5% of received
// traffic [31]; MVR cuts ~30% of volume "in part by throwing away all
// peer-to-peer traffic" [28]; content is kept 3 days, connection metadata
// 30 days (campus: flow records ~36 h, alerts ~1 y).
//
// Part 1 drives a realistic traffic mix through the MVR tap at packet
// level and reports the per-class volume, the discard fraction, and the
// content-retention fraction (should sit near the configured 7.5%).
// Part 2 feeds the retention stores over 40 simulated days and shows
// occupancy plateauing at each window (3 d content / 30 d metadata).
#include <cstdio>

#include "analysis/report.hpp"
#include "core/background.hpp"
#include "core/testbed.hpp"
#include "report.hpp"

using namespace sm;

int main(int argc, char** argv) {
  bench::Report metrics("mvr_pipeline", argc, argv);
  std::printf("E4 — MVR pipeline and retention windows (paper §2.1)\n\n");

  // --- Part 1: packet-level volume reduction on a realistic mix ---
  core::TestbedConfig config;
  config.neighbor_count = 30;
  core::Testbed tb(config);
  core::BackgroundConfig bg_cfg;
  bg_cfg.p2p_fraction = 0.3;  // ~30% of hosts torrenting: the MVR's cut
  core::BackgroundTraffic bg(tb, bg_cfg);
  bg.schedule(common::Duration::seconds(60));
  tb.run_for(common::Duration::seconds(70));

  const auto& stats = tb.mvr->stats();
  analysis::Table classes({"traffic class", "bytes", "share"});
  uint64_t total = stats.bytes_seen ? stats.bytes_seen : 1;
  for (const auto& [cls, bytes] : stats.bytes_by_class) {
    classes.add_row({surveillance::to_string(cls),
                     analysis::Table::num(bytes),
                     analysis::Table::pct(double(bytes) / double(total))});
  }
  std::printf("observed mix over 60 simulated seconds "
              "(%llu packets, %llu bytes):\n%s\n",
              (unsigned long long)stats.packets_seen,
              (unsigned long long)stats.bytes_seen,
              classes.to_markdown().c_str());

  double discard = double(stats.bytes_discarded) / double(total);
  double retained = tb.mvr->retained_fraction();
  uint64_t eligible = stats.bytes_seen - stats.bytes_discarded;
  double retained_of_eligible =
      eligible ? double(stats.bytes_content_retained) / double(eligible)
               : 0.0;
  analysis::Table summary({"quantity", "measured", "paper anchor"});
  summary.add_row({"volume discarded by MVR (class-based)",
                   analysis::Table::pct(discard), "~30% (TEMPORA [28])"});
  summary.add_row({"content retained (of eligible bytes)",
                   analysis::Table::pct(retained_of_eligible),
                   "7.5% sampling rate [31]"});
  summary.add_row({"content retained (of all seen bytes)",
                   analysis::Table::pct(retained),
                   "<= 7.5% of received traffic"});
  summary.add_row({"metadata records kept",
                   analysis::Table::num(
                       uint64_t(tb.mvr->metadata_store().count())),
                   "every connection (CDR-like)"});
  std::printf("%s\n", summary.to_markdown().c_str());

  // --- Part 2: store occupancy over 40 simulated days ---
  std::printf("store occupancy vs. day (constant inflow of 1 GB/day "
              "content eligible, 1M metadata records/day):\n\n");
  surveillance::ContentStore content(common::Duration::days(3));
  surveillance::MetadataStore metadata(common::Duration::days(30));
  analysis::Table occupancy(
      {"day", "content GB (3d window)", "metadata Mrec (30d window)"});
  for (int day = 1; day <= 40; ++day) {
    common::SimTime now(common::Duration::days(day).count());
    surveillance::ContentItem c;
    c.time = now;
    content.add(now, c, 1ull << 30);  // 1 GB/day as one accounting item
    for (int k = 0; k < 10; ++k) {    // metadata in 0.1M batches
      surveillance::MetadataItem m;
      m.time = now;
      metadata.add(now, m, 100'000);
    }
    if (day <= 5 || day % 5 == 0 || day == 29 || day == 31) {
      occupancy.add_row(
          {analysis::Table::num(uint64_t(day)),
           analysis::Table::num(double(content.bytes()) / double(1u << 30)),
           analysis::Table::num(double(metadata.bytes()) / 1e6)});
    }
  }
  std::printf("%s\n", occupancy.to_markdown().c_str());

  // Paper shape: significant discard, ~7.5% content retention, 3 d / 30 d
  // plateaus.
  metrics.anchor("discard_share", discard, "fraction", bench::above(0.15),
                 bench::kUnbounded);
  metrics.anchor("retained_fraction", retained, "fraction",
                 -bench::kUnbounded, bench::below(0.15), bench::Better::Lower);
  metrics.invariant("content_store_bytes", content.bytes(), 3ull << 30,
                    "bytes");
  metrics.invariant("metadata_store_records", metadata.bytes(), 30'000'000,
                    "records");
  return metrics.finish();
}
