// E6 — §4.2 spoofing feasibility (Beverly et al. [7]): "77% of clients
// can spoof other addresses within their own /24, and 11% can spoof
// addresses within their own /16; these characteristics hold across a
// wide range of countries and regions."
//
// We sample the SAV deployment model over many simulated networks and
// report the measured fractions, plus the consequence that matters for
// cover traffic: the distribution of *usable cover pool size* (how many
// neighbor addresses a random client can credibly implicate).
#include <cstdio>

#include "analysis/report.hpp"
#include "common/stats.hpp"
#include "report.hpp"
#include "spoof/sav.hpp"

using namespace sm;
using namespace sm::spoof;

int main(int argc, char** argv) {
  bench::Report metrics("spoof_feasibility", argc, argv);
  std::printf("E6 — source-address-validation feasibility "
              "(paper anchor: 77%% //24, 11%% //16)\n\n");

  analysis::Table table({"region seed", "clients", ">= /24", ">= /16",
                         "unfiltered"});
  double total24 = 0, total16 = 0, totalany = 0;
  const int kRegions = 5;
  const size_t kClientsPerRegion = 20000;
  for (int region = 0; region < kRegions; ++region) {
    SavModel model({}, 1000 + static_cast<uint64_t>(region));
    size_t n24 = 0, n16 = 0, nany = 0;
    for (size_t i = 0; i < kClientsPerRegion; ++i) {
      common::Ipv4Address client(
          static_cast<uint32_t>(0x0A000000u + region * 0x10000u + i));
      SpoofScope s = model.scope_for(client);
      if (s != SpoofScope::None) ++n24;
      if (s == SpoofScope::Slash16 || s == SpoofScope::Any) ++n16;
      if (s == SpoofScope::Any) ++nany;
    }
    double f24 = double(n24) / kClientsPerRegion;
    double f16 = double(n16) / kClientsPerRegion;
    double fany = double(nany) / kClientsPerRegion;
    total24 += f24;
    total16 += f16;
    totalany += fany;
    table.add_row({analysis::Table::num(uint64_t(1000 + region)),
                   analysis::Table::num(uint64_t(kClientsPerRegion)),
                   analysis::Table::pct(f24), analysis::Table::pct(f16),
                   analysis::Table::pct(fany)});
  }
  table.add_row({"mean", "", analysis::Table::pct(total24 / kRegions),
                 analysis::Table::pct(total16 / kRegions),
                 analysis::Table::pct(totalany / kRegions)});
  std::printf("%s\n", table.to_markdown().c_str());

  // Cover pool size: a /24 spoofer can implicate 253 neighbors; a /16
  // spoofer 65533; a filtered client only itself.
  common::EmpiricalCdf pool;
  SavModel model({}, 42);
  for (size_t i = 0; i < 20000; ++i) {
    common::Ipv4Address client(0x0A000000u + static_cast<uint32_t>(i));
    switch (model.scope_for(client)) {
      case SpoofScope::None: pool.add(0); break;
      case SpoofScope::Slash24: pool.add(253); break;
      case SpoofScope::Slash16: pool.add(65533); break;
      case SpoofScope::Any: pool.add(16777213); break;
    }
  }
  std::printf("usable cover-pool size (neighbors a client can implicate):\n"
              "  median=%g  p75=%g  p90=%g  (0 means strict SAV: no "
              "spoofed cover possible)\n\n",
              pool.quantile(0.5), pool.quantile(0.75), pool.quantile(0.9));

  // Paper shape: 77% / 11% within 2 pp.
  metrics.anchor("spoof_within_24", total24 / kRegions, "fraction",
                 bench::above(0.77 - 0.02), bench::below(0.77 + 0.02));
  metrics.anchor("spoof_within_16", total16 / kRegions, "fraction",
                 bench::above(0.11 - 0.02), bench::below(0.11 + 0.02));
  return metrics.finish();
}
