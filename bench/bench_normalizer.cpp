// E11 — ablation: traffic normalization as a countermeasure (§4.2).
//
// "Traffic normalization may be able to identify odd TTL values in our
// packets, but these approaches come at a high cost; for example, they
// may require disabling traceroute and ping [21]." We install a TTL
// normalizer (floor = 10) on the tap router and measure both sides of
// the trade:
//   offense — TTL-limited cover replies now reach the spoofed hosts,
//             whose RSTs unravel the stateful mimicry;
//   cost    — packets meant to expire in the network (traceroute-style
//             TTL=1..3 probes) no longer do: ICMP Time Exceeded counts
//             drop to zero and the diagnostics break.
#include <cstdio>

#include "analysis/report.hpp"
#include "core/probe.hpp"
#include "core/testbed.hpp"
#include "report.hpp"
#include "spoof/cover.hpp"
#include "surveillance/normalizer.hpp"

using namespace sm;

namespace {

struct Outcome {
  uint64_t ttls_raised = 0;
  uint64_t spoofee_rsts = 0;
  uint64_t replies_expired = 0;   // ICMP time-exceeded events
  uint64_t traceroute_replies = 0;  // ICMP TE elicited by TTL probes
  uint64_t flows_completed = 0;
};

Outcome run(bool with_normalizer) {
  core::Testbed tb;
  surveillance::TtlNormalizerStats stats;
  if (with_normalizer)
    tb.router->set_transformer(
        surveillance::make_ttl_normalizer(10, &stats));

  // Offense: 5 TTL-limited cover flows.
  spoof::StatefulMimicryClient mimic(*tb.client, tb.addr().measurement, 80,
                                     tb.config().mimicry_secret,
                                     common::Duration::millis(10));
  for (size_t i = 0; i < 5; ++i) {
    tb.mimicry_server->register_cover_client(tb.neighbors[i]->address(), 1);
    mimic.run_flow(tb.neighbors[i]->address(),
                   "GET /cover HTTP/1.1\r\nHost: m\r\n\r\n");
  }
  tb.run_for(common::Duration::seconds(3));

  Outcome out;
  out.ttls_raised = stats.ttls_raised;
  for (size_t i = 0; i < 5; ++i)
    out.spoofee_rsts += tb.neighbor_stacks[i]->stats().rst_out;
  out.replies_expired = tb.router->counters().icmp_time_exceeded;
  out.flows_completed = tb.measurement_http->requests_served();

  // Cost: a traceroute-style sweep (TTL 1..3 UDP probes) from the client
  // counts the ICMP Time Exceeded replies it gets back.
  uint64_t te_before = 0;
  tb.client->set_icmp_handler(
      [&te_before](const packet::Decoded& d, const common::Bytes&) {
        if (d.icmp->type == packet::IcmpHeader::kTimeExceeded) ++te_before;
      });
  for (uint8_t ttl = 1; ttl <= 3; ++ttl) {
    tb.client->send_udp(tb.addr().web_open, 33434, 33434,
                        common::to_bytes("traceroute"), ttl);
  }
  tb.run_for(common::Duration::seconds(1));
  out.traceroute_replies = te_before;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("normalizer", argc, argv);
  std::printf("E11 — TTL normalization: surveillance countermeasure vs. "
              "collateral damage (paper §4.2)\n\n");

  Outcome off = run(false);
  Outcome on = run(true);

  analysis::Table table({"configuration", "TTLs raised",
                         "spoofee RSTs (mimicry unraveled)",
                         "cover flows completed",
                         "traceroute TE replies (of 1 expected)"});
  auto row = [&](const char* name, const Outcome& o) {
    table.add_row({name, analysis::Table::num(o.ttls_raised),
                   analysis::Table::num(o.spoofee_rsts),
                   analysis::Table::num(o.flows_completed),
                   analysis::Table::num(o.traceroute_replies)});
  };
  row("no normalizer (baseline)", off);
  row("TTL normalizer, floor 10", on);
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("reading: the normalizer does defeat TTL-limited cover "
              "(RSTs appear, flows unravel),\nbut it also erases the TTL "
              "expirations traceroute depends on — the paper's predicted "
              "cost.\n\n");
  metrics.invariant("baseline_spoofee_rsts", off.spoofee_rsts);
  metrics.anchor("normalized_spoofee_rsts", on.spoofee_rsts, "packets", 1,
                 bench::kUnbounded);
  metrics.anchor("baseline_traceroute_replies", off.traceroute_replies,
                 "packets", 1, bench::kUnbounded);
  metrics.invariant("normalized_traceroute_replies", on.traceroute_replies);
  metrics.invariant("baseline_flows_completed", off.flows_completed, 5,
                    "flows");
  return metrics.finish();
}
