// E8 — §4.1 TTL-limited replies: "we could TTL limit our queries to
// ensure that they never reach the client... set reply TTLs so they are
// dropped after they pass through the surveillance system but before they
// reach the client."
//
// Chain topology: server — r1(tap) — r2 — ... — rN — {client, spoofee}.
// We sweep the reply TTL and report, per value: did the SYN/ACK cross the
// surveillance tap, was it delivered to the spoofed host, did the spoofed
// host's stack RST (unraveling the mimicry), and did the full cover flow
// still complete on the server. The feasible window must match
// plan_reply_ttl exactly.
#include <cstdio>

#include "analysis/report.hpp"
#include "netsim/topology.hpp"
#include "netsim/trace.hpp"
#include "proto/http/server.hpp"
#include "report.hpp"
#include "spoof/cover.hpp"
#include "spoof/ttl.hpp"

using namespace sm;
using common::Duration;
using common::Ipv4Address;

namespace {

struct ChainResult {
  bool crossed_tap = false;
  bool delivered = false;
  bool spoofee_rst = false;
  bool flow_completed = false;
};

ChainResult run_chain(int n_routers, uint8_t reply_ttl) {
  netsim::Network net;
  std::vector<netsim::Router*> routers;
  for (int i = 0; i < n_routers; ++i)
    routers.push_back(net.add_router("r" + std::to_string(i)));
  // Chain links with directional routes.
  for (int i = 1; i < n_routers; ++i) {
    int pa = routers[i - 1]->port_count();
    int pb = routers[i]->port_count();
    net.connect(routers[i - 1], routers[i]);
    routers[i - 1]->add_route(
        common::Cidr(Ipv4Address(10, 0, 0, 0), 8), pa);
    routers[i]->add_route(
        common::Cidr(Ipv4Address(198, 18, 0, 0), 16), pb);
  }
  auto* server = net.add_host("server", Ipv4Address(198, 18, 0, 1));
  net.connect(server, routers.front());
  auto* client = net.add_host("client", Ipv4Address(10, 1, 1, 10));
  auto* spoofee = net.add_host("spoofee", Ipv4Address(10, 1, 1, 11));
  net.connect(client, routers.back());
  net.connect(spoofee, routers.back());

  netsim::TraceTap tap;  // the surveillance tap at r1 (server side)
  routers.front()->add_tap(&tap);

  proto::tcp::Stack server_stack(*server);
  proto::tcp::Stack spoofee_stack(*spoofee);
  proto::http::Server http(server_stack, 80);
  spoof::MimicryServer mimicry(server_stack, 0xFEED, 80);
  mimicry.register_cover_client(spoofee->address(), reply_ttl);

  spoof::StatefulMimicryClient mimic(*client, server->address(), 80,
                                     0xFEED, Duration::millis(10));
  mimic.run_flow(spoofee->address(),
                 "GET /x HTTP/1.1\r\nHost: m\r\n\r\n");
  net.run_for(Duration::seconds(3));

  ChainResult out;
  for (const auto& rec : tap.records()) {
    auto d = packet::decode(rec.data);
    if (d && d->tcp && d->tcp->syn() && d->tcp->ack_flag() &&
        d->ip.dst == spoofee->address())
      out.crossed_tap = true;
  }
  out.delivered = spoofee_stack.stats().segments_in > 0;
  out.spoofee_rst = spoofee_stack.stats().rst_out > 0;
  out.flow_completed = http.requests_served() > 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("ttl_limiting", argc, argv);
  std::printf("E8 — TTL-limited replies across an N-router chain "
              "(tap at the first router from the server)\n\n");

  size_t unsafe_in_window = 0, intact_beyond_window = 0;
  for (int n : {1, 3, 5}) {
    int hops_to_tap = 1;          // tap adjacent to the server
    int hops_to_client = n;       // client behind all n routers
    auto planned = spoof::plan_reply_ttl(hops_to_tap, hops_to_client);
    analysis::Table table({"reply TTL", "crossed tap", "delivered to "
                           "spoofee", "spoofee RST (unraveled)",
                           "flow completed on server", "in planned window"});
    for (int ttl = 1; ttl <= n + 1; ++ttl) {
      ChainResult r = run_chain(n, static_cast<uint8_t>(ttl));
      bool in_window = ttl >= hops_to_tap && ttl <= hops_to_client;
      table.add_row({analysis::Table::num(uint64_t(ttl)),
                     r.crossed_tap ? "yes" : "no",
                     r.delivered ? "YES" : "no",
                     r.spoofee_rst ? "YES" : "no",
                     r.flow_completed ? "yes" : "no",
                     in_window ? "yes" : "no"});
      // Shape: in-window TTLs cross the tap, are not delivered, never
      // draw a RST, and the mimicry flow completes. Out-of-window (too
      // large) TTLs are delivered and unraveled by the spoofee's RST.
      if (in_window) {
        if (!(r.crossed_tap && !r.delivered && !r.spoofee_rst &&
              r.flow_completed))
          ++unsafe_in_window;
      } else if (!(r.delivered && r.spoofee_rst)) {
        ++intact_beyond_window;
      }
    }
    std::printf("chain of %d router(s), planned TTL window [%d, %d], "
                "plan_reply_ttl -> %s\n%s\n",
                n, hops_to_tap, hops_to_client,
                planned ? std::to_string(*planned).c_str() : "(none)",
                table.to_markdown().c_str());
  }
  metrics.invariant("in_window_rows_unsafe", unsafe_in_window, 0, "rows");
  metrics.invariant("beyond_window_rows_intact", intact_beyond_window, 0,
                    "rows");
  return metrics.finish();
}
