// E13 — ablation: cloud co-hosting and the censor's collateral-damage
// dilemma (§4.1).
//
// "The rise of cloud services makes it possible to host the measurement
// target in a location that may resemble a real target of interest,
// thereby evading blocking. For example, the target could be hosted on
// Amazon Web Services, which shares IP ranges with real measurement
// targets."
//
// Topology: a cloud /24 hosting N popular tenant sites plus the
// measurement server. Three censor postures:
//   precise  — null-route the measurement server's /32 only
//   range    — null-route the whole cloud /24
//   none     — no IP blocking
// For each: is the measurement server blocked, and how many tenant sites
// went dark as collateral? The dilemma: the precise block works only if
// the censor can *identify* the measurement IP; the range block works
// but takes the popular tenants down with it.
#include <cstdio>

#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "censor/engine.hpp"
#include "netsim/topology.hpp"
#include "proto/http/client.hpp"
#include "proto/http/server.hpp"
#include "report.hpp"

using namespace sm;
using common::Duration;
using common::Ipv4Address;

namespace {

constexpr size_t kTenants = 8;

struct CloudResult {
  bool measurement_reachable = false;
  size_t tenants_reachable = 0;
};

CloudResult run(const censor::CensorPolicy& policy) {
  netsim::Network net;
  auto* client = net.add_host("client", Ipv4Address(10, 1, 1, 10));
  auto* router = net.add_router("r");
  net.connect(client, router);

  // The cloud /24: tenants at .1...N, the measurement server at .50 —
  // indistinguishable by address alone.
  std::vector<netsim::Host*> tenants;
  std::vector<std::unique_ptr<proto::tcp::Stack>> stacks;
  std::vector<std::unique_ptr<proto::http::Server>> servers;
  for (size_t i = 0; i < kTenants; ++i) {
    auto* h = net.add_host("tenant" + std::to_string(i),
                           Ipv4Address(203, 0, 113,
                                       static_cast<uint8_t>(1 + i)));
    net.connect(h, router);
    stacks.push_back(std::make_unique<proto::tcp::Stack>(*h));
    servers.push_back(
        std::make_unique<proto::http::Server>(*stacks.back(), 80));
    tenants.push_back(h);
  }
  auto* measurement = net.add_host("measurement",
                                   Ipv4Address(203, 0, 113, 50));
  net.connect(measurement, router);
  stacks.push_back(std::make_unique<proto::tcp::Stack>(*measurement));
  servers.push_back(
      std::make_unique<proto::http::Server>(*stacks.back(), 80));

  censor::CensorTap censor_tap(policy);
  router->add_tap(&censor_tap);

  proto::tcp::Stack client_stack(*client);
  proto::http::Client http(client_stack);

  CloudResult result;
  auto fetch = [&](Ipv4Address target, bool* ok_flag, size_t* counter) {
    proto::tcp::ConnectOptions opts;
    opts.rto = Duration::millis(100);
    opts.max_retries = 2;
    http.fetch(target, 80, proto::http::Request::get("cloud", "/"),
               [ok_flag, counter](const proto::http::FetchResult& r) {
                 if (r.ok()) {
                   if (ok_flag) *ok_flag = true;
                   if (counter) ++*counter;
                 }
               },
               Duration::seconds(3), opts);
  };
  fetch(measurement->address(), &result.measurement_reachable, nullptr);
  for (auto* t : tenants)
    fetch(t->address(), nullptr, &result.tenants_reachable);
  net.run_for(Duration::seconds(8));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("collateral", argc, argv);
  std::printf("E13 — blocking a cloud-hosted measurement server: efficacy "
              "vs. collateral (paper §4.1)\n\n");

  censor::CensorPolicy none;
  censor::CensorPolicy precise;
  precise.blocked_ips.push_back(Ipv4Address(203, 0, 113, 50));
  censor::CensorPolicy range;
  range.blocked_prefixes.push_back(
      common::Cidr(Ipv4Address(203, 0, 113, 0), 24));

  analysis::Table table({"censor posture", "measurement server blocked",
                         "tenant sites dark (collateral)"});
  // The three postures are independent simulations over a custom (non-
  // Testbed) topology, so they shard through the campaign layer's
  // low-level job pool rather than the Trial runner.
  const censor::CensorPolicy* policies[] = {&none, &precise, &range};
  CloudResult results[3];
  auto errors = campaign::run_jobs(
      3, [&](size_t i, int) { results[i] = run(*policies[i]); });
  for (size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "!!! posture %zu failed: %s\n", i,
                   errors[i].c_str());
      return 1;
    }
  }
  const CloudResult& r_none = results[0];
  const CloudResult& r_precise = results[1];
  const CloudResult& r_range = results[2];
  auto row = [&](const char* name, const CloudResult& r) {
    table.add_row({name, r.measurement_reachable ? "no" : "YES",
                   analysis::Table::num(uint64_t(kTenants -
                                                 r.tenants_reachable)) +
                       " of " + std::to_string(kTenants)});
  };
  row("no IP blocking", r_none);
  row("precise /32 null-route", r_precise);
  row("range /24 null-route", r_range);
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("reading: the /32 block is surgical but requires knowing "
              "which cloud address is the measurement server —\nexactly "
              "the attribution problem the techniques create; the /24 "
              "block needs no attribution but darkens %zu tenants.\n\n",
              kTenants);
  metrics.require("unblocked_measurement_reachable",
                  r_none.measurement_reachable);
  metrics.invariant("unblocked_tenants_reachable", r_none.tenants_reachable,
                    kTenants, "tenants");
  metrics.require("precise_block_blocks_measurement",
                  !r_precise.measurement_reachable);
  metrics.invariant("precise_block_tenants_reachable",
                    r_precise.tenants_reachable, kTenants, "tenants");
  metrics.require("range_block_blocks_measurement",
                  !r_range.measurement_reachable);
  metrics.invariant("range_block_tenants_reachable",
                    r_range.tenants_reachable, 0, "tenants");
  return metrics.finish();
}
