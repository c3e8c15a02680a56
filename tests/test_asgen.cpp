// AS-topology generator properties: same-seed determinism, all-pairs
// reachability across ASes, and equivalence of the compiled LPM route
// tables (v4 and v6) with the legacy first-match linear scan.
#include "netsim/asgen.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "netsim/host.hpp"
#include "netsim/router.hpp"
#include "netsim/topology.hpp"
#include "packet/packet.hpp"

namespace sm::netsim {
namespace {

using common::Cidr;
using common::Cidr6;
using common::Duration;
using common::Ipv4Address;
using common::Ipv6Address;

AsGenConfig small_config(uint64_t seed = 0xA5) {
  AsGenConfig config;
  config.seed = seed;
  config.as_count = 4;
  config.transit_count = 2;
  config.routers_per_as = 2;
  config.subnets_per_router = 2;
  config.hosts_per_subnet = 4;
  config.extra_peering = 1;
  return config;
}

TEST(AsGen, SameSeedIsByteIdentical) {
  Network net_a;
  Network net_b;
  AsTopology a = AsTopology::generate(net_a, small_config());
  AsTopology b = AsTopology::generate(net_b, small_config());
  EXPECT_EQ(a.describe(), b.describe());
  ASSERT_EQ(a.population(), b.population());
  for (size_t i = 0; i < a.population(); ++i) {
    EXPECT_EQ(a.hosts()[i]->address(), b.hosts()[i]->address());
    EXPECT_EQ(a.hosts()[i]->name(), b.hosts()[i]->name());
  }
}

TEST(AsGen, DifferentSeedsDiffer) {
  Network net_a;
  Network net_b;
  AsTopology a = AsTopology::generate(net_a, small_config(1));
  AsTopology b = AsTopology::generate(net_b, small_config(2));
  EXPECT_NE(a.describe(), b.describe());
}

TEST(AsGen, BlocksAreDisjointAndCoverHosts) {
  Network net;
  AsTopology topo = AsTopology::generate(net, small_config());
  const auto& ases = topo.ases();
  for (size_t i = 0; i < ases.size(); ++i) {
    for (size_t j = i + 1; j < ases.size(); ++j) {
      EXPECT_FALSE(ases[i].block.contains(ases[j].block.network()));
      EXPECT_FALSE(ases[j].block.contains(ases[i].block.network()));
    }
  }
  for (size_t h = 0; h < topo.population(); ++h) {
    size_t as = topo.as_of_host(h);
    EXPECT_TRUE(ases[as].block.contains(topo.hosts()[h]->address()))
        << "host " << h << " outside its AS block";
    EXPECT_GE(h, ases[as].first_host);
    EXPECT_LT(h, ases[as].first_host + ases[as].host_count);
  }
}

TEST(AsGen, EveryHostReachableFromEveryAs) {
  Network net;
  AsTopology topo = AsTopology::generate(net, small_config());
  ASSERT_EQ(topo.population(), 4u * 2u * 2u * 4u);

  // One representative sender per AS sprays a UDP datagram at every other
  // host; every datagram must arrive. This exercises edge /32s, backbone
  // default routes, per-router aggregates, and inter-AS BFS routes.
  std::vector<uint64_t> before(topo.population());
  for (size_t h = 0; h < topo.population(); ++h) {
    before[h] = topo.hosts()[h]->packets_received();
  }
  size_t sent = 0;
  for (const AsInfo& as : topo.ases()) {
    Host* sender = topo.hosts()[as.first_host];
    for (size_t h = 0; h < topo.population(); ++h) {
      Host* dst = topo.hosts()[h];
      if (dst == sender) continue;
      sender->send(packet::make_tcp(sender->address(), dst->address(), 40000,
                                    9, 0x02, 1, 0));
      ++sent;
    }
  }
  net.run_for(Duration::seconds(2));
  uint64_t delivered = 0;
  for (size_t h = 0; h < topo.population(); ++h) {
    delivered += topo.hosts()[h]->packets_received() - before[h];
  }
  EXPECT_EQ(delivered, sent);
}

// Legacy route semantics the compiled table must reproduce, for either
// family: stable sort by descending prefix length, first containing match
// wins (so among equal-length prefixes, the earliest-inserted wins).
template <typename Prefix, typename Address>
int reference_lookup(const std::vector<std::pair<Prefix, int>>& routes,
                     Address dst, int default_port) {
  int best_len = -1;
  int best_port = default_port;
  for (const auto& [prefix, port] : routes) {
    if (!prefix.contains(dst)) continue;
    if (static_cast<int>(prefix.prefix_len()) > best_len) {
      best_len = prefix.prefix_len();
      best_port = port;
    }
  }
  return best_port;
}

TEST(AsGen, CompiledLpmMatchesLinearScanOnRandomRouteSets) {
  common::Rng rng(0x10F);
  for (int trial = 0; trial < 20; ++trial) {
    Network net;
    Router* router = net.add_router("r");
    std::vector<std::pair<Cidr, int>> routes;
    size_t n_routes = 1 + rng.bounded(40);
    for (size_t i = 0; i < n_routes; ++i) {
      uint8_t len = static_cast<uint8_t>(rng.bounded(33));
      Ipv4Address base(static_cast<uint32_t>(rng.next()));
      Cidr prefix(base, len);
      int port = static_cast<int>(rng.bounded(8));
      routes.emplace_back(prefix, port);
      router->add_route(prefix, port);
    }
    int default_port = rng.chance(0.5) ? -1 : 7;
    router->set_default_route(default_port);

    for (int probe = 0; probe < 2000; ++probe) {
      Ipv4Address dst(static_cast<uint32_t>(rng.next()));
      ASSERT_EQ(router->route_lookup(dst),
                reference_lookup(routes, dst, default_port))
          << "trial " << trial << " dst " << dst.to_string();
    }
    // Boundary probes: prefix edges are where interval-paint bugs live.
    for (const auto& [prefix, port] : routes) {
      (void)port;
      Ipv4Address lo = prefix.network();
      Ipv4Address hi(static_cast<uint32_t>(prefix.network().value() +
                                           prefix.size() - 1));
      for (Ipv4Address dst : {lo, hi}) {
        ASSERT_EQ(router->route_lookup(dst),
                  reference_lookup(routes, dst, default_port));
      }
    }
  }
}

using U128 = unsigned __int128;

Ipv6Address from_u128(U128 v) {
  return Ipv6Address(static_cast<uint64_t>(v >> 64), static_cast<uint64_t>(v));
}

U128 to_u128(Ipv6Address a) { return U128{a.hi()} << 64 | a.lo(); }

TEST(AsGen, CompiledLpm6MatchesLinearScanOnRandomRouteSets) {
  common::Rng rng(0x10F6);
  const U128 kOnes = ~U128{0};
  auto random_u128 = [&] { return U128{rng.next()} << 64 | rng.next(); };
  for (int trial = 0; trial < 200; ++trial) {
    // Prefixes cluster around a few anchors, both ends of the space among
    // them, so they nest and overlap instead of scattering over 2^128.
    std::vector<U128> anchors = {0, kOnes, random_u128(), random_u128()};
    auto near_anchor = [&] {
      U128 a = anchors[rng.bounded(anchors.size())];
      if (rng.chance(0.25)) return a;
      return a ^ (random_u128() >> rng.bounded(128));
    };
    Network net;
    Router* router = net.add_router("r");
    std::vector<std::pair<Cidr6, int>> routes;
    size_t n_routes = 1 + rng.bounded(40);
    for (size_t i = 0; i < n_routes; ++i) {
      uint8_t len = rng.chance(0.1)   ? 0
                    : rng.chance(0.1) ? 128
                                      : static_cast<uint8_t>(rng.bounded(129));
      Cidr6 prefix(from_u128(near_anchor()), len);
      int port = static_cast<int>(rng.bounded(8));
      routes.emplace_back(prefix, port);
      router->add_route6(prefix, port);
    }
    int default_port = rng.chance(0.5) ? -1 : 7;
    router->set_default_route(default_port);

    std::vector<Ipv6Address> probes = {from_u128(0), from_u128(kOnes)};
    for (int k = 0; k < 1000; ++k)
      probes.push_back(from_u128(rng.chance(0.1) ? random_u128()
                                                 : near_anchor()));
    // Boundary probes: each prefix's first and last address and the
    // addresses just outside them, where interval-paint bugs live.
    for (const auto& [prefix, port] : routes) {
      (void)port;
      const U128 lo = to_u128(prefix.network());
      const unsigned len = prefix.prefix_len();
      const U128 hi = len == 128 ? lo : lo | (kOnes >> len);
      probes.push_back(from_u128(lo));
      probes.push_back(from_u128(hi));
      if (lo != 0) probes.push_back(from_u128(lo - 1));
      if (hi != kOnes) probes.push_back(from_u128(hi + 1));
    }
    for (Ipv6Address dst : probes) {
      ASSERT_EQ(router->route_lookup(dst),
                reference_lookup(routes, dst, default_port))
          << "trial " << trial << " dst " << dst.to_string();
    }
  }
}

TEST(AsGen, RouteMutationAfterLookupRecompiles) {
  Network net;
  Router* router = net.add_router("r");
  router->add_route(Cidr(Ipv4Address(10, 0, 0, 0), 8), 1);
  EXPECT_EQ(router->route_lookup(Ipv4Address(10, 1, 2, 3)), 1);
  // add_route after a lookup must invalidate the compiled table.
  router->add_route(Cidr(Ipv4Address(10, 1, 0, 0), 16), 2);
  EXPECT_EQ(router->route_lookup(Ipv4Address(10, 1, 2, 3)), 2);
  EXPECT_EQ(router->route_lookup(Ipv4Address(10, 2, 2, 3)), 1);
}

TEST(AsGen, BordersAndLinksAreConsistent) {
  Network net;
  AsTopology topo = AsTopology::generate(net, small_config());
  EXPECT_FALSE(topo.as_links().empty());
  for (auto [x, y] : topo.as_links()) {
    EXPECT_LT(x, y);
    EXPECT_LT(y, topo.ases().size());
  }
  for (size_t i = 0; i < topo.ases().size(); ++i) {
    EXPECT_EQ(topo.border(i), topo.ases()[i].routers.front());
    EXPECT_EQ(topo.ases()[i].routers.size(),
              topo.config().routers_per_as);
  }
}

}  // namespace
}  // namespace sm::netsim
