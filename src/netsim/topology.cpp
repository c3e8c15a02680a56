#include "netsim/topology.hpp"

#include "common/rng.hpp"

namespace sm::netsim {

Host* Network::add_host(const std::string& name, Ipv4Address address) {
  hosts_.push_back(std::make_unique<Host>(engine_, name, address));
  return hosts_.back().get();
}

Router* Network::add_router(const std::string& name) {
  routers_.push_back(std::make_unique<Router>(engine_, name));
  return routers_.back().get();
}

Link* Network::connect(Node* a, Node* b, LinkConfig config) {
  // Every link advances the seed chain, clean ones included, so adding
  // or removing an impairment never reseeds another link.
  links_.push_back(std::make_unique<Link>(
      engine_, deliveries_, config, common::splitmix64(link_seed_state_)));
  Link* link = links_.back().get();
  auto [port_a, port_b] = link->connect(a, b);

  // Host-facing router ports get the /32 (and the dual-stack host's
  // /128) automatically. Link::connect reports each side's port
  // directly, so wiring one link is O(1) no matter how many ports the
  // router already has.
  auto wire_route = [](Node* maybe_router, int router_port,
                       Node* maybe_host) {
    if (maybe_router->kind() != NodeKind::Router ||
        maybe_host->kind() != NodeKind::Host) {
      return;
    }
    auto* router = static_cast<Router*>(maybe_router);
    auto* host = static_cast<Host*>(maybe_host);
    router->add_route(common::Cidr(host->address(), 32), router_port);
    router->add_route6(common::Cidr6(host->address6(), 128), router_port);
  };
  wire_route(a, port_a, b);
  wire_route(b, port_b, a);
  return link;
}

namespace {

// Link counters, each summed over every link.
const obs::StatCounter<LinkStats> kLinkCounters[] = {
    {&LinkStats::sent, "sm_link_packets_sent_total",
     "packets handed to any link for transmission"},
    {&LinkStats::delivered, "sm_link_packets_delivered_total",
     "packets delivered by links (duplicates included)"},
    {&LinkStats::dropped_loss, "sm_link_dropped_loss_total",
     "packets dropped by i.i.d. random loss"},
    {&LinkStats::dropped_burst, "sm_link_dropped_burst_total",
     "packets dropped inside Gilbert-Elliott loss bursts"},
    {&LinkStats::dropped_down, "sm_link_dropped_down_total",
     "packets dropped while a link was flapped down"},
    {&LinkStats::dropped_corrupt, "sm_link_dropped_corrupt_total",
     "corrupted packets discarded by receiver checksums"},
    {&LinkStats::duplicated, "sm_link_duplicated_total",
     "extra packet copies delivered by duplication"},
    {&LinkStats::reordered, "sm_link_reordered_total",
     "packets delayed by reorder jitter"},
    {&LinkStats::corrupted, "sm_link_corrupted_delivered_total",
     "packets delivered with flipped bytes"},
};

}  // namespace

void Network::export_link_metrics(obs::Registry& registry) const {
  for (const auto& [field, family] : kLinkCounters) {
    uint64_t total = 0;
    for (const auto& l : links_) total += l->stats().*field;
    registry.counter(family)->set(total);
  }
}

Host* Network::host(const std::string& name) const {
  for (const auto& h : hosts_)
    if (h->name() == name) return h.get();
  return nullptr;
}

Router* Network::router(const std::string& name) const {
  for (const auto& r : routers_)
    if (r->name() == name) return r.get();
  return nullptr;
}

}  // namespace sm::netsim
