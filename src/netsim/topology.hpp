// Topology container: owns the engine, nodes, and links, and wires them.
//
// All experiment topologies in this project are stars around one or two
// routers (the paper's Figure 1 is client -- switch -- server). When a
// Host is connected to a Router, a /32 route to the host is installed
// automatically; router-to-router routes are the caller's job.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netsim/engine.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/router.hpp"

namespace sm::netsim {

class Network {
 public:
  Network() = default;
  // Links, nodes and pending deliveries hold references into the engine
  // and the delivery pool, so a Network never moves.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Engine& engine() { return engine_; }

  Host* add_host(const std::string& name, Ipv4Address address);
  Router* add_router(const std::string& name);

  /// Sets the root from which per-link seeds are derived (SplitMix64
  /// chain, one step per connect()). Call before the first connect();
  /// two links never share a seed, so lossy links do not drop in
  /// lockstep, and the whole topology's randomness hangs off one root.
  void set_link_seed_root(uint64_t root) { link_seed_state_ = root; }

  /// Creates a link between two nodes. If exactly one endpoint is a
  /// Router and the other a Host, a /32 route to the host is added on the
  /// router automatically.
  Link* connect(Node* a, Node* b, LinkConfig config = {});

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// Sums every link's LinkStats into impairment counters in the
  /// registry (sm_link_* series).
  void export_link_metrics(obs::Registry& registry) const;

  Host* host(const std::string& name) const;
  Router* router(const std::string& name) const;

  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }

  /// Runs the simulation for `d` of virtual time.
  void run_for(common::Duration d) {
    engine_.run_until(engine_.now() + d);
  }

 private:
  Engine engine_;
  DeliveryPool deliveries_{engine_};
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Link>> links_;
  uint64_t link_seed_state_ = 0x11EB5EED;
};

}  // namespace sm::netsim
