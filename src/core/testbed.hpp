// The reference testbed: the paper's Figure 1 topology, generalized.
//
// A client AS (the measurement client plus N neighbor hosts in one /24)
// hangs off a router that plays the Open vSwitch box: the surveillance
// MVR tap observes every forwarded packet, then the censor tap enforces.
// The far side hosts the measured services: an open web+mail site, a
// blocked web+mail site, an authoritative DNS server, and an "AWS-hosted"
// measurement server we control (for stateful mimicry).
//
//   client, neighbors ──┐
//                       ├── router [MVR tap → censor tap] ──┬── web/dns/mail
//                       │                                   └── measurement
//
// Everything is owned by the Testbed; probes borrow references.
#pragma once

#include <memory>
#include <vector>

#include "censor/engine.hpp"
#include "censor/gfc.hpp"
#include "common/time.hpp"
#include "netsim/topology.hpp"
#include "netsim/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "proto/dns/client.hpp"
#include "proto/dns/server.hpp"
#include "proto/http/client.hpp"
#include "proto/http/server.hpp"
#include "proto/smtp/client.hpp"
#include "proto/smtp/server.hpp"
#include "proto/tcp/stack.hpp"
#include "spoof/cover.hpp"
#include "spoof/sav.hpp"
#include "surveillance/mvr.hpp"

namespace sm::core {

using common::Duration;
using common::Ipv4Address;

struct TestbedConfig {
  censor::CensorPolicy policy = censor::gfc_profile();
  surveillance::MvrConfig mvr;
  /// Cover hosts in the client's /24 besides the client itself.
  size_t neighbor_count = 20;
  /// Give neighbors real TCP stacks (so unexpected segments draw RSTs —
  /// the §4.1 replay hazard).
  bool neighbors_have_stacks = true;
  /// Enforce source-address validation at the client-side router ports
  /// using the Beverly-calibrated model.
  bool enable_sav = false;
  spoof::SavDistribution sav_distribution;
  uint64_t sav_seed = 42;
  /// Per-segment link profiles, impairments included: `client_link` is
  /// every client-AS↔router (tap-side) segment, `server_link` every
  /// router↔service segment. Lossy/bursty/flapping paths are configured
  /// here (see netsim::Impairment).
  netsim::LinkConfig client_link{.latency = common::Duration::micros(500)};
  netsim::LinkConfig server_link{.latency = common::Duration::millis(5)};
  /// Root for the topology's per-link RNG streams (loss, bursts,
  /// reordering, ...). Campaigns derive this per trial (substream 2) so
  /// repeated trials see independent loss patterns.
  uint64_t netsim_seed = 0x11EB5EED;
  /// Retransmit budget for the shared client resolver: a lost UDP query
  /// or answer is retried this many times before QueryResult times out.
  size_t dns_retries = 0;
  common::Duration dns_timeout = common::Duration::millis(2000);
  /// Shared secret for stateful mimicry ISN prediction.
  uint64_t mimicry_secret = 0xFEED5EED;
  /// Turns on the metrics layer: probes count their runs and
  /// metrics_snapshot() bridges all subsystem counters into the
  /// registry. Off by default; enabling it changes no verdict, alert
  /// count, or event ordering — only what gets recorded about them.
  bool enable_observability = false;
  /// Bound on the packet-capture tap (0 = unbounded; see
  /// TraceTap::set_max_records).
  size_t capture_max_records = 0;
  /// Turns on the provenance layer: a causal event graph linking probe
  /// attempts → packets → hops/impairments → tap observations → the
  /// verdict. Independent of enable_observability (alerts resolve to
  /// their causing packets either way); like it, enabling changes no
  /// verdict or event ordering — only what gets recorded.
  bool enable_provenance = false;
};

/// Well-known addresses inside the testbed.
struct TestbedAddresses {
  Ipv4Address client{10, 1, 1, 10};
  Ipv4Address neighbor_base{10, 1, 1, 100};
  Ipv4Address web_open{198, 18, 0, 80};
  Ipv4Address web_blocked{198, 18, 0, 90};
  Ipv4Address dns{198, 18, 0, 53};
  Ipv4Address mail_open{198, 18, 1, 25};
  Ipv4Address mail_blocked{198, 18, 1, 26};
  Ipv4Address measurement{203, 0, 113, 50};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  // Topology.
  netsim::Network net;
  netsim::Router* router = nullptr;
  netsim::Host* client = nullptr;
  std::vector<netsim::Host*> neighbors;
  netsim::Host* web_open = nullptr;
  netsim::Host* web_blocked = nullptr;
  netsim::Host* dns_host = nullptr;
  netsim::Host* mail_open = nullptr;
  netsim::Host* mail_blocked = nullptr;
  netsim::Host* measurement_server = nullptr;

  // Taps (owned here, registered on the router; MVR first, censor second).
  std::unique_ptr<surveillance::MvrTap> mvr;
  std::unique_ptr<censor::CensorTap> censor_tap;
  std::unique_ptr<netsim::TraceTap> trace;

  // Client-side protocol machinery.
  std::unique_ptr<proto::tcp::Stack> client_stack;
  std::unique_ptr<proto::dns::Client> resolver;

  // Server-side services.
  std::unique_ptr<proto::tcp::Stack> web_open_stack;
  std::unique_ptr<proto::http::Server> web_open_http;
  std::unique_ptr<proto::tcp::Stack> web_blocked_stack;
  std::unique_ptr<proto::http::Server> web_blocked_http;
  std::unique_ptr<proto::dns::Server> dns_server;
  std::unique_ptr<proto::tcp::Stack> mail_open_stack;
  std::unique_ptr<proto::smtp::Server> smtp_open;
  std::unique_ptr<proto::tcp::Stack> mail_blocked_stack;
  std::unique_ptr<proto::smtp::Server> smtp_blocked;
  std::unique_ptr<proto::tcp::Stack> measurement_stack;
  std::unique_ptr<proto::http::Server> measurement_http;
  std::unique_ptr<spoof::MimicryServer> mimicry_server;

  // Neighbor stacks (keep unexpected-segment RST behaviour realistic).
  std::vector<std::unique_ptr<proto::tcp::Stack>> neighbor_stacks;

  const TestbedConfig& config() const { return config_; }
  const TestbedAddresses& addr() const { return addr_; }

  // Observability: the metrics registry and the provenance graph, always
  // constructed; enabled per TestbedConfig::enable_observability and
  // enable_provenance.
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }
  obs::ProvenanceGraph& provenance() { return *provenance_; }
  const obs::ProvenanceGraph& provenance() const { return *provenance_; }
  /// The graph when provenance is on, nullptr otherwise — probes hand
  /// this to record()/ScopedCause call sites, which no-op on null.
  obs::ProvenanceGraph* prov_sink() {
    return config_.enable_provenance ? provenance_.get() : nullptr;
  }
  /// provenance().to_json() when enabled, "" otherwise. Byte-deterministic.
  std::string provenance_json();

  /// Pulls every subsystem's counters into the registry (netsim engine,
  /// router, MVR, censor, capture tap) and returns it. Deterministic:
  /// two identically-seeded runs snapshot byte-identically.
  obs::Registry& metrics_snapshot();
  /// metrics_snapshot() rendered as JSON.
  std::string metrics_json();

  /// Addresses of all client-AS hosts (client + neighbors).
  std::vector<Ipv4Address> client_as_addresses() const;
  /// Neighbor addresses only (spoofing candidates).
  std::vector<Ipv4Address> neighbor_addresses() const;

  /// Runs the simulation until `predicate` holds or `timeout` of virtual
  /// time elapses. Returns true if the predicate held.
  bool run_until(const std::function<bool()>& predicate,
                 Duration timeout = Duration::seconds(30));
  void run_for(Duration d) { net.run_for(d); }

  /// Number of router hops between the client AS and the servers, as this
  /// topology is wired (single router): used by TTL planning tests.
  static constexpr int kHopsToTap = 1;

 private:
  TestbedConfig config_;
  TestbedAddresses addr_;
  std::unique_ptr<obs::Registry> metrics_;
  std::unique_ptr<obs::ProvenanceGraph> provenance_;
};

}  // namespace sm::core
