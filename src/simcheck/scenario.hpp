// The scenario model: one point of the composition space simcheck
// explores.
//
// A Scenario is a *complete, serializable* description of a trial —
// censor policy elements, link impairment, SAV, topology width, probe
// technique and its knobs — with the ground truth attached: every
// censor rule records whether it was constructed to hit the probe's
// path (`aimed`) or to sit elsewhere in the policy as clutter. The
// oracles judge the run against that construction-time truth, and the
// shrinker edits the structure directly (drop a rule, zero a loss
// field), which is why this is a plain data model rather than a
// TestbedConfig: a TestbedConfig cannot answer "was that verdict
// correct?" or "which of your parts can I delete?".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/probe.hpp"
#include "core/testbed.hpp"
#include "core/verdict.hpp"

namespace sm::simcheck {

using common::Json;

/// Probe techniques the generator samples — the paper's three mimicry
/// methods, both §4 spoofing techniques, the overt baselines, and the
/// control probes.
enum class Technique {
  Ping,
  SynReach,
  Scan,
  Spam,
  Ddos,
  OvertDns,
  OvertHttp,
  MimicryDns,
  MimicryStateful,
};
constexpr size_t kTechniqueCount = 9;

std::string_view to_string(Technique t);
std::optional<Technique> technique_from_string(std::string_view s);

/// Censor mechanisms (mirrors censor::CensorPolicy's five knobs).
enum class Mechanism {
  KeywordRst,
  DnsForgery,
  NullRoute,
  PortBlock,
  Blockpage,
};

std::string_view to_string(Mechanism m);
std::optional<Mechanism> mechanism_from_string(std::string_view s);

/// One censor policy element. `aimed` is the ground-truth tag: the
/// generator either aims a rule at the probe's path (keyword the probe's
/// traffic carries, the address it connects to, the domain it resolves)
/// or points it somewhere the probe provably never touches.
struct CensorRule {
  Mechanism mechanism = Mechanism::NullRoute;
  bool aimed = false;
  std::string text;            // keyword (KeywordRst/Blockpage), domain (DnsForgery)
  common::Ipv4Address address; // NullRoute / PortBlock target
  uint16_t port = 0;           // PortBlock

  bool operator==(const CensorRule&) const = default;
};

/// Where impairment applies in the Figure 1 topology.
enum class ImpairedSegment { None, ClientSide, ServerSide, Both };

/// Link impairment for the scenario, bounded by the generator to the
/// regime DESIGN.md §9 calls distinguishable (silence-robust verdicts
/// hold; total blackouts are out of scope by construction).
struct ImpairmentSpec {
  ImpairedSegment where = ImpairedSegment::None;
  double iid_loss = 0.0;
  netsim::Impairment model;

  bool any() const { return where != ImpairedSegment::None &&
                            (iid_loss > 0.0 || model.any()); }
};

/// Services a probe can address directly (indices are stable across
/// serialization; addresses come from core::TestbedAddresses).
enum class Service { WebOpen, WebBlocked, MailOpen, Measurement };

std::string_view to_string(Service s);
std::optional<Service> service_from_string(std::string_view s);

struct Scenario {
  Technique technique = Technique::Ping;
  /// Domain for resolving techniques (OvertDns/OvertHttp/Spam/Ddos/
  /// MimicryDns); empty otherwise.
  std::string domain;
  /// Addressed service for Ping/SynReach/Scan (MimicryStateful is pinned
  /// to the measurement server).
  Service service = Service::WebOpen;
  /// Probe over IPv6 (Ping/SynReach only: the family-capable probes).
  /// Aimed address rules are installed for *both* families (see
  /// testbed_config), so ground truth is family-invariant and all five
  /// oracles judge v6 trials exactly as they judge v4 ones.
  bool ipv6 = false;
  std::vector<CensorRule> rules;
  ImpairmentSpec impair;
  bool sav = false;
  uint32_t neighbor_count = 4;
  uint32_t retry_attempts = 1;  // probe retry ladder depth
  uint32_t cover_count = 0;     // spoofed cover sources/flows
  uint32_t samples = 1;         // ping echoes / ddos requests / extra scan ports

  /// Ground truth: does any policy element interfere with this probe?
  bool censored() const;
  /// Verdicts a correct detector may return for the aimed mechanism
  /// (empty when uncensored). Only meaningful on unimpaired paths.
  std::vector<core::Verdict> expected_verdicts() const;

  /// Scenario complexity: the count the shrinker minimizes and the
  /// acceptance bound ("reproducer of <= N scenario elements") is
  /// measured in. One point per censor rule, per enabled impairment
  /// mechanism, and per non-minimal knob (SAV, extra neighbors, retries,
  /// cover, samples).
  size_t elements() const;

  /// Floors the shrinker must respect (mimicry needs one cover flow; the
  /// risk model wants a non-trivial AS population).
  static constexpr uint32_t kMinNeighbors = 2;
  uint32_t min_cover() const;

  /// The testbed this scenario describes. Seeds are supplied by the
  /// caller (the explorer derives them per trial index, campaign-style).
  core::TestbedConfig testbed_config(uint64_t sav_seed, uint64_t mvr_seed,
                                     uint64_t netsim_seed) const;
  /// Builds the scenario's probe bound to `tb`. `hops_to_tap_override`
  /// is the TTL fault hook's entry point (0 = use the honest topology
  /// constant).
  std::unique_ptr<core::Probe> make_probe(core::Testbed& tb,
                                          int hops_to_tap_override = 0) const;

  /// Address of `service` within the canonical testbed.
  static common::Ipv4Address service_address(Service s);
  /// Domain whose web content lives at `service` (for pairing an overt
  /// probe against an address-probing technique).
  static std::string service_domain(Service s);
  /// Does this technique resolve names through the testbed DNS?
  static bool resolves_dns(Technique t);
  /// Is this a stealth technique with an overt counterpart (O4)?
  static bool stealthy(Technique t);

  Json to_json() const;
  static std::optional<Scenario> from_json(const Json& j);
};

/// Structural equality via the canonical serialization (netsim's
/// impairment structs don't define operator==, and the serialized form
/// is exactly what the corpus stores anyway).
inline bool same_scenario(const Scenario& a, const Scenario& b) {
  return a.to_json().dump() == b.to_json().dump();
}

}  // namespace sm::simcheck
