// Overt baselines: how existing client platforms (OONI [16],
// Centinel [24]) measure — a direct DNS lookup and a direct HTTP fetch,
// with the platform's identifiable fingerprint in the request. These are
// the comparison points the stealthy techniques are judged against: same
// accuracy, but the fingerprint hands the surveillance system an
// attribution on a plate.
#pragma once

#include <set>

#include "core/probe.hpp"

namespace sm::core {

struct OvertDnsOptions {
  std::string domain = "blocked.example";
  proto::dns::RecordType type = proto::dns::RecordType::A;
};

/// Direct A lookup through the configured resolver.
class OvertDnsProbe : public Probe {
 public:
  OvertDnsProbe(Testbed& tb, OvertDnsOptions options = {});

 private:
  void launch() override;

  OvertDnsOptions options_;
  std::set<uint32_t> forged_ips_;
};

struct OvertHttpOptions {
  std::string domain = "blocked.example";
  std::string path = "/";
  /// The identifying fingerprint an overt platform carries.
  std::string user_agent = "OONI-Probe/2.0 censorship-probe";
};

/// DNS lookup then HTTP GET with the platform fingerprint.
class OvertHttpProbe : public Probe {
 public:
  OvertHttpProbe(Testbed& tb, OvertHttpOptions options = {});

 private:
  void launch() override;
  void fetch(common::Ipv4Address address);
  void conclude_fetch(Verdict v, std::string detail);

  OvertHttpOptions options_;
  std::set<uint32_t> forged_ips_;
  std::unique_ptr<proto::http::Client> http_;
};

/// Shared helper: classify a DNS QueryResult against the known-forged
/// address set. Returns nullopt when resolution succeeded cleanly (the
/// address is in `out_address`).
std::optional<std::pair<Verdict, std::string>> classify_dns(
    const proto::dns::QueryResult& result,
    const std::set<uint32_t>& forged_ips, common::Ipv4Address* out_address);

/// The verdict and detail of a lookup that is itself the measurement
/// (overt DNS, stateless DNS mimicry): classify_dns's finding, or
/// Reachable with the resolved address.
std::pair<Verdict, std::string> dns_verdict(
    const proto::dns::QueryResult& result,
    const std::set<uint32_t>& forged_ips);

/// The forged-address hint list probes use (models the published GFC
/// forged-IP pools from the DNS-censorship literature).
std::set<uint32_t> forged_hints(const Testbed& tb);

/// Heuristic blockpage detector: 4xx/5xx with filtering vocabulary, or a
/// body dominated by known blockpage phrases. Field tools compare against
/// a control fetch; in the testbed the phrase list suffices.
bool looks_like_blockpage(const proto::http::Response& response);

/// Maps an HTTP fetch outcome (plus blockpage inspection) to a verdict.
std::pair<Verdict, std::string> classify_fetch(
    const proto::http::FetchResult& result);

}  // namespace sm::core
