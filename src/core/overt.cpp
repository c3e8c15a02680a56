#include "core/overt.hpp"

#include "common/strings.hpp"

namespace sm::core {

std::set<uint32_t> forged_hints(const Testbed& tb) {
  std::set<uint32_t> out;
  for (const auto& [domain, addr] : tb.config().policy.dns_forgeries)
    out.insert(addr.value());
  return out;
}

std::optional<std::pair<Verdict, std::string>> classify_dns(
    const proto::dns::QueryResult& result,
    const std::set<uint32_t>& forged_ips, common::Ipv4Address* out_address) {
  using proto::dns::Rcode;
  if (!result.answered())
    return std::make_pair(Verdict::BlockedTimeout, "dns query timed out");
  const auto& resp = *result.response;
  if (resp.header.rcode == Rcode::NxDomain)
    return std::make_pair(Verdict::Inconclusive, "nxdomain");
  if (resp.header.rcode != Rcode::NoError)
    return std::make_pair(Verdict::Inconclusive,
                          "rcode " + to_string(resp.header.rcode));
  auto addr = resp.first_a();
  if (!addr)
    return std::make_pair(Verdict::Inconclusive, "empty answer");
  if (forged_ips.count(addr->value()) || addr->is_private() ||
      addr->is_loopback()) {
    return std::make_pair(Verdict::BlockedDnsForgery,
                          "forged answer " + addr->to_string());
  }
  if (out_address) *out_address = *addr;
  return std::nullopt;
}

std::pair<Verdict, std::string> dns_verdict(
    const proto::dns::QueryResult& result,
    const std::set<uint32_t>& forged_ips) {
  common::Ipv4Address addr;
  if (auto blocked = classify_dns(result, forged_ips, &addr))
    return *blocked;
  return {Verdict::Reachable, "resolved to " + addr.to_string()};
}

bool looks_like_blockpage(const proto::http::Response& response) {
  static const char* kPhrases[] = {
      "access to this site is denied", "this page has been blocked",
      "blocked by order", "access denied by the national",
      "عذراً، الموقع محجوب",  // "sorry, the site is blocked"
  };
  for (const char* phrase : kPhrases)
    if (common::icontains(response.body, phrase)) return true;
  return false;
}

std::pair<Verdict, std::string> classify_fetch(
    const proto::http::FetchResult& result) {
  using proto::http::FetchOutcome;
  switch (result.outcome) {
    case FetchOutcome::Ok:
      if (looks_like_blockpage(*result.response))
        return {Verdict::BlockedBlockpage,
                "blockpage served (status " +
                    std::to_string(result.response->status) + ")"};
      return {Verdict::Reachable,
              "status " + std::to_string(result.response->status)};
    case FetchOutcome::ConnectReset:
    case FetchOutcome::ResetMidStream:
      return {Verdict::BlockedRst, std::string(to_string(result.outcome))};
    case FetchOutcome::ConnectTimeout:
    case FetchOutcome::Timeout:
      return {Verdict::BlockedTimeout,
              std::string(to_string(result.outcome))};
    case FetchOutcome::ProtocolError:
      return {Verdict::Inconclusive, "protocol error"};
  }
  return {Verdict::Inconclusive, "?"};
}

// --- OvertDnsProbe ---

OvertDnsProbe::OvertDnsProbe(Testbed& tb, OvertDnsOptions options)
    : Probe(tb, "overt-dns", options.domain, 1),
      options_(std::move(options)),
      forged_ips_(forged_hints(tb)) {}

void OvertDnsProbe::launch() {
  begin_attempt();
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), options_.type,
      guarded([this](const proto::dns::QueryResult& result) {
        ++report_.packets_sent;
        auto [verdict, detail] = dns_verdict(result, forged_ips_);
        finish(verdict, std::move(detail), confidence_from(verdict),
               result.answered() ? "dns-answer" : "dns-timeout");
      }));
}

// --- OvertHttpProbe ---

OvertHttpProbe::OvertHttpProbe(Testbed& tb, OvertHttpOptions options)
    : Probe(tb, "overt-http", options.domain + options.path, 1),
      options_(std::move(options)),
      forged_ips_(forged_hints(tb)) {
  http_ = std::make_unique<proto::http::Client>(*tb_.client_stack);
}

void OvertHttpProbe::conclude_fetch(Verdict v, std::string detail) {
  finish(v, std::move(detail), confidence_from(v),
         is_blocked(v) ? "blocked" : "response");
}

void OvertHttpProbe::launch() {
  begin_attempt();
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), proto::dns::RecordType::A,
      guarded([this](const proto::dns::QueryResult& result) {
        common::Ipv4Address addr;
        if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
          conclude_fetch(blocked->first, blocked->second);
          return;
        }
        fetch(addr);
      }));
}

void OvertHttpProbe::fetch(common::Ipv4Address address) {
  proto::http::Request req = proto::http::Request::get(options_.domain,
                                                       options_.path);
  // Replace the browser User-Agent with the platform fingerprint — this
  // is precisely what makes the overt baseline attributable.
  for (auto& [k, v] : req.headers)
    if (common::iequals(k, "User-Agent")) v = options_.user_agent;

  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  http_->fetch(address, 80, req,
               guarded([this](const proto::http::FetchResult& result) {
                 auto [verdict, detail] = classify_fetch(result);
                 conclude_fetch(verdict, std::move(detail));
               }));
}

}  // namespace sm::core
