#include "core/overt.hpp"

#include "common/strings.hpp"

namespace sm::core {

ProbeReport run_probe(Testbed& tb, Probe& probe, common::Duration timeout) {
  probe.start();
  tb.run_until([&probe]() { return probe.done(); }, timeout);
  ProbeReport report = probe.report();
  obs::Registry& reg = tb.metrics();
  if (reg.enabled()) {
    obs::Labels labels = {{"technique", report.technique}};
    reg.counter("sm_probe_runs_total", labels, "measurements executed")
        ->inc();
    reg.counter("sm_probe_runs_by_verdict_total",
                {{"technique", report.technique},
                 {"verdict", std::string(to_string(report.verdict))}},
                "measurements by final verdict")
        ->inc();
    reg.counter("sm_probe_packets_sent_total", labels,
                "probe packets transmitted")
        ->inc(report.packets_sent);
    reg.counter("sm_probe_samples_total", labels,
                "sub-measurements taken (ports, requests, ...)")
        ->inc(report.samples);
    reg.counter("sm_probe_samples_blocked_total", labels,
                "sub-measurements that observed blocking")
        ->inc(report.samples_blocked);
  }
  return report;
}

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
    : tb_(tb), options_(std::move(options)), forged_ips_(forged_hints(tb)) {
  report_.technique = "overt-dns";
  report_.target = options_.domain;
  report_.samples = 1;
}

void OvertDnsProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  prov_.attempt(tb_.net.engine().now(), 1);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), options_.type,
      [this, alive = guard()](const proto::dns::QueryResult& result) {
        if (alive.expired()) return;
        ++report_.packets_sent;
        common::Ipv4Address addr;
        if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
          report_.verdict = blocked->first;
          report_.detail = blocked->second;
          report_.samples_blocked = is_blocked(blocked->first) ? 1 : 0;
        } else {
          report_.verdict = Verdict::Reachable;
          report_.detail = "resolved to " + addr.to_string();
        }
        report_.confidence = confidence_from(report_.verdict);
        prov_.evidence(tb_.net.engine().now(),
                       result.answered() ? "dns-answer" : "dns-timeout",
                       report_.detail);
        prov_.verdict(tb_.net.engine().now(), report_);
        done_ = true;
      });
}

// --- OvertHttpProbe ---

OvertHttpProbe::OvertHttpProbe(Testbed& tb, OvertHttpOptions options)
    : tb_(tb), options_(std::move(options)), forged_ips_(forged_hints(tb)) {
  report_.technique = "overt-http";
  report_.target = options_.domain + options_.path;
  report_.samples = 1;
  http_ = std::make_unique<proto::http::Client>(*tb_.client_stack);
}

void OvertHttpProbe::finish(Verdict v, std::string detail) {
  if (done_) return;
  report_.verdict = v;
  report_.detail = std::move(detail);
  report_.samples_blocked = is_blocked(v) ? 1 : 0;
  report_.confidence = confidence_from(v);
  prov_.evidence(tb_.net.engine().now(),
                 is_blocked(v) ? "blocked" : "response", report_.detail);
  prov_.verdict(tb_.net.engine().now(), report_);
  done_ = true;
}

void OvertHttpProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  prov_.attempt(tb_.net.engine().now(), 1);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), proto::dns::RecordType::A,
      [this, alive = guard()](const proto::dns::QueryResult& result) {
        if (alive.expired()) return;
        common::Ipv4Address addr;
        if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
          finish(blocked->first, blocked->second);
          return;
        }
        fetch(addr);
      });
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
               [this, alive = guard()](
                   const proto::http::FetchResult& result) {
                 if (alive.expired()) return;
                 auto [verdict, detail] = classify_fetch(result);
                 finish(verdict, std::move(detail));
               });
}

}  // namespace sm::core
