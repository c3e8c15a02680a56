#include "simcheck/scenario.hpp"

#include <algorithm>

#include "core/ddos.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/ping.hpp"
#include "core/scan.hpp"
#include "core/spam.hpp"
#include "core/synprobe.hpp"
#include "core/top_ports.hpp"

namespace sm::simcheck {

using common::Duration;
using common::Ipv4Address;
using core::Verdict;

std::string_view to_string(Technique t) {
  switch (t) {
    case Technique::Ping: return "ping";
    case Technique::SynReach: return "syn-reach";
    case Technique::Scan: return "scan";
    case Technique::Spam: return "spam";
    case Technique::Ddos: return "ddos";
    case Technique::OvertDns: return "overt-dns";
    case Technique::OvertHttp: return "overt-http";
    case Technique::MimicryDns: return "mimicry-dns";
    case Technique::MimicryStateful: return "mimicry-stateful";
  }
  return "?";
}

std::optional<Technique> technique_from_string(std::string_view s) {
  for (size_t i = 0; i < kTechniqueCount; ++i) {
    Technique t = static_cast<Technique>(i);
    if (to_string(t) == s) return t;
  }
  return std::nullopt;
}

std::string_view to_string(Mechanism m) {
  switch (m) {
    case Mechanism::KeywordRst: return "keyword-rst";
    case Mechanism::DnsForgery: return "dns-forgery";
    case Mechanism::NullRoute: return "null-route";
    case Mechanism::PortBlock: return "port-block";
    case Mechanism::Blockpage: return "blockpage";
  }
  return "?";
}

std::optional<Mechanism> mechanism_from_string(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(Mechanism::Blockpage); ++i) {
    Mechanism m = static_cast<Mechanism>(i);
    if (to_string(m) == s) return m;
  }
  return std::nullopt;
}

std::string_view to_string(Service s) {
  switch (s) {
    case Service::WebOpen: return "web-open";
    case Service::WebBlocked: return "web-blocked";
    case Service::MailOpen: return "mail-open";
    case Service::Measurement: return "measurement";
  }
  return "?";
}

std::optional<Service> service_from_string(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(Service::Measurement); ++i) {
    Service svc = static_cast<Service>(i);
    if (to_string(svc) == s) return svc;
  }
  return std::nullopt;
}

Ipv4Address Scenario::service_address(Service s) {
  core::TestbedAddresses addr;
  switch (s) {
    case Service::WebOpen: return addr.web_open;
    case Service::WebBlocked: return addr.web_blocked;
    case Service::MailOpen: return addr.mail_open;
    case Service::Measurement: return addr.measurement;
  }
  return addr.web_open;
}

std::string Scenario::service_domain(Service s) {
  switch (s) {
    case Service::WebOpen: return "open.example";
    case Service::WebBlocked: return "blocked.example";
    case Service::MailOpen: return "open.example";
    case Service::Measurement: return "measure.example";
  }
  return "open.example";
}

bool Scenario::resolves_dns(Technique t) {
  switch (t) {
    case Technique::Spam:
    case Technique::Ddos:
    case Technique::OvertDns:
    case Technique::OvertHttp:
    case Technique::MimicryDns:
      return true;
    default:
      return false;
  }
}

bool Scenario::stealthy(Technique t) {
  switch (t) {
    case Technique::Scan:
    case Technique::SynReach:
    case Technique::Spam:
    case Technique::Ddos:
    case Technique::MimicryDns:
    case Technique::MimicryStateful:
      return true;
    default:
      return false;
  }
}

bool Scenario::censored() const {
  return std::any_of(rules.begin(), rules.end(),
                     [](const CensorRule& r) { return r.aimed; });
}

std::vector<Verdict> Scenario::expected_verdicts() const {
  auto aimed = std::find_if(rules.begin(), rules.end(),
                            [](const CensorRule& r) { return r.aimed; });
  if (aimed == rules.end()) return {};
  switch (aimed->mechanism) {
    case Mechanism::KeywordRst:
      return {Verdict::BlockedRst};
    case Mechanism::DnsForgery:
      return {Verdict::BlockedDnsForgery};
    case Mechanism::NullRoute:
    case Mechanism::PortBlock:
      return {Verdict::BlockedTimeout};
    case Mechanism::Blockpage:
      return {Verdict::BlockedBlockpage};
  }
  return {};
}

uint32_t Scenario::min_cover() const {
  switch (technique) {
    case Technique::MimicryDns:
    case Technique::MimicryStateful:
      return 1;  // mimicry without cover is not mimicry
    default:
      return 0;
  }
}

size_t Scenario::elements() const {
  size_t n = rules.size();
  if (ipv6) ++n;  // the shrinker tries the v4 rendering first
  if (impair.where != ImpairedSegment::None) {
    if (impair.iid_loss > 0.0) ++n;
    if (impair.model.burst.enabled()) ++n;
    if (impair.model.reorder_rate > 0.0) ++n;
    if (impair.model.duplicate_rate > 0.0) ++n;
    if (impair.model.corrupt_rate > 0.0) ++n;
    if (impair.model.flap.enabled()) ++n;
  }
  if (sav) ++n;
  if (neighbor_count > kMinNeighbors) ++n;
  if (retry_attempts > 1) ++n;
  if (cover_count > min_cover()) ++n;
  if (samples > 1) ++n;
  return n;
}

core::TestbedConfig Scenario::testbed_config(uint64_t sav_seed,
                                             uint64_t mvr_seed,
                                             uint64_t netsim_seed) const {
  core::TestbedConfig config;
  config.policy = censor::CensorPolicy{};
  for (const CensorRule& r : rules) {
    switch (r.mechanism) {
      case Mechanism::KeywordRst:
        config.policy.rst_keywords.push_back(r.text);
        break;
      case Mechanism::DnsForgery:
        config.policy.dns_forgeries[r.text] = Ipv4Address(8, 7, 198, 45);
        break;
      case Mechanism::NullRoute:
        // Address rules cover both families: without the paired v6
        // entry a v6 trial would sail past a v4-only rule (the censor's
        // family blindness is real and measured — by the eval matrix's
        // E25 rows — but it would wreck the scenario's ground truth).
        config.policy.blocked_ips.push_back(r.address);
        config.policy.blocked_ips6.push_back(common::map_v6(r.address));
        break;
      case Mechanism::PortBlock:
        config.policy.blocked_ports.emplace_back(r.address, r.port);
        config.policy.blocked_ports6.emplace_back(common::map_v6(r.address),
                                                  r.port);
        break;
      case Mechanism::Blockpage:
        config.policy.blockpage_keywords.push_back(r.text);
        break;
    }
  }
  config.neighbor_count = neighbor_count;
  config.enable_sav = sav;
  config.sav_seed = sav_seed;
  config.mvr.sampling_seed = mvr_seed;
  config.netsim_seed = netsim_seed;
  // The oracles need the capture tap and byte-stable metrics; bound the
  // capture so heavy scenarios cannot grow it without limit.
  config.enable_observability = true;
  config.capture_max_records = 4096;
  // O2 byte-compares the graph export, O4 walks it for attribution.
  config.enable_provenance = true;
  // The resolver shares the probe's retry discipline.
  config.dns_retries = retry_attempts > 0 ? retry_attempts - 1 : 0;
  if (impair.where != ImpairedSegment::None) {
    bool client_side = impair.where == ImpairedSegment::ClientSide ||
                       impair.where == ImpairedSegment::Both;
    bool server_side = impair.where == ImpairedSegment::ServerSide ||
                       impair.where == ImpairedSegment::Both;
    if (client_side) {
      config.client_link.loss_rate = impair.iid_loss;
      config.client_link.impairment = impair.model;
    }
    if (server_side) {
      config.server_link.loss_rate = impair.iid_loss;
      config.server_link.impairment = impair.model;
    }
  }
  return config;
}

std::unique_ptr<core::Probe> Scenario::make_probe(
    core::Testbed& tb, int hops_to_tap_override) const {
  core::RetryPolicy retry{.max_attempts = std::max<size_t>(1, retry_attempts),
                          .backoff = Duration::millis(100)};
  switch (technique) {
    case Technique::Ping: {
      core::PingOptions opts;
      opts.target = common::map_family(service_address(service), ipv6);
      opts.count = std::max<uint32_t>(1, samples);
      opts.retry = retry;
      return std::make_unique<core::PingProbe>(tb, opts);
    }
    case Technique::SynReach: {
      core::SynReachabilityOptions opts;
      opts.target = common::map_family(service_address(service), ipv6);
      opts.port = 80;
      opts.cover_count = cover_count;
      opts.retry = retry;
      return std::make_unique<core::SynReachabilityProbe>(tb, opts);
    }
    case Technique::Scan: {
      core::ScanOptions opts;
      opts.target = service_address(service);
      // Port 80 (the expectation anchor) plus `samples - 1` common ports.
      opts.ports = {80};
      for (uint16_t p : core::top_tcp_ports(32)) {
        if (opts.ports.size() >= std::max<uint32_t>(1, samples)) break;
        if (p != 80) opts.ports.push_back(p);
      }
      opts.expected_open = {80};
      opts.retry = retry;
      return std::make_unique<core::ScanProbe>(tb, opts);
    }
    case Technique::Spam: {
      core::SpamOptions opts;
      opts.domain = domain;
      opts.retry = retry;
      return std::make_unique<core::SpamProbe>(tb, opts);
    }
    case Technique::Ddos: {
      core::DdosOptions opts;
      opts.domain = domain;
      opts.requests = std::max<uint32_t>(1, samples);
      opts.retry = retry;
      return std::make_unique<core::DdosProbe>(tb, opts);
    }
    case Technique::OvertDns: {
      core::OvertDnsOptions opts;
      opts.domain = domain;
      return std::make_unique<core::OvertDnsProbe>(tb, opts);
    }
    case Technique::OvertHttp: {
      core::OvertHttpOptions opts;
      opts.domain = domain;
      return std::make_unique<core::OvertHttpProbe>(tb, opts);
    }
    case Technique::MimicryDns: {
      core::StatelessMimicryOptions opts;
      opts.domain = domain;
      opts.cover_count = std::max(cover_count, min_cover());
      return std::make_unique<core::StatelessDnsMimicryProbe>(tb, opts);
    }
    case Technique::MimicryStateful: {
      core::StatefulMimicryOptions opts;
      opts.path = censored() ? "/search?q=falun" : "/probe/health";
      opts.cover_flows = std::max(cover_count, min_cover());
      opts.hops_to_tap = hops_to_tap_override > 0
                             ? hops_to_tap_override
                             : core::Testbed::kHopsToTap;
      opts.hops_to_client = core::Testbed::kHopsToTap;
      return std::make_unique<core::StatefulMimicryProbe>(tb, opts);
    }
  }
  return nullptr;
}

namespace {

Json duration_json(Duration d) { return Json::integer(d.count()); }

Duration duration_from(const Json* j) {
  return Duration(j ? j->as_int() : 0);
}

std::string addr_string(Ipv4Address a) { return a.to_string(); }

std::optional<Ipv4Address> addr_from(const Json* j) {
  if (!j) return std::nullopt;
  return Ipv4Address::parse(j->as_string());
}

}  // namespace

Json Scenario::to_json() const {
  Json j = Json::object();
  j.set("technique", Json::string(std::string(to_string(technique))));
  if (!domain.empty()) j.set("domain", Json::string(domain));
  j.set("service", Json::string(std::string(to_string(service))));
  // Emitted only when set, so the existing v4 corpus serializes (and
  // hashes) exactly as before this field existed.
  if (ipv6) j.set("ipv6", Json::boolean(true));
  Json rules_json = Json::array();
  for (const CensorRule& r : rules) {
    Json rj = Json::object();
    rj.set("mechanism", Json::string(std::string(to_string(r.mechanism))));
    rj.set("aimed", Json::boolean(r.aimed));
    if (!r.text.empty()) rj.set("text", Json::string(r.text));
    if (r.mechanism == Mechanism::NullRoute ||
        r.mechanism == Mechanism::PortBlock) {
      rj.set("address", Json::string(addr_string(r.address)));
    }
    if (r.mechanism == Mechanism::PortBlock) {
      rj.set("port", Json::integer(r.port));
    }
    rules_json.push_back(std::move(rj));
  }
  j.set("rules", std::move(rules_json));
  Json imp = Json::object();
  const char* where = "none";
  switch (impair.where) {
    case ImpairedSegment::None: where = "none"; break;
    case ImpairedSegment::ClientSide: where = "client"; break;
    case ImpairedSegment::ServerSide: where = "server"; break;
    case ImpairedSegment::Both: where = "both"; break;
  }
  imp.set("where", Json::string(where));
  imp.set("iid_loss", Json::number(impair.iid_loss));
  imp.set("burst_p_enter", Json::number(impair.model.burst.p_enter));
  imp.set("burst_p_exit", Json::number(impair.model.burst.p_exit));
  imp.set("burst_loss_good", Json::number(impair.model.burst.loss_good));
  imp.set("burst_loss_bad", Json::number(impair.model.burst.loss_bad));
  imp.set("reorder_rate", Json::number(impair.model.reorder_rate));
  imp.set("reorder_jitter_ns", duration_json(impair.model.reorder_jitter));
  imp.set("duplicate_rate", Json::number(impair.model.duplicate_rate));
  imp.set("duplicate_lag_ns", duration_json(impair.model.duplicate_lag));
  imp.set("corrupt_rate", Json::number(impair.model.corrupt_rate));
  imp.set("flap_period_ns", duration_json(impair.model.flap.period));
  imp.set("flap_down_for_ns", duration_json(impair.model.flap.down_for));
  imp.set("flap_offset_ns", duration_json(impair.model.flap.offset));
  j.set("impairment", std::move(imp));
  j.set("sav", Json::boolean(sav));
  j.set("neighbors", Json::integer(neighbor_count));
  j.set("retry_attempts", Json::integer(retry_attempts));
  j.set("cover_count", Json::integer(cover_count));
  j.set("samples", Json::integer(samples));
  return j;
}

std::optional<Scenario> Scenario::from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  Scenario s;
  const Json* technique = j.get("technique");
  if (!technique) return std::nullopt;
  auto t = technique_from_string(technique->as_string());
  if (!t) return std::nullopt;
  s.technique = *t;
  if (const Json* domain = j.get("domain")) s.domain = domain->as_string();
  if (const Json* service = j.get("service")) {
    auto svc = service_from_string(service->as_string());
    if (!svc) return std::nullopt;
    s.service = *svc;
  }
  if (const Json* v6 = j.get("ipv6")) s.ipv6 = v6->as_bool();
  if (const Json* rules = j.get("rules")) {
    for (const Json& rj : rules->items()) {
      CensorRule r;
      const Json* mech = rj.get("mechanism");
      if (!mech) return std::nullopt;
      auto m = mechanism_from_string(mech->as_string());
      if (!m) return std::nullopt;
      r.mechanism = *m;
      if (const Json* aimed = rj.get("aimed")) r.aimed = aimed->as_bool();
      if (const Json* text = rj.get("text")) r.text = text->as_string();
      if (auto addr = addr_from(rj.get("address"))) r.address = *addr;
      if (const Json* port = rj.get("port")) {
        r.port = static_cast<uint16_t>(port->as_int());
      }
      s.rules.push_back(std::move(r));
    }
  }
  if (const Json* imp = j.get("impairment")) {
    std::string where =
        imp->get("where") ? imp->get("where")->as_string() : "none";
    if (where == "client") s.impair.where = ImpairedSegment::ClientSide;
    else if (where == "server") s.impair.where = ImpairedSegment::ServerSide;
    else if (where == "both") s.impair.where = ImpairedSegment::Both;
    else s.impair.where = ImpairedSegment::None;
    auto num = [&](const char* key) {
      const Json* v = imp->get(key);
      return v ? v->as_double() : 0.0;
    };
    s.impair.iid_loss = num("iid_loss");
    s.impair.model.burst.p_enter = num("burst_p_enter");
    s.impair.model.burst.p_exit = num("burst_p_exit");
    s.impair.model.burst.loss_good = num("burst_loss_good");
    s.impair.model.burst.loss_bad = num("burst_loss_bad");
    s.impair.model.reorder_rate = num("reorder_rate");
    s.impair.model.reorder_jitter = duration_from(imp->get("reorder_jitter_ns"));
    s.impair.model.duplicate_rate = num("duplicate_rate");
    s.impair.model.duplicate_lag = duration_from(imp->get("duplicate_lag_ns"));
    s.impair.model.corrupt_rate = num("corrupt_rate");
    s.impair.model.flap.period = duration_from(imp->get("flap_period_ns"));
    s.impair.model.flap.down_for = duration_from(imp->get("flap_down_for_ns"));
    s.impair.model.flap.offset = duration_from(imp->get("flap_offset_ns"));
  }
  if (const Json* sav = j.get("sav")) s.sav = sav->as_bool();
  if (const Json* n = j.get("neighbors")) {
    s.neighbor_count = static_cast<uint32_t>(n->as_int());
  }
  if (const Json* n = j.get("retry_attempts")) {
    s.retry_attempts = static_cast<uint32_t>(n->as_int());
  }
  if (const Json* n = j.get("cover_count")) {
    s.cover_count = static_cast<uint32_t>(n->as_int());
  }
  if (const Json* n = j.get("samples")) {
    s.samples = static_cast<uint32_t>(n->as_int());
  }
  return s;
}

}  // namespace sm::simcheck
