#include "core/ddos.hpp"

#include <algorithm>

#include "common/strings.hpp"

#include "core/overt.hpp"

namespace sm::core {

DdosProbe::DdosProbe(Testbed& tb, DdosOptions options)
    : Probe(tb, "ddos", options.domain + options.path, options.requests),
      options_(std::move(options)),
      dns_ladder_(options_.retry),
      forged_ips_(forged_hints(tb)) {
  http_ = std::make_unique<proto::http::Client>(*tb_.client_stack);
}

void DdosProbe::launch() {
  begin_attempt(dns_ladder_);
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), proto::dns::RecordType::A,
      guarded([this](const proto::dns::QueryResult& result) {
        common::Ipv4Address addr;
        auto blocked = classify_dns(result, forged_ips_, &addr);
        if (!blocked) {
          flood(addr);
          return;
        }
        // Silence gets the retry ladder; forgery/NXDOMAIN are final.
        Verdict v = blocked->first;
        if (v == Verdict::BlockedTimeout &&
            retry(dns_ladder_, [this]() { launch(); }))
          return;
        finish(v, "dns: " + blocked->second,
               confidence_from(v, dns_ladder_.silent_before()),
               is_blocked(v) ? "dns-blocked" : "inconclusive");
      }));
}

void DdosProbe::flood(common::Ipv4Address address) {
  samples_.assign(options_.requests, Verdict::Inconclusive);
  sample_ladders_.assign(options_.requests, AttemptLadder(options_.retry));
  for (size_t i = 0; i < options_.requests; ++i) {
    after(options_.gap * static_cast<int64_t>(i),
          [this, address, i]() { fetch_sample(address, i); });
  }
}

void DdosProbe::fetch_sample(common::Ipv4Address address, size_t index) {
  proto::http::Request req =
      proto::http::Request::get(options_.domain, options_.path);
  for (auto& [k, v] : req.headers)
    if (common::iequals(k, "User-Agent")) v = options_.user_agent;
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  http_->fetch(
      address, 80, req,
      guarded([this, address, index](const proto::http::FetchResult& result) {
        Verdict v = classify_fetch(result).first;
        if (v == Verdict::BlockedTimeout &&
            retry(sample_ladders_[index],
                  [this, address, index]() { fetch_sample(address, index); }))
          return;
        on_sample(index, v);
      }),
      options_.request_timeout);
}

void DdosProbe::on_sample(size_t index, Verdict v) {
  samples_[index] = v;
  ++completed_;
  prov_.evidence(now(), std::string(to_string(v)),
                 "request=" + std::to_string(index));
  if (completed_ >= options_.requests) finalize();
}

void DdosProbe::finalize() {
  size_t ok = 0, rst = 0, timeout = 0, blockpage = 0, other = 0;
  for (Verdict v : samples_) {
    switch (v) {
      case Verdict::Reachable: ++ok; break;
      case Verdict::BlockedRst: ++rst; break;
      case Verdict::BlockedTimeout: ++timeout; break;
      case Verdict::BlockedBlockpage: ++blockpage; break;
      default: ++other; break;
    }
  }
  size_t blocked = rst + timeout + blockpage;
  Verdict verdict = Verdict::Inconclusive;
  if (blocked * 2 > samples_.size()) {
    // Majority blocked: report the dominant mechanism.
    if (blockpage >= rst && blockpage >= timeout)
      verdict = Verdict::BlockedBlockpage;
    else
      verdict = rst >= timeout ? Verdict::BlockedRst : Verdict::BlockedTimeout;
  } else if (ok * 2 >= samples_.size()) {
    verdict = Verdict::Reachable;
  }
  size_t max_fetch = dns_ladder_.attempts();
  for (const AttemptLadder& ladder : sample_ladders_)
    max_fetch = std::max(max_fetch, ladder.attempts());
  report_.attempts = max_fetch;
  // Each timeout sample already survived its own retry ladder, so the
  // silent tally here is loss-discounted evidence of dropping.
  finish(verdict,
         common::format("ok=%zu rst=%zu timeout=%zu blockpage=%zu other=%zu",
                        ok, rst, timeout, blockpage, other),
         conclude(ok, rst + blockpage, timeout));
  report_.samples_blocked = blocked;
}

}  // namespace sm::core
