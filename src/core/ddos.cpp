#include "core/ddos.hpp"

#include "common/strings.hpp"

#include "core/overt.hpp"

namespace sm::core {

DdosProbe::DdosProbe(Testbed& tb, DdosOptions options)
    : tb_(tb), options_(std::move(options)), forged_ips_(forged_hints(tb)) {
  report_.technique = "ddos";
  report_.target = options_.domain + options_.path;
  report_.samples = options_.requests;
  http_ = std::make_unique<proto::http::Client>(*tb_.client_stack);
}

void DdosProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  resolve();
}

void DdosProbe::resolve() {
  report_.attempts = dns_attempt_ + 1;
  ++report_.packets_sent;
  prov_.attempt(tb_.net.engine().now(), dns_attempt_ + 1);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), proto::dns::RecordType::A,
      [this, alive = guard()](const proto::dns::QueryResult& result) {
        if (alive.expired()) return;
        common::Ipv4Address addr;
        if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
          // Silence gets the retry ladder; forgery/NXDOMAIN are final.
          if (blocked->first == Verdict::BlockedTimeout &&
              dns_attempt_ + 1 < options_.retry.max_attempts) {
            ++dns_attempt_;
            tb_.net.engine().schedule(
                options_.retry.gap_before(dns_attempt_),
                [this, alive]() {
                  if (!alive.expired() && !done_) resolve();
                });
            return;
          }
          report_.verdict = blocked->first;
          report_.detail = "dns: " + blocked->second;
          report_.samples_blocked = report_.samples;
          if (blocked->first == Verdict::BlockedTimeout) {
            report_.confidence =
                conclude(0, 0, dns_attempt_ + 1, dns_attempt_ + 1);
          } else {
            report_.confidence = conclude(0, 1, dns_attempt_);
          }
          prov_.evidence(tb_.net.engine().now(), "dns-blocked",
                         report_.detail);
          prov_.verdict(tb_.net.engine().now(), report_);
          done_ = true;
          return;
        }
        launch(addr);
      });
}

void DdosProbe::launch(common::Ipv4Address address) {
  samples_.assign(options_.requests, Verdict::Inconclusive);
  sample_attempts_.assign(options_.requests, 0);
  auto& engine = tb_.net.engine();
  for (size_t i = 0; i < options_.requests; ++i) {
    engine.schedule(options_.gap * static_cast<int64_t>(i),
                    [this, alive = guard(), address, i]() {
                      if (alive.expired() || done_) return;
                      fetch_sample(address, i);
                    });
  }
}

void DdosProbe::fetch_sample(common::Ipv4Address address, size_t index) {
  ++sample_attempts_[index];
  proto::http::Request req =
      proto::http::Request::get(options_.domain, options_.path);
  for (auto& [k, v] : req.headers)
    if (common::iequals(k, "User-Agent")) v = options_.user_agent;
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  http_->fetch(address, 80, req,
               [this, alive = guard(), address, index](
                   const proto::http::FetchResult& result) {
                 if (alive.expired() || done_) return;
                 Verdict v = classify_fetch(result).first;
                 if (v == Verdict::BlockedTimeout &&
                     sample_attempts_[index] < options_.retry.max_attempts) {
                   tb_.net.engine().schedule(
                       options_.retry.gap_before(sample_attempts_[index]),
                       [this, alive, address, index]() {
                         if (!alive.expired() && !done_)
                           fetch_sample(address, index);
                       });
                   return;
                 }
                 on_sample(index, v);
               },
               options_.request_timeout);
}

void DdosProbe::on_sample(size_t index, Verdict v) {
  samples_[index] = v;
  ++completed_;
  prov_.evidence(tb_.net.engine().now(), std::string(to_string(v)),
                 "request=" + std::to_string(index));
  if (completed_ >= options_.requests) finalize();
}

void DdosProbe::finalize() {
  if (done_) return;
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
  report_.samples_blocked = blocked;
  report_.detail =
      common::format("ok=%zu rst=%zu timeout=%zu blockpage=%zu other=%zu",
                     ok, rst, timeout, blockpage, other);
  if (blocked * 2 > samples_.size()) {
    // Majority blocked: report the dominant mechanism.
    if (blockpage >= rst && blockpage >= timeout)
      report_.verdict = Verdict::BlockedBlockpage;
    else
      report_.verdict =
          rst >= timeout ? Verdict::BlockedRst : Verdict::BlockedTimeout;
  } else if (ok * 2 >= samples_.size()) {
    report_.verdict = Verdict::Reachable;
  } else {
    report_.verdict = Verdict::Inconclusive;
  }
  // Each timeout sample already survived its own retry ladder, so the
  // silent tally here is loss-discounted evidence of dropping.
  report_.confidence = conclude(ok, rst + blockpage, timeout);
  size_t max_fetch = dns_attempt_ + 1;
  for (size_t a : sample_attempts_)
    if (a > max_fetch) max_fetch = a;
  report_.attempts = max_fetch;
  prov_.verdict(tb_.net.engine().now(), report_);
  done_ = true;
}

}  // namespace sm::core
