#include "core/spam.hpp"

#include "common/strings.hpp"

#include "core/overt.hpp"

namespace sm::core {

SpamProbe::SpamProbe(Testbed& tb, SpamOptions options)
    : tb_(tb), options_(std::move(options)), forged_ips_(forged_hints(tb)) {
  report_.technique = "spam";
  report_.target = options_.domain;
  report_.samples = 1;
  smtp_ = std::make_unique<proto::smtp::Client>(*tb_.client_stack);
  common::Rng rng(options_.corpus_seed);
  message_ = spamfilter::make_spam_measurement_email(rng, options_.domain);
}

void SpamProbe::finish(Verdict v, std::string detail) {
  if (done_) return;
  // Silence-shaped outcomes retry the whole sequence: a lost DNS answer
  // or SMTP SYN is indistinguishable from dropping until the retry
  // ladder runs dry.
  if (v == Verdict::BlockedTimeout &&
      attempt_ + 1 < options_.retry.max_attempts) {
    ++attempt_;
    tb_.net.engine().schedule(options_.retry.gap_before(attempt_),
                              [this, alive = guard()]() {
                                if (!alive.expired() && !done_)
                                  begin_attempt();
                              });
    return;
  }
  report_.verdict = v;
  report_.detail = std::move(detail);
  report_.samples_blocked = is_blocked(v) ? 1 : 0;
  prov_.evidence(tb_.net.engine().now(),
                 is_blocked(v) ? "blocked" : "delivered", report_.detail);
  size_t silent = attempt_;  // earlier attempts all ended in silence
  switch (v) {
    case Verdict::Reachable:
      report_.confidence = conclude(1, 0, silent);
      break;
    case Verdict::BlockedRst:
    case Verdict::BlockedDnsForgery:
      report_.confidence = conclude(0, 1, silent);
      break;
    case Verdict::BlockedTimeout:
      report_.confidence = conclude(0, 0, attempt_ + 1, attempt_ + 1);
      break;
    default:
      break;  // Inconclusive stays the default Confidence
  }
  prov_.verdict(tb_.net.engine().now(), report_);
  done_ = true;
}

void SpamProbe::start() {
  prov_.begin(tb_.prov_sink(), tb_.net.engine().now(), report_);
  begin_attempt();
}

void SpamProbe::begin_attempt() {
  report_.attempts = attempt_ + 1;
  ++report_.packets_sent;
  prov_.attempt(tb_.net.engine().now(), attempt_ + 1);
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(proto::dns::Name(options_.domain),
                      proto::dns::RecordType::MX,
                      [this, alive = guard()](
                          const proto::dns::QueryResult& r) {
                        if (!alive.expired()) on_mx(r);
                      });
}

void SpamProbe::on_mx(const proto::dns::QueryResult& result) {
  if (!result.answered()) {
    finish(Verdict::BlockedTimeout, "mx lookup timed out");
    return;
  }
  const auto& resp = *result.response;
  // The GFC answers MX queries with a forged *A* record; a bogus A where
  // MX records belong is itself the censorship signal (§3.2.3).
  if (auto forged_a = resp.first_a()) {
    if (forged_ips_.count(forged_a->value()) || forged_a->is_private()) {
      finish(Verdict::BlockedDnsForgery,
             "forged A in MX response: " + forged_a->to_string());
      return;
    }
  }
  auto mxs = resp.mx_records();
  if (resp.header.rcode == proto::dns::Rcode::NxDomain || mxs.empty()) {
    finish(Verdict::Inconclusive, "no MX records");
    return;
  }
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      mxs.front().exchange, proto::dns::RecordType::A,
      [this, alive = guard()](const proto::dns::QueryResult& r) {
        if (!alive.expired()) on_exchange_a(r);
      });
}

void SpamProbe::on_exchange_a(const proto::dns::QueryResult& result) {
  common::Ipv4Address addr;
  if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
    finish(blocked->first, "exchange lookup: " + blocked->second);
    return;
  }
  deliver(addr);
}

void SpamProbe::deliver(common::Ipv4Address mail_server) {
  proto::smtp::Envelope env;
  env.helo_domain = "relay.example.net";
  env.mail_from = "<promo@deals.example.net>";
  env.rcpt_to = "<postmaster@" + options_.domain + ">";
  env.data = message_;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  smtp_->deliver(
      mail_server, env,
      [this, alive = guard()](const proto::smtp::DeliveryResult& result) {
        if (alive.expired()) return;
        using proto::smtp::DeliveryStage;
        switch (result.stage) {
          case DeliveryStage::Delivered:
            finish(Verdict::Reachable, "spam delivered (250)");
            break;
          case DeliveryStage::ConnectReset:
            finish(Verdict::BlockedRst, "smtp connect reset");
            break;
          case DeliveryStage::ConnectFailed:
            finish(Verdict::BlockedTimeout, "smtp connect timed out");
            break;
          default:
            finish(Verdict::Inconclusive,
                   "smtp stopped at stage " +
                       std::string(to_string(result.stage)) + " code " +
                       std::to_string(result.last_code));
            break;
        }
      });
}

}  // namespace sm::core
