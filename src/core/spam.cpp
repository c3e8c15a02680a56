#include "core/spam.hpp"

#include "common/strings.hpp"

#include "core/overt.hpp"

namespace sm::core {

SpamProbe::SpamProbe(Testbed& tb, SpamOptions options)
    : Probe(tb, "spam", options.domain, 1),
      options_(std::move(options)),
      ladder_(options_.retry),
      forged_ips_(forged_hints(tb)) {
  smtp_ = std::make_unique<proto::smtp::Client>(*tb_.client_stack);
  common::Rng rng(options_.corpus_seed);
  message_ = spamfilter::make_spam_measurement_email(rng, options_.domain);
}

void SpamProbe::conclude_attempt(Verdict v, std::string detail) {
  // Silence-shaped outcomes retry the whole sequence: a lost DNS answer
  // or SMTP SYN is indistinguishable from dropping until the retry
  // ladder runs dry.
  if (v == Verdict::BlockedTimeout &&
      retry(ladder_, [this]() { launch(); }))
    return;
  std::string_view evidence = "inconclusive";
  if (v == Verdict::Reachable) {
    evidence = "delivered";
  } else if (is_blocked(v)) {
    evidence = "blocked";
  }
  finish(v, std::move(detail), confidence_from(v, ladder_.silent_before()),
         evidence);
}

void SpamProbe::launch() {
  begin_attempt(ladder_);
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      proto::dns::Name(options_.domain), proto::dns::RecordType::MX,
      guarded([this](const proto::dns::QueryResult& r) { on_mx(r); }));
}

void SpamProbe::on_mx(const proto::dns::QueryResult& result) {
  if (!result.answered()) {
    conclude_attempt(Verdict::BlockedTimeout, "mx lookup timed out");
    return;
  }
  const auto& resp = *result.response;
  // The GFC answers MX queries with a forged *A* record; a bogus A where
  // MX records belong is itself the censorship signal (§3.2.3).
  if (auto forged_a = resp.first_a()) {
    if (forged_ips_.count(forged_a->value()) || forged_a->is_private()) {
      conclude_attempt(Verdict::BlockedDnsForgery,
                       "forged A in MX response: " + forged_a->to_string());
      return;
    }
  }
  auto mxs = resp.mx_records();
  if (resp.header.rcode == proto::dns::Rcode::NxDomain || mxs.empty()) {
    conclude_attempt(Verdict::Inconclusive, "no MX records");
    return;
  }
  ++report_.packets_sent;
  obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
  tb_.resolver->query(
      mxs.front().exchange, proto::dns::RecordType::A,
      guarded(
          [this](const proto::dns::QueryResult& r) { on_exchange_a(r); }));
}

void SpamProbe::on_exchange_a(const proto::dns::QueryResult& result) {
  common::Ipv4Address addr;
  if (auto blocked = classify_dns(result, forged_ips_, &addr)) {
    conclude_attempt(blocked->first, "exchange lookup: " + blocked->second);
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
      guarded([this](const proto::smtp::DeliveryResult& result) {
        using proto::smtp::DeliveryStage;
        switch (result.stage) {
          case DeliveryStage::Delivered:
            conclude_attempt(Verdict::Reachable, "spam delivered (250)");
            break;
          case DeliveryStage::ConnectReset:
            conclude_attempt(Verdict::BlockedRst, "smtp connect reset");
            break;
          case DeliveryStage::ConnectFailed:
            conclude_attempt(Verdict::BlockedTimeout,
                             "smtp connect timed out");
            break;
          default:
            conclude_attempt(Verdict::Inconclusive,
                             "smtp stopped at stage " +
                                 std::string(to_string(result.stage)) +
                                 " code " + std::to_string(result.last_code));
            break;
        }
      }));
}

}  // namespace sm::core
