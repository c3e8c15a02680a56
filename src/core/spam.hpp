// Method #2 — Spam (§3.1).
//
// "We send spam to (and, hence, perform MX lookups for) censored domains
// as a stealthy way to measure DNS and IP censorship": MX lookup -> A
// lookup of the exchange -> SMTP connect -> spam message. The MX/A
// lookups detect DNS censorship (the GFC forges A answers for both A and
// MX queries, §3.2.3); the SMTP connect detects IP censorship; the
// delivered message is indistinguishable from the bulk spam the MVR
// discards. The message body is generated by the spamfilter corpus so
// Figure 2 can score exactly what was sent.
#pragma once

#include <set>

#include "core/probe.hpp"
#include "spamfilter/corpus.hpp"

namespace sm::core {

struct SpamOptions {
  std::string domain = "blocked.example";
  uint64_t corpus_seed = 99;
  /// Lossy-path discipline: a timeout-shaped outcome (MX lookup or SMTP
  /// connect silence) re-runs the whole lookup→connect→deliver sequence
  /// with exponential backoff before concluding blocked.
  RetryPolicy retry{};
};

class SpamProbe : public Probe {
 public:
  SpamProbe(Testbed& tb, SpamOptions options = {});

  /// The raw message that was (or would have been) transmitted — scored
  /// by the Figure 2 benchmark.
  const std::string& message() const { return message_; }

 private:
  void launch() override;
  void on_mx(const proto::dns::QueryResult& result);
  void on_exchange_a(const proto::dns::QueryResult& result);
  void deliver(common::Ipv4Address mail_server);
  void conclude_attempt(Verdict v, std::string detail);

  SpamOptions options_;
  AttemptLadder ladder_;
  std::set<uint32_t> forged_ips_;
  std::unique_ptr<proto::smtp::Client> smtp_;
  std::string message_;
};

}  // namespace sm::core
