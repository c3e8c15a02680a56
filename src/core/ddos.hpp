// Method #3 — (Part of) a DDoS attack (§3.1).
//
// "We can mimic an HTTP DDoS attack to gather stealthy DNS, IP, and HTTP
// censorship measurements... Repeated requests are also advantageous
// because we can treat each request as a measurement sample." One client
// sending a burst of identical plain GETs looks like a single bot of an
// HTTP flood; the MVR's DDoS detector classifies and discards it. Each
// request yields an independent sample, so the aggregate verdict also
// estimates *how consistently* content is censored.
#pragma once

#include <set>

#include "core/probe.hpp"

namespace sm::core {

struct DdosOptions {
  std::string domain = "blocked.example";
  std::string path = "/";
  size_t requests = 20;
  common::Duration gap = common::Duration::millis(20);
  /// Old botnet kit fingerprint, not a measurement-platform one.
  std::string user_agent = "Mozilla/4.0 (compatible; MSIE 6.0)";
  common::Duration request_timeout = common::Duration::seconds(4);
  /// Lossy-path discipline: the DNS lookup and each timed-out request
  /// are retried with exponential backoff; a sample only counts as
  /// silent once its retry budget is spent. Repeated requests are
  /// samples, so the retries blend into the flood.
  RetryPolicy retry{};
};

class DdosProbe : public Probe {
 public:
  DdosProbe(Testbed& tb, DdosOptions options = {});

  /// Per-sample outcomes (index = request number).
  const std::vector<Verdict>& sample_verdicts() const { return samples_; }

 private:
  void launch() override;
  void flood(common::Ipv4Address address);
  void fetch_sample(common::Ipv4Address address, size_t index);
  void on_sample(size_t index, Verdict v);
  void finalize();

  DdosOptions options_;
  AttemptLadder dns_ladder_;
  std::set<uint32_t> forged_ips_;
  std::unique_ptr<proto::http::Client> http_;
  std::vector<Verdict> samples_;
  /// One ladder per request; it records no Attempt event, because the
  /// repeated requests are samples of one attempt.
  std::vector<AttemptLadder> sample_ladders_;
  size_t completed_ = 0;
};

}  // namespace sm::core
