// Measurement verdicts: what a probe concluded about a target.
//
// The taxonomy distinguishes censorship *mechanisms*, because the paper's
// techniques each detect specific ones: RST injection (keyword censors),
// DNS forgery (bad A answers), and silent dropping (null-routes / port
// blocks) — plus honest "inconclusive" for confounded observations
// (§3.1 Method #2 notes e.g. an ISP blackholing mail is a confounder).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace sm::core {

enum class Verdict {
  Reachable,          // service responded normally
  BlockedRst,         // connection(s) torn down by injected RSTs
  BlockedDnsForgery,  // DNS answer is a known-forged/bogus address
  BlockedTimeout,     // silence where a response was expected (dropping)
  BlockedBlockpage,   // a forged HTTP blockpage was served instead
  Inconclusive,       // confounded (e.g. NXDOMAIN, server-side error)
};

std::string_view to_string(Verdict v);

/// True when the verdict asserts interference of any mechanism.
inline bool is_blocked(Verdict v) {
  return v == Verdict::BlockedRst || v == Verdict::BlockedDnsForgery ||
         v == Verdict::BlockedTimeout || v == Verdict::BlockedBlockpage;
}

/// The confidence layer on top of the mechanism taxonomy. A lossy but
/// uncensored path produces exactly the silence that BlockedTimeout
/// keys on, so the binary verdict alone cannot separate "censored" from
/// "bad network". Conclusion collapses the evidence from repeated
/// attempts/trials into three states:
///   Blocked       — active interference observed (RST, forgery,
///                   blockpage: loss cannot fabricate these), or
///                   silence persisted through the full retry budget;
///   Open          — the service answered at least once and no active
///                   interference was seen;
///   Inconclusive  — mixed or insufficient evidence.
enum class Conclusion { Open, Blocked, Inconclusive };

std::string_view to_string(Conclusion c);

/// Evidence tally behind a Conclusion.
struct Confidence {
  Conclusion conclusion = Conclusion::Inconclusive;
  size_t trials = 0;          // attempts/samples that produced evidence
  size_t trials_open = 0;     // normal responses
  size_t trials_blocked = 0;  // active interference (RST/forgery/page)
  size_t trials_silent = 0;   // timeouts (loss OR dropping)
  /// Fraction of trials consistent with the conclusion (silence is
  /// consistent with Blocked but not with Open).
  double score = 0.0;

  /// True when Blocked rests on *active* evidence (injected RSTs, forged
  /// answers, blockpages) rather than silence — the claim that loss on
  /// an uncensored path can never legitimately produce, which is exactly
  /// what simcheck's O1 safety oracle forbids.
  bool confirmed() const {
    return conclusion == Conclusion::Blocked && trials_blocked > 0;
  }
};

/// Folds per-attempt evidence into a Confidence. Active evidence wins by
/// majority (and outright when uncontested); pure silence concludes
/// Blocked only once at least `min_silent_for_blocked` silent attempts
/// accumulated — i.e. only after a probe's full retry ladder ran dry.
Confidence conclude(size_t open, size_t active_blocked, size_t silent,
                    size_t min_silent_for_blocked = 1);

/// Confidence of one final observation `v`, after `silent_before`
/// earlier attempts went unanswered: an answer (or active interference)
/// outweighs the silence before it, while silence itself concludes
/// Blocked only as the last of `silent_before + 1` silent attempts, i.e.
/// once the retry ladder ran dry. Inconclusive yields the default
/// Confidence.
Confidence confidence_from(Verdict v, size_t silent_before = 0);

/// Retry/backoff discipline for probes whose evidence is silence-shaped.
/// Attempt k (0-based) is retried after `backoff * 2^k` of simulated
/// time, up to `max_attempts` total attempts. The default (1 attempt)
/// preserves the historical single-shot behaviour.
struct RetryPolicy {
  size_t max_attempts = 1;
  common::Duration backoff = common::Duration::millis(200);

  /// Gap to wait before attempt `next_attempt` (1-based retries).
  common::Duration gap_before(size_t next_attempt) const {
    common::Duration g = backoff;
    for (size_t i = 1; i < next_attempt; ++i) g = g * 2;
    return g;
  }
};

/// One climb up a RetryPolicy: the attempt in flight, how many attempts
/// before it went unanswered, and whether another rung is left. A ladder
/// only climbs on silence, so every attempt before the current one was
/// silent.
class AttemptLadder {
 public:
  explicit AttemptLadder(RetryPolicy policy = {}) : policy_(policy) {}

  /// Attempts used so far, the one in flight included (1-based).
  size_t attempts() const { return used_; }
  /// Earlier attempts that drew no answer.
  size_t silent_before() const { return used_ - 1; }
  bool can_climb() const { return used_ < policy_.max_attempts; }
  /// Moves to the next attempt; returns the backoff gap to wait first.
  common::Duration climb() { return policy_.gap_before(used_++); }

 private:
  RetryPolicy policy_;
  size_t used_ = 1;
};

/// A finished measurement.
struct ProbeReport {
  std::string technique;  // "overt-http", "scan", "spam", "ddos", ...
  std::string target;     // domain or address measured
  Verdict verdict = Verdict::Inconclusive;
  std::string detail;     // human-readable evidence
  size_t packets_sent = 0;
  size_t samples = 0;      // sub-measurements (ports, requests, ...)
  size_t samples_blocked = 0;
  size_t attempts = 1;     // retry rounds actually used
  Confidence confidence;

  std::string to_string() const;
};

}  // namespace sm::core
