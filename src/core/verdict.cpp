#include "core/verdict.hpp"

#include "common/strings.hpp"

namespace sm::core {

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::Reachable: return "reachable";
    case Verdict::BlockedRst: return "blocked-rst";
    case Verdict::BlockedDnsForgery: return "blocked-dns-forgery";
    case Verdict::BlockedTimeout: return "blocked-timeout";
    case Verdict::BlockedBlockpage: return "blocked-blockpage";
    case Verdict::Inconclusive: return "inconclusive";
  }
  return "?";
}

std::string_view to_string(Conclusion c) {
  switch (c) {
    case Conclusion::Open: return "open";
    case Conclusion::Blocked: return "blocked";
    case Conclusion::Inconclusive: return "inconclusive";
  }
  return "?";
}

Confidence conclude(size_t open, size_t active_blocked, size_t silent,
                    size_t min_silent_for_blocked) {
  Confidence c;
  c.trials = open + active_blocked + silent;
  c.trials_open = open;
  c.trials_blocked = active_blocked;
  c.trials_silent = silent;
  if (c.trials == 0) return c;
  double trials = static_cast<double>(c.trials);
  if (active_blocked > 0 && open > 0) {
    // Mixed active evidence: majority rules, ties stay inconclusive.
    if (active_blocked > open) {
      c.conclusion = Conclusion::Blocked;
      c.score = static_cast<double>(active_blocked + silent) / trials;
    } else if (open > active_blocked) {
      c.conclusion = Conclusion::Open;
      c.score = static_cast<double>(open) / trials;
    }
  } else if (active_blocked > 0) {
    // Active interference is loss-proof evidence: packet loss can
    // swallow an answer but cannot forge an RST or a blockpage.
    c.conclusion = Conclusion::Blocked;
    c.score = 1.0;  // every trial (active or silent) is consistent
  } else if (open > 0) {
    c.conclusion = Conclusion::Open;
    c.score = static_cast<double>(open) / trials;
  } else if (silent >= min_silent_for_blocked) {
    // Nothing but silence, and the retry budget is exhausted.
    c.conclusion = Conclusion::Blocked;
    c.score = 1.0;
  }
  return c;
}

Confidence confidence_from(Verdict v, size_t silent_before) {
  switch (v) {
    case Verdict::Reachable: return conclude(1, 0, silent_before);
    case Verdict::BlockedRst:
    case Verdict::BlockedDnsForgery:
    case Verdict::BlockedBlockpage: return conclude(0, 1, silent_before);
    case Verdict::BlockedTimeout:
      return conclude(0, 0, silent_before + 1, silent_before + 1);
    case Verdict::Inconclusive: break;
  }
  return Confidence{};
}

std::string ProbeReport::to_string() const {
  return common::format(
      "%s(%s): %s/%s [%s] pkts=%zu samples=%zu/%zu attempts=%zu",
      technique.c_str(), target.c_str(),
      std::string(core::to_string(verdict)).c_str(),
      std::string(core::to_string(confidence.conclusion)).c_str(),
      detail.c_str(), packets_sent, samples_blocked, samples, attempts);
}

}  // namespace sm::core
